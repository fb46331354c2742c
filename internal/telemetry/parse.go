package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a parsed exposition: every sample keyed by its canonical
// spelling — name plus sorted label signature, exactly as the encoder
// prints it (histogram expansions appear as their _bucket/_sum/_count
// samples). It is what the soak tests and the benchmark assert against after
// scraping /metrics.
type Snapshot map[string]float64

// Value returns the sample for name with exactly the given labels.
func (s Snapshot) Value(name string, labels ...Label) (float64, bool) {
	v, ok := s[name+labelSig(labels)]
	return v, ok
}

// Sum returns the sum of every sample of the family, across label sets —
// the "total requests over all endpoints" aggregation.
func (s Snapshot) Sum(name string) float64 {
	var total float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// ParseExposition parses Prometheus text exposition format (version 0.0.4)
// strictly enough to validate what this module's encoder emits: # HELP and
// # TYPE comments with known types, every sample preceded by its family's
// # TYPE line, well-formed label sets, finite float values, and histogram
// bucket counts that are cumulative and consistent with _count. It exists
// so CI and the soak suite can verify a scrape without promtool.
func ParseExposition(r io.Reader) (Snapshot, error) {
	snap := make(Snapshot)
	typed := make(map[string]string) // family -> TYPE
	buckets := make(map[string][]bucket)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, typed); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, sig, val, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam, t, ok := familyOf(name, typed)
		if !ok {
			return nil, fmt.Errorf("line %d: sample %s before its # TYPE line", lineNo, name)
		}
		if t == "histogram" && strings.HasSuffix(name, "_bucket") {
			le, rest, err := splitLE(sig)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			key := fam + rest
			buckets[key] = append(buckets[key], bucket{le: le, count: val})
		}
		key := name + sig
		if _, dup := snap[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
		}
		snap[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for key, bs := range buckets {
		if err := checkBuckets(key, bs, snap); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

type bucket struct {
	le    float64
	count float64
}

// familyOf resolves a sample name to its typed family: the name itself, or —
// for histogram/summary expansions — the base name with the _bucket/_sum/
// _count suffix stripped.
func familyOf(name string, typed map[string]string) (fam, typ string, ok bool) {
	if t, ok := typed[name]; ok {
		return name, t, true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, cut := strings.CutSuffix(name, suf); cut {
			if t, ok := typed[base]; ok && (t == "histogram" || t == "summary") {
				return base, t, true
			}
		}
	}
	return "", "", false
}

// parseComment validates a # HELP / # TYPE line and records TYPEs.
func parseComment(line string, typed map[string]string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return fmt.Errorf("malformed comment %q", line)
	}
	switch fields[1] {
	case "HELP":
		if err := checkName(fields[2]); err != nil {
			return err
		}
	case "TYPE":
		if err := checkName(fields[2]); err != nil {
			return err
		}
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if prev, ok := typed[fields[2]]; ok && prev != fields[3] {
			return fmt.Errorf("family %s re-typed %s -> %s", fields[2], prev, fields[3])
		}
		typed[fields[2]] = fields[3]
	default:
		return fmt.Errorf("unknown comment %q", line)
	}
	return nil
}

// parseSample splits one sample line into name, canonical label signature
// and value. Timestamps (a trailing integer) are not emitted by this
// module's encoder and are rejected.
func parseSample(line string) (name, sig string, val float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unterminated label set in %q", line)
		}
		var labels []Label
		if labels, err = parseLabels(rest[i+1 : j]); err != nil {
			return "", "", 0, err
		}
		// Histogram `le` is part of the sample key but is not a valid
		// registration label; canonicalise it manually.
		sort.Slice(labels, func(a, b int) bool { return labels[a].Name < labels[b].Name })
		var b strings.Builder
		b.WriteByte('{')
		for k, l := range labels {
			if k > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `%s="%s"`, l.Name, escapeLabel(l.Value))
		}
		b.WriteByte('}')
		sig = b.String()
		rest = rest[j+1:]
	} else if i := strings.IndexByte(rest, ' '); i >= 0 {
		name, rest = rest[:i], rest[i:]
	} else {
		return "", "", 0, fmt.Errorf("no value in %q", line)
	}
	if err = checkName(name); err != nil {
		return "", "", 0, err
	}
	vs := strings.TrimSpace(rest)
	if vs == "" || strings.ContainsRune(vs, ' ') {
		return "", "", 0, fmt.Errorf("malformed value in %q", line)
	}
	if val, err = strconv.ParseFloat(vs, 64); err != nil {
		return "", "", 0, fmt.Errorf("malformed value %q: %w", vs, err)
	}
	return name, sig, val, nil
}

// parseLabels parses the inside of a {…} label set.
func parseLabels(s string) ([]Label, error) {
	var out []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label in %q", s)
		}
		name := s[:eq]
		if name != "le" {
			if err := checkName(name); err != nil {
				return nil, err
			}
		}
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out = append(out, Label{Name: name, Value: val.String()})
		s = rest[i+1:]
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		} else if s != "" {
			return nil, fmt.Errorf("malformed label separator in %q", s)
		}
	}
	return out, nil
}

// splitLE extracts the le bound from a _bucket signature, returning the
// bound and the signature with le removed (the parent histogram's key).
func splitLE(sig string) (le float64, rest string, err error) {
	labels, err := parseLabels(strings.TrimSuffix(strings.TrimPrefix(sig, "{"), "}"))
	if err != nil {
		return 0, "", err
	}
	others := labels[:0]
	found := false
	for _, l := range labels {
		if l.Name == "le" {
			found = true
			if l.Value == "+Inf" {
				le = inf()
			} else if le, err = strconv.ParseFloat(l.Value, 64); err != nil {
				return 0, "", fmt.Errorf("malformed le %q", l.Value)
			}
			continue
		}
		others = append(others, l)
	}
	if !found {
		return 0, "", fmt.Errorf("histogram bucket without le in %q", sig)
	}
	return le, labelSig(others), nil
}

func inf() float64 { return math.Inf(1) }

// checkBuckets verifies one histogram series' invariants: counts are
// cumulative (non-decreasing with le), a +Inf bucket exists, and its count
// equals the series' _count sample.
func checkBuckets(key string, bs []bucket, snap Snapshot) error {
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	last := -1.0
	for _, b := range bs {
		if b.count < last {
			return fmt.Errorf("histogram %s buckets not cumulative at le=%g", key, b.le)
		}
		last = b.count
	}
	name, sig := key, ""
	if i := strings.IndexByte(key, '{'); i >= 0 {
		name, sig = key[:i], key[i:]
	}
	count, ok := snap[name+"_count"+sig]
	if !ok {
		return fmt.Errorf("histogram %s has buckets but no _count", key)
	}
	if len(bs) == 0 || bs[len(bs)-1].le < inf() {
		return fmt.Errorf("histogram %s has no +Inf bucket", key)
	}
	if bs[len(bs)-1].count != count {
		return fmt.Errorf("histogram %s +Inf bucket %g != count %g", key, bs[len(bs)-1].count, count)
	}
	if _, ok := snap[name+"_sum"+sig]; !ok {
		return fmt.Errorf("histogram %s has buckets but no _sum", key)
	}
	return nil
}
