package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// The load generator. An open-loop class fires on a schedule fixed before
// the run and times each request from its due time, so a stall is charged
// to every request it delays; cmd/prload times from the send, and its
// ticker loop blocks on the call, which hides exactly that. A closed-loop
// class sends its next request when the previous reply arrived and states
// how many clients it has (one per connection).

// conn is one client connection: its own transport, capped at one TCP
// connection per host, so that "two connections" means two.
type conn struct {
	hc *http.Client
}

func newConn() *conn {
	return &conn{hc: &http.Client{
		Timeout: readTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// reply is what the harness keeps of one response.
type reply struct {
	Status  int
	Version uint64 // X-DFPR-Version: the rank version the node served or holds
	Body    []byte
	Done    time.Time // last byte read
}

func (r reply) ok() bool { return r.Status >= 200 && r.Status < 300 }

// do sends one request and reads the whole reply. pin > 0 sends the
// X-DFPR-Version watermark.
func (c *conn) do(ctx context.Context, method, url string, body []byte, pin uint64) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if pin > 0 {
		req.Header.Set("X-DFPR-Version", strconv.FormatUint(pin, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{Done: time.Now()}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	out := reply{Status: resp.StatusCode, Body: b, Done: time.Now()}
	if v := resp.Header.Get("X-DFPR-Version"); v != "" {
		out.Version, _ = strconv.ParseUint(v, 10, 64) // absent or odd header: 0, "unknown"
	}
	return out, err
}

// sample is one finished operation of a class.
type sample struct {
	Class   string
	Op      int
	Due     time.Time // open loop: when it was due; closed loop: when it was sent
	Sent    time.Time
	Done    time.Time
	OK      bool
	Idle    bool   // open loop: the connection was free at the due time
	Version uint64 // apply: assigned graph version
	Ranked  uint64 // rank version named by the reply
	Edits   int
	Batch   int // index into the schedule, for writes
}

func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }
func (s sample) service() time.Duration { return s.Done.Sub(s.Sent) }

// opIDs hands out operation identifiers across classes.
var opIDs atomic.Int64

func nextOp() int { return int(opIDs.Add(1)) }

// openLoop runs a schedule of due offsets against fire, one request at a
// time on the class's single connection. It stops at the end of the
// schedule or when ctx ends. fire gets the operation's index and due time
// and returns the finished sample.
func openLoop(ctx context.Context, start time.Time, dues []time.Duration, fire func(i int, due time.Time) sample) []sample {
	out := make([]sample, 0, len(dues))
	var free time.Time // when the connection last became free
	for i, off := range dues {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return out
			case <-time.After(d):
			}
		} else if ctx.Err() != nil {
			return out
		}
		s := fire(i, due)
		s.Due = due
		s.Idle = !free.After(due)
		free = s.Done
		out = append(out, s)
	}
	return out
}

// closedLoop calls fire back to back until ctx ends; fire returns false when
// its inputs ran out.
func closedLoop(ctx context.Context, fire func() (sample, bool)) []sample {
	var out []sample
	for ctx.Err() == nil {
		s, more := fire()
		if !more {
			break
		}
		out = append(out, s)
	}
	return out
}

// summary is the percentile rule applied to one set of timings: the median,
// and the highest of p90/p99/p99.9 that still has at least ten samples
// beyond it (none below 100 samples).
type summary struct {
	N       int
	P50     float64
	TailPct float64 // 0 when the set is too small for any tail
	Tail    float64
}

var tailPercentiles = []float64{99.9, 99, 90}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = percentile(sorted, 50)
	for _, p := range tailPercentiles {
		if tailAllowed(len(sorted), p) {
			s.TailPct, s.Tail = p, percentile(sorted, p)
			break
		}
	}
	return s
}

// tailAllowed is the rule: at least ten samples beyond the percentile.
func tailAllowed(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9 // 10000 × 0.1 % is 10, not 9.999…
}

// tailAt returns the p-th percentile, or 0 when the rule forbids one that
// high for this many samples.
func tailAt(xs []float64, p float64) float64 {
	if !tailAllowed(len(xs), p) {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentile(sorted, p)
}

// percentile interpolates linearly on a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 { return summarize(xs).P50 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latenciesMS picks the latencies (from due time) of the successful samples
// of a class that were due inside [from, to).
func latenciesMS(ss []sample, class string, from, to time.Time) []float64 {
	var out []float64
	for _, s := range ss {
		if s.Class == class && s.OK && !s.Due.Before(from) && s.Due.Before(to) {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// counts tallies attempted and failed operations due inside [from, to).
func counts(ss []sample, from, to time.Time) (attempted, failed int) {
	for _, s := range ss {
		if !s.Due.Before(from) && s.Due.Before(to) {
			attempted++
			if !s.OK {
				failed++
			}
		}
	}
	return attempted, failed
}

// lateness is how late the generator itself fired: send − due over the
// scheduled reads whose connection was free at the due time. A request that found
// the connection busy waited for the server, not for the generator, and
// that wait is in its latency already.
func lateness(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.Idle && (s.Class == "rank" || s.Class == "topk") {
			out = append(out, ms(s.Sent.Sub(s.Due)))
		}
	}
	return out
}

func checkStatus(r reply, err error, want ...int) error {
	if err != nil {
		return err
	}
	for _, w := range want {
		if r.Status == w {
			return nil
		}
	}
	return fmt.Errorf("status %d: %s", r.Status, bytes.TrimSpace(r.Body))
}
