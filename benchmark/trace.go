package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0 for a
// root). All spans are recorded by the harness, around the calls it makes:
// the program under test carries no tracing of its own yet.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory and writes them out when the run ends. A
// nil recorder records nothing, which is how untraced runs call the same
// code at no cost.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a root span and returns its ID.
func (r *recorder) add(name string, op int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Op: op, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// child attaches a probed duration to a parent span. Probes replay a batch
// after the window, so their wall-clock times lie outside the parent; the
// child is laid inside it instead, after the children already attached, and
// clipped to the parent's end — it can explain no more than the parent took.
func (r *recorder) child(parent int, name string, d time.Duration) int {
	if r == nil || parent <= 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	start := p.Start
	for _, s := range r.spans {
		if s.Parent == parent && s.End > start {
			start = s.End
		}
	}
	end := min(start+d.Nanoseconds(), p.End)
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: p.Op, Name: name, Start: start, End: end})
	return id
}

// name returns the name of a recorded span.
func (r *recorder) name(id int) string {
	if r == nil || id <= 0 {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].Name
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its children cover (overlapping children are counted once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, at := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// unexplainedShare is 1 − Σ children ÷ Σ parents over the root spans of the
// given name that have at least one child: the part of the operation no
// layer's probe accounts for.
func (r *recorder) unexplainedShare(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	hasKid := make(map[int]bool)
	for _, s := range r.spans {
		hasKid[s.Parent] = true
	}
	var total, unexplained time.Duration
	for _, s := range r.spans {
		if s.Parent == 0 && s.Name == name && hasKid[s.ID] {
			total += s.dur()
			unexplained += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(unexplained) / float64(total)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
