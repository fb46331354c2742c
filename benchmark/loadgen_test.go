package main

import (
	"math"
	"testing"
	"time"
)

// The percentile rule: a median always, and the highest of p90/p99/p99.9
// that still has at least ten samples beyond it.
func TestSummarizePercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return xs
	}
	cases := []struct {
		n       int
		tailPct float64
	}{
		{1, 0}, {50, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		xs := ramp(c.n)
		s := summarize(xs)
		if s.N != c.n || s.TailPct != c.tailPct {
			t.Errorf("n=%d: got n=%d tail p%v, want tail p%v", c.n, s.N, s.TailPct, c.tailPct)
		}
		if want := (float64(c.n) + 1) / 2; math.Abs(s.P50-want) > 1e-9 {
			t.Errorf("n=%d: median %v, want %v", c.n, s.P50, want)
		}
		if c.tailPct > 0 {
			beyond := 0
			for _, x := range xs {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond < 9 { // interpolation may land on a sample
				t.Errorf("n=%d: only %d samples beyond the p%v tail %v", c.n, beyond, s.TailPct, s.Tail)
			}
		}
	}
	xs := ramp(500)
	if got := tailAt(xs, 99); got != 0 {
		t.Errorf("p99 of 500 samples = %v, want 0 (the rule forbids it)", got)
	}
	xs = ramp(1000)
	if got := tailAt(xs, 99); math.Abs(got-990.01) > 1e-6 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", got)
	}
	if s := summarize(nil); s.N != 0 || s.P50 != 0 {
		t.Errorf("empty set: %+v", s)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the driver computes its spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// An open-loop sample is timed from its due time, not from its send.
func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Now()
	dues := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	ss := openLoop(t.Context(), start, dues, func(i int, due time.Time) sample {
		s := sample{Class: "rank", Sent: time.Now(), OK: true}
		if i == 0 {
			time.Sleep(10 * time.Millisecond) // a stall on the one connection
		}
		s.Done = time.Now()
		return s
	})
	if len(ss) != 3 {
		t.Fatalf("got %d samples, want 3", len(ss))
	}
	// The second request was due at 1 ms but could only be sent after the
	// stall: its latency includes the wait, and it is not counted as the
	// generator's own lateness.
	if ss[1].latency() < 8*time.Millisecond {
		t.Errorf("stalled request's latency %v does not include the stall", ss[1].latency())
	}
	if ss[1].Idle {
		t.Error("request that found the connection busy is marked idle")
	}
	if !ss[0].Idle {
		t.Error("first request should have found the connection idle")
	}
}
