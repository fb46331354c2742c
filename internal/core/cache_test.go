package core

import (
	"math"
	"testing"

	"dfpr/internal/batch"
)

// cacheFixture builds a mid-size update on an RMAT graph plus converged
// previous ranks, shared by every variant comparison.
func cacheFixture(t *testing.T) Input {
	t.Helper()
	scale := 10
	if testing.Short() {
		scale = 8
	}
	d := randomGraph(scale, 77)
	g := d.Snapshot()
	prev := StaticBB(g, testCfg()).Ranks
	up := batch.Random(d, 24, 5)
	return Input{GNew: batch.Transition(d, up), Del: up.Del, Ins: up.Ins, Prev: prev}
}

func linf(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestCachedKernelConvergesToReference is the end-to-end guard: the cached
// engines, multi-threaded and edge-balanced, converge to the high-precision
// reference on a converged run. Reference iterates the uncached plain
// update synchronously, so it shares neither the contribution cache nor the
// lock-free kernels' self-loop solve with the engines it checks.
func TestCachedKernelConvergesToReference(t *testing.T) {
	in := cacheFixture(t)
	ref := Reference(in.GNew, Config{})
	cfg := testCfg()
	for _, a := range Algos {
		res := Run(a, in, cfg)
		if res.Err != nil {
			t.Fatalf("%v: %v", a, res.Err)
		}
		if !res.Converged {
			t.Errorf("%v: did not converge", a)
		}
		if d := linf(res.Ranks, ref); d > 1e-6 {
			t.Errorf("%v: L∞ vs reference = %g", a, d)
		}
	}
}
