package core

import (
	"errors"
	"testing"

	"dfpr/internal/fault"
	"dfpr/internal/topk"
)

func TestStaticLFNSMatchesReference(t *testing.T) {
	g := randomGraph(9, 71).Snapshot()
	ref := Reference(g, Config{})
	cfg := testCfg()
	// Static ranges have no lockstep: when workers time-slice fewer cores
	// than there are ranges, each converges its block against frozen
	// neighbour blocks, and that block iteration needs far more (cheap)
	// passes than the 500 a lockstep run fits in.
	cfg.MaxIter = 1 << 14
	res := StaticLFNS(g, cfg)
	if !res.Converged || res.Err != nil {
		t.Fatalf("converged=%v err=%v", res.Converged, res.Err)
	}
	if e := topk.LInf(res.Ranks, ref); e > 1e-8 {
		t.Errorf("error %g", e)
	}
}

func TestStaticLFNSEmptyAndSingleThread(t *testing.T) {
	empty := randomGraph(0, 1)
	_ = empty
	cfg := testCfg()
	cfg.Threads = 1
	g := randomGraph(7, 72).Snapshot()
	res := StaticLFNS(g, cfg)
	if !res.Converged {
		t.Error("single-threaded run did not converge")
	}
}

func TestStaticLFNSStarvesOnCrash(t *testing.T) {
	// The defining weakness of static scheduling: crash a worker and its
	// range is never adopted, so the run must NOT converge.
	g := randomGraph(9, 73).Snapshot()
	cfg := testCfg()
	cfg.MaxIter = 30 // keep the spin bounded
	cfg.Fault = fault.Plan{CrashWorkers: fault.CrashSet(1, cfg.Threads), Seed: 2}
	res := StaticLFNS(g, cfg)
	if res.Converged {
		t.Fatal("StaticLFNS converged despite a starved range")
	}
	if !errors.Is(res.Err, ErrStarvedRange) {
		t.Errorf("err = %v, want ErrStarvedRange", res.Err)
	}
	// And the dynamic-scheduled StaticLF on the same plan must converge —
	// the exact contrast the paper draws. (Full iteration budget: the 30
	// above only bounds the starved spin.)
	lfCfg := testCfg()
	lfCfg.Fault = cfg.Fault
	lf := StaticLF(g, lfCfg)
	if !lf.Converged || lf.Err != nil {
		t.Errorf("StaticLF under the same crash: converged=%v err=%v", lf.Converged, lf.Err)
	}
}
