package core

import (
	"errors"
	"testing"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/fault"
	"dfpr/internal/sched"
	"dfpr/internal/topk"
)

// faultInput builds a graph + batch + previous ranks for fault experiments.
func faultInput(t *testing.T) Input {
	t.Helper()
	d := randomGraph(9, 13)
	gOld := d.Snapshot()
	prev := StaticBB(gOld, testCfg()).Ranks
	up := batch.Random(d, 64, 99)
	gNew := batch.Transition(d, up)
	return Input{GNew: gNew, Del: up.Del, Ins: up.Ins, Prev: prev}
}

func TestDFLFConvergesUnderRandomDelays(t *testing.T) {
	in := faultInput(t)
	ref := Reference(in.GNew, Config{})
	cfg := testCfg()
	cfg.Fault = fault.Plan{DelayProb: 1e-3, DelayDur: 200 * time.Microsecond, Seed: 1}
	res := Run(AlgoDFLF, in, cfg)
	if !res.Converged || res.Err != nil {
		t.Fatalf("converged=%v err=%v", res.Converged, res.Err)
	}
	if e := topk.LInf(res.Ranks, ref); e > 1e-8 {
		t.Errorf("error under delays: %g", e)
	}
}

func TestDFLFConvergesWithCrashedWorkers(t *testing.T) {
	in := faultInput(t)
	ref := Reference(in.GNew, Config{})
	for _, crashed := range []int{1, 2, 3} {
		cfg := testCfg() // 4 threads
		// CrashHorizon 0: designated workers crash at their first work chunk,
		// which stays deterministic even when the Go scheduler serialises
		// workers (single-core hosts).
		cfg.Fault = fault.Plan{CrashWorkers: fault.CrashSet(crashed, cfg.Threads), Seed: int64(crashed)}
		res := Run(AlgoDFLF, in, cfg)
		if !res.Converged || res.Err != nil {
			t.Fatalf("crashed=%d: converged=%v err=%v", crashed, res.Converged, res.Err)
		}
		if res.CrashedWorkers != crashed {
			t.Errorf("crashed=%d: injector reports %d", crashed, res.CrashedWorkers)
		}
		if e := topk.LInf(res.Ranks, ref); e > 1e-8 {
			t.Errorf("crashed=%d: error %g", crashed, e)
		}
	}
}

func TestLFVariantsSurviveCrashes(t *testing.T) {
	in := faultInput(t)
	ref := Reference(in.GNew, Config{})
	for _, a := range []Algo{AlgoStaticLF, AlgoNDLF, AlgoDTLF} {
		cfg := testCfg()
		cfg.Fault = fault.Plan{CrashWorkers: fault.CrashSet(2, cfg.Threads), Seed: 7}
		res := Run(a, in, cfg)
		if !res.Converged || res.Err != nil {
			t.Fatalf("%v: converged=%v err=%v", a, res.Converged, res.Err)
		}
		if e := topk.LInf(res.Ranks, ref); e > 1e-8 {
			t.Errorf("%v: error %g", a, e)
		}
	}
}

func TestBBVariantsDeadlockOnCrash(t *testing.T) {
	in := faultInput(t)
	for _, a := range []Algo{AlgoStaticBB, AlgoNDBB, AlgoDFBB} {
		cfg := testCfg()
		cfg.Fault = fault.Plan{CrashWorkers: fault.CrashSet(1, cfg.Threads), Seed: 3}
		res := Run(a, in, cfg)
		if !errors.Is(res.Err, sched.ErrBroken) {
			t.Errorf("%v with a crashed worker: err=%v, want ErrBroken", a, res.Err)
		}
		if res.Converged {
			t.Errorf("%v reported convergence despite crash", a)
		}
	}
}

func TestAllWorkersCrashedReportsError(t *testing.T) {
	in := faultInput(t)
	cfg := testCfg()
	cfg.Fault = fault.Plan{CrashWorkers: fault.CrashSet(cfg.Threads, cfg.Threads), Seed: 5}
	res := Run(AlgoDFLF, in, cfg)
	if !errors.Is(res.Err, ErrAllCrashed) {
		t.Fatalf("err=%v, want ErrAllCrashed", res.Err)
	}
}

func TestDelaysSlowDFBBMoreThanDFLF(t *testing.T) {
	// The headline fault claim (Figure 8): delayed threads stall DFBB at
	// barriers while DFLF keeps making progress. With a delay that fires on
	// nearly every chunk, DFBB serialises on the sleeping straggler each
	// iteration whereas DFLF's survivors take over the work.
	if testing.Short() {
		t.Skip("timing-sensitive comparison")
	}
	in := faultInput(t)
	mk := func(a Algo) time.Duration {
		cfg := testCfg()
		cfg.Fault = fault.Plan{DelayProb: 2e-3, DelayDur: 2 * time.Millisecond, Seed: 11}
		res := Run(a, in, cfg)
		if res.Err != nil || !res.Converged {
			t.Fatalf("%v: converged=%v err=%v", a, res.Converged, res.Err)
		}
		return res.Elapsed
	}
	bb, lf := mk(AlgoDFBB), mk(AlgoDFLF)
	// Generous threshold: require only that LF is not dramatically slower;
	// the quantitative gap is measured by the fig8 bench, not asserted here
	// (CI machines have noisy clocks).
	if lf > 3*bb {
		t.Errorf("DFLF (%v) much slower than DFBB (%v) under delays", lf, bb)
	}
}

func TestBarrierWaitAccounted(t *testing.T) {
	g := randomGraph(9, 17).Snapshot()
	cfg := testCfg()
	cfg.Threads = 4
	res := StaticBB(g, cfg)
	if !res.Converged {
		t.Fatal("static run did not converge")
	}
	if res.BarrierWait <= 0 {
		t.Error("expected nonzero cumulative barrier wait on a multi-threaded BB run")
	}
	lf := StaticLF(g, cfg)
	if lf.BarrierWait != 0 {
		t.Errorf("lock-free run reports barrier wait %v", lf.BarrierWait)
	}
}
