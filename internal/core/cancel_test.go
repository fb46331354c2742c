package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/fault"
	"dfpr/internal/gen"
)

// cancelCase builds an input whose run cannot end on its own within the
// test's window: an effectively-zero tolerance, an unbounded iteration
// budget, and injected thread delays that keep every pass multi-millisecond
// (without them a small graph reaches its exact floating-point fixpoint —
// dR == 0 — in a few milliseconds), so only the context ends the run.
func cancelCase(t *testing.T) (Input, Config) {
	t.Helper()
	d := gen.RMAT(12, 12, 5)
	d.EnsureSelfLoops()
	gOld := d.Snapshot()
	prev := StaticBB(gOld, Config{Threads: 4}).Ranks
	up := batch.Random(d, 64, 9)
	gNew := batch.Transition(d, up)
	in := Input{GNew: gNew, Del: up.Del, Ins: up.Ins, Prev: prev}
	cfg := Config{
		Threads: 4, Tol: 1e-300, MaxIter: 1 << 30,
		Fault: fault.Plan{DelayProb: 5e-4, DelayDur: time.Millisecond, Seed: 1},
	}
	return in, cfg
}

func TestRunCtxPreCanceled(t *testing.T) {
	in, cfg := cancelCase(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range Algos {
		res := RunCtx(ctx, a, in, cfg)
		if !errors.Is(res.Err, ErrCanceled) {
			t.Errorf("%v: pre-canceled ctx: err = %v, want ErrCanceled", a, res.Err)
		}
		if res.Converged {
			t.Errorf("%v: pre-canceled ctx claimed convergence", a)
		}
	}
}

func TestRunCtxCancelMidRun(t *testing.T) {
	in, cfg := cancelCase(t)
	for _, a := range []Algo{AlgoDFBB, AlgoDFLF, AlgoStaticBB, AlgoStaticLF} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		res := RunCtx(ctx, a, in, cfg)
		took := time.Since(start)
		cancel()
		if !errors.Is(res.Err, ErrCanceled) {
			t.Errorf("%v: err = %v, want ErrCanceled", a, res.Err)
		}
		if res.Converged {
			t.Errorf("%v: canceled run claimed convergence", a)
		}
		// The run would spin forever without the cancel; well under a
		// second proves workers stopped at the next chunk boundary rather
		// than finishing passes.
		if took > 5*time.Second {
			t.Errorf("%v: cancellation took %v", a, took)
		}
	}
}

func TestRunCtxDeadline(t *testing.T) {
	in, cfg := cancelCase(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res := RunCtx(ctx, AlgoDFLF, in, cfg)
	if !errors.Is(res.Err, ErrCanceled) {
		t.Errorf("deadline: err = %v, want ErrCanceled", res.Err)
	}
}

func TestRunCtxBackgroundUnaffected(t *testing.T) {
	d := gen.RMAT(9, 6, 3)
	d.EnsureSelfLoops()
	g := d.Snapshot()
	cfg := Config{Threads: 4, Tol: 1e-3 / float64(g.N())}
	res := RunCtx(context.Background(), AlgoStaticLF, Input{GNew: g}, cfg)
	if res.Err != nil || !res.Converged {
		t.Fatalf("background ctx: converged=%v err=%v", res.Converged, res.Err)
	}
}
