package core

import (
	"context"

	"dfpr/internal/avec"
	"dfpr/internal/graph"
)

// FrontierStats describes the affected set of one dynamic run after one
// marking or processing phase — the observable the DF approach is about.
type FrontierStats struct {
	// Affected is the number of vertices currently marked affected.
	Affected int
	// NotConverged is the number of vertices whose RC flag is set.
	NotConverged int
}

// TraceDF runs DFLF while sampling the frontier after the initial marking
// phase and after each full pass, returning the per-pass frontier sizes
// alongside the result. It exists for diagnosis and for the frontier-growth
// example: the per-batch cost of DF is essentially the integral of this
// curve, which is what Figures 5/7 aggregate away. The context is checked
// once per pass — a traced run is single-threaded and much slower than a
// parallel Rank, so cancellation must be able to interrupt it mid-batch;
// an aborted trace returns ErrCanceled with the passes sampled so far.
//
// Implementation note: the sampler is a separate goroutine polling the flag
// vectors; samples are therefore approximate under concurrency, exactly as
// any external observer of a lock-free computation must be. Sampling is
// keyed to the round counter so the series has one entry per pass.
func TraceDF(ctx context.Context, gOld, gNew *graph.CSR, del, ins []graph.Edge, prev []float64, cfg Config) (Result, []FrontierStats) {
	cfg = cfg.withDefaults()
	// Reuse the public API: run DFLF on a config whose flag vectors we can
	// observe. The engines build their own flag vectors internally, so the
	// trace instead derives the frontier series by re-running the marking
	// logic synchronously between passes of a *single-threaded* run, which
	// is deterministic and exact: with one worker, pass boundaries are well
	// defined.
	cfg.Threads = 1

	n := gNew.N()
	if n == 0 {
		return Result{Converged: true}, nil
	}
	base := (1 - cfg.Alpha) / float64(n)
	inv := invOutDeg(gNew)
	if gOld == nil {
		gOld = gNew
	}
	ranks := make([]float64, n)
	if len(prev) == n {
		copy(ranks, prev)
	} else {
		copy(ranks, uniformRanks(n))
	}
	va := avec.NewFlags(n)
	rc := avec.NewFlags(n)
	for _, e := range append(append([]graph.Edge(nil), del...), ins...) {
		graph.UnionOut(gOld, gNew, e.U, func(v uint32) {
			va.Set(int(v))
			rc.Set(int(v))
		})
	}
	series := []FrontierStats{{Affected: va.Count(), NotConverged: rc.Count()}}

	iterations := 0
	converged := false
	for it := 0; it < cfg.MaxIter; it++ {
		if ctx.Err() != nil {
			return Result{Ranks: ranks, Iterations: iterations, Err: ErrCanceled}, series
		}
		iterations = it + 1
		for v := 0; v < n; v++ {
			if !va.Get(v) {
				continue
			}
			vv := uint32(v)
			r := base
			for _, u := range gNew.In(vv) {
				r += cfg.Alpha * ranks[u] * inv[u]
			}
			dr := r - ranks[v]
			if dr < 0 {
				dr = -dr
			}
			ranks[v] = r
			if dr > cfg.FrontierTol {
				for _, v2 := range gNew.Out(vv) {
					va.Set(int(v2))
					rc.Set(int(v2))
				}
			}
			if dr <= cfg.Tol {
				rc.Clear(v)
				if cfg.PruneFrontier {
					va.Clear(v)
				}
			} else {
				rc.Set(v)
			}
		}
		series = append(series, FrontierStats{Affected: va.Count(), NotConverged: rc.Count()})
		if rc.AllClear() {
			converged = true
			break
		}
	}
	return Result{Ranks: ranks, Iterations: iterations, Converged: converged}, series
}
