package core

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"dfpr/internal/avec"
	"dfpr/internal/fault"
	"dfpr/internal/graph"
	"dfpr/internal/sched"
)

// variant identifies which dynamic-update strategy an engine run uses.
type variant int

const (
	vStatic variant = iota // full recomputation from uniform ranks
	vND                    // Naive-dynamic: warm-start from previous ranks
	vDT                    // Dynamic Traversal: affected = reachable set
	vDF                    // Dynamic Frontier: affected = incremental frontier
)

// StaticBB is the standard barrier-based parallel PageRank (Algorithm 3):
// synchronous Jacobi iterations over all vertices with an iteration barrier.
func StaticBB(g *graph.CSR, cfg Config) Result {
	return runBB(context.Background(), vStatic, Input{GNew: g}, cfg)
}

// bbShared is the cross-worker state of a barrier-based run. Fields are
// written by worker 0 between the two iteration barriers and read by every
// worker after the second barrier; the barrier's internal mutex provides the
// happens-before edges. contrib/contribNew mirror r/rNew under the cache
// invariant contrib[v] = α·r[v]/outdeg(v) (see kernel.go) and are swapped
// together with them.
type bbShared struct {
	r, rNew             []float64
	contrib, contribNew []float64
	iter                int
	stop                bool
	converged           bool
	canceled            bool
}

// pad64 is a cache-line padded float64 slot for per-worker reductions.
type pad64 struct {
	v float64
	_ [7]uint64
}

// padStats is a cache-line padded per-worker tally of sweep instrumentation
// (chunks fetched, frontier vertices located by flag scan, out-edge walks of
// the DF-LF expansion). Workers own one slot each and the totals are summed
// after the run joins, so the hot loop pays plain increments, never atomics.
type padStats struct {
	blocks   int64
	frontier int64
	expanded int64
	_        [5]uint64
}

// sumStats folds the per-worker tallies into a Result.
func sumStats(stats []padStats, res *Result) {
	for i := range stats {
		res.SweepBlocks += stats[i].blocks
		res.FrontierScanned += stats[i].frontier
		res.FrontierExpanded += stats[i].expanded
	}
}

func runBB(ctx context.Context, vr variant, in Input, cfg Config) Result {
	cfg = cfg.withDefaults()
	g := in.GNew
	n := g.N()
	if n == 0 {
		return Result{Converged: true}
	}
	if ctx.Err() != nil {
		return Result{Err: ErrCanceled}
	}
	base := (1 - cfg.Alpha) / float64(n)

	// The barrier-based kernel keeps the plain update: solving the self-loop
	// pays only in Gauss–Seidel (DESIGN §2), so it leaves dinv unused.
	ainv, _ := kernelFactors(g, cfg.Alpha)

	var init []float64
	if vr != vStatic && len(in.Prev) == n {
		init = in.Prev
	} else {
		init = uniformRanks(n)
	}
	// Both contribution vectors start consistent with init: frontier variants
	// skip unaffected vertices, whose slots must stay valid across swaps —
	// exactly as the rank vectors themselves are both initialised from init.
	cb := make([]float64, n)
	for v := range cb {
		cb[v] = init[v] * ainv[v]
	}
	sh := &bbShared{
		r:          append([]float64(nil), init...),
		rNew:       append([]float64(nil), init...),
		contrib:    cb,
		contribNew: append([]float64(nil), cb...),
	}

	var va *avec.Flags
	var edges, del []graph.Edge
	if vr == vDT || vr == vDF {
		va = avec.NewFlags(n)
		edges, del = batchEdges(in)
	}

	inj := fault.NewInjector(cfg.Threads, cfg.Fault)
	bar := sched.NewBarrier(cfg.Threads)
	pool := sched.NewPoolBounds(vertexBounds(g, cfg.Chunk))
	edgePool := sched.NewPool(len(edges), cfg.Chunk)
	localMax := make([]pad64, cfg.Threads)
	stats := make([]padStats, cfg.Threads)

	// Cancellation: an AfterFunc flips the flag and aborts the chunk pools,
	// so in-pass workers stop at their next chunk fetch instead of finishing
	// the iteration. Workers still meet at both barriers (aborted pools make
	// that cheap), and worker 0 turns the flag into a coordinated stop — the
	// one place the barrier-based protocol can terminate without deadlock.
	var canceled atomic.Bool
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			canceled.Store(true)
			pool.Abort()
			edgePool.Abort()
		})
		defer stop()
	}

	worker := func(w int) {
		mk := newMarker(vr, g, del, va, nil)
		// Initial affected marking (lines 4-7 of Algorithms 1 and 7): batch
		// edges are distributed dynamically, then an implicit barrier.
		if mk != nil {
			for {
				lo, hi, ok := edgePool.Next()
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					mk.markFrom(edges[i].U)
				}
			}
			if bar.Await(w) != nil {
				return
			}
		}
		for {
			// Crash point at the iteration boundary: a worker whose crash
			// moment has arrived may find the chunk pool already drained by
			// faster workers, so the per-chunk check alone could let it
			// survive the whole run.
			if inj != nil && inj.AtChunk(w) {
				bar.Crash()
				return
			}
			r, rNew := sh.r, sh.rNew
			cb, cbNew := sh.contrib, sh.contribNew
			st := &stats[w]
			var lmax float64
			for {
				lo, hi, ok := pool.Next()
				if !ok {
					break
				}
				st.blocks++
				if inj != nil && inj.AtChunk(w) {
					bar.Crash()
					return
				}
				for v := lo; v < hi; v++ {
					// The affected frontier is visited in sorted order with
					// a word-at-a-time scan: NextSet re-reads the flags on
					// every call, so the visit sequence is exactly that of a
					// Get probe per vertex — the DF mid-pass marking (va.Set
					// below) is observed at the same points.
					if va != nil {
						if v = va.NextSet(v, hi); v >= hi {
							break
						}
						st.frontier++
					}
					vv := uint32(v)
					nr := rankOfCached(g, cb, base, vv)
					dr := math.Abs(nr - r[v])
					rNew[v] = nr
					cbNew[v] = nr * ainv[v]
					if dr > lmax {
						lmax = dr
					}
					if vr == vDF && dr > cfg.FrontierTol {
						for _, v2 := range g.Out(vv) {
							va.Set(int(v2))
						}
					}
					if inj != nil && inj.AfterVertex(w) {
						bar.Crash()
						return
					}
				}
			}
			localMax[w].v = lmax
			// Barrier 1: all ranks for this iteration are computed.
			if bar.Await(w) != nil {
				return
			}
			if w == 0 {
				// L∞ reduction, swap, convergence decision (lines 19-22 of
				// Algorithm 1). Worker 0 is always alive here: had it
				// crashed, the barrier above would have broken.
				if canceled.Load() {
					// A canceled pass may be partial (the pool was aborted
					// mid-iteration), so neither the reduction nor the rank
					// vector can be trusted — stop without claiming
					// convergence.
					sh.canceled = true
					sh.stop = true
				} else {
					dR := 0.0
					for i := range localMax {
						if localMax[i].v > dR {
							dR = localMax[i].v
						}
					}
					sh.r, sh.rNew = sh.rNew, sh.r
					sh.contrib, sh.contribNew = sh.contribNew, sh.contrib
					sh.iter++
					sh.converged = dR <= cfg.Tol
					sh.stop = sh.converged || sh.iter >= cfg.MaxIter
					pool.Reset()
				}
			}
			// Barrier 2: reduction visible to everyone before the next pass.
			if bar.Await(w) != nil {
				return
			}
			if sh.stop {
				return
			}
		}
	}

	start := time.Now()
	sched.Run(cfg.Threads, worker)
	elapsed := time.Since(start)

	res := Result{
		Ranks:       sh.r,
		Iterations:  sh.iter,
		Converged:   sh.converged && !bar.Broken(),
		Elapsed:     elapsed,
		BarrierWait: bar.TotalWait(),
	}
	sumStats(stats, &res)
	if inj != nil {
		res.CrashedWorkers = inj.CrashedCount()
	}
	if bar.Broken() {
		res.Err = sched.ErrBroken
		res.Converged = false
	}
	if sh.canceled {
		res.Err = ErrCanceled
		res.Converged = false
	}
	return res
}
