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

// StaticLF is the lock-free static PageRank (Algorithm 4): asynchronous
// Gauss–Seidel updates on a single shared rank vector, dynamic chunk
// scheduling with no iteration barrier, and per-vertex convergence flags.
func StaticLF(g *graph.CSR, cfg Config) Result {
	return runLF(context.Background(), vStatic, Input{GNew: g}, cfg, NewState(g, cfg))
}

// lfVectors returns a lock-free run's rank vector, a copy of prev (1/n
// everywhere when prev is nil), and its contribution cache, rank·ainv. One
// loop fills both with plain stores: no worker can reach them yet, so they
// need no fences (avec.F64Of).
func lfVectors(prev, ainv []float64) (rk, cb []float64) {
	n := len(ainv)
	rk, cb = make([]float64, n), make([]float64, n)
	if prev == nil {
		x := 1 / float64(n)
		for v, a := range ainv {
			rk[v], cb[v] = x, x*a
		}
		return rk, cb
	}
	prev = prev[:n]
	for v, a := range ainv {
		x := prev[v]
		rk[v], cb[v] = x, x*a
	}
	return rk, cb
}

func runLF(ctx context.Context, vr variant, in Input, cfg Config, st *State) Result {
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
	ainv, dinv := st.ainv, st.dinv

	// The run's own vectors: the rank vector it returns, and the shared
	// contribution cache contribs[v] = α·rank[v]/outdeg(v), updated
	// immediately before every rank store (so a reader never sees a
	// contribution staler than the rank it would have read instead).
	var prev []float64
	if vr != vStatic && len(in.Prev) == n {
		prev = in.Prev
	}
	rk, cb := lfVectors(prev, ainv)
	ranks, contribs := avec.F64Of(rk), avec.F64Of(cb)

	// RC[v]=1 ⇔ the rank of v has not converged yet. Static and ND variants
	// process every vertex, so everything starts not-converged. (The paper's
	// Algorithm 4 pseudocode initialises RC to zero, which would terminate
	// after one pass; following the published implementation we initialise
	// to one and also re-set the flag whenever Δr exceeds τ, so a vertex
	// disturbed after converging is never lost.)
	rc := avec.NewFlags(n)
	var va, checked, ex *avec.Flags
	var edges, del []graph.Edge
	if vr == vDT || vr == vDF {
		va = avec.NewFlags(n)
		checked = avec.NewFlags(n)
		// ex[v]=1 ⇔ this run has already walked out(v) into VA (see the
		// expansion in phase 2).
		if vr == vDF {
			ex = avec.NewFlags(n)
		}
		edges, del = batchEdges(in)
	} else {
		rc.SetAll()
	}

	inj := fault.NewInjector(cfg.Threads, cfg.Fault)
	rounds := sched.NewRoundsBounds(st.bounds)
	edgePool := sched.NewPool(len(edges), cfg.Chunk)
	stats := make([]padStats, cfg.Threads)
	var maxRound avec.Counter
	// settle is the first ticket whose completion may end the run: one
	// round of tickets handed out after the last chunk that moved a rank by
	// more than τ. RC alone is not enough when two workers sweep one chunk in
	// consecutive rounds (every pass, on a graph of at most Chunk vertices):
	// the trailing worker re-solves a vertex the leader has just moved, from
	// the same inputs, finds Δr = 0 and clears its RC while the out-neighbours
	// both have passed still hold values from before the move (DESIGN §2). A
	// ticket issued after a chunk's stores visits its chunk after them, a
	// round of such tickets covers every chunk, and a worker holding one
	// finishes it before it checks the rule itself.
	var settle avec.Counter

	// Cancellation: aborting the ticket stream makes every worker's next
	// ticket MaxUint64, whose round exceeds MaxIter and so exits the
	// round loop — no barrier to negotiate, workers simply stop taking work.
	// The helping loop of the marking phase checks the flag directly, as it
	// iterates the batch slice rather than a pool.
	var canceled atomic.Bool
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			canceled.Store(true)
			rounds.Abort()
			edgePool.Abort()
		})
		defer stop()
	}

	worker := func(w int) {
		mk := newMarker(vr, g, del, va, rc)
		// Phase 1 — initial marking with helping (lines 5-16 of Algorithm
		// 2). A first pass distributes batch edges dynamically; then each
		// worker re-scans the batch and processes any source a stalled peer
		// left unchecked. Marking is idempotent, so racing helpers are
		// harmless, and no worker enters phase 2 before every batch edge has
		// been checked by someone.
		if mk != nil {
			for {
				lo, hi, ok := edgePool.Next()
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					u := edges[i].U
					if !checked.Get(int(u)) {
						mk.markFrom(u)
						checked.Set(int(u))
					}
				}
			}
			for !canceled.Load() {
				clean := true
				for _, e := range edges {
					if !checked.Get(int(e.U)) {
						clean = false
						mk.markFrom(e.U)
						checked.Set(int(e.U))
					}
				}
				if clean {
					break
				}
			}
		}
		// Phase 2 — asynchronous rank computation (lines 17-31). Tickets
		// from the continuous round scheduler stand in for the `nowait`
		// dynamic loops: a worker finishing pass r flows straight into pass
		// r+1 while slower workers are still inside pass r. A DF vertex
		// whose Δr exceeds τ_f marks out(v) affected, once per run, on the
		// first such visit (see the expansion below).
		completed := uint64(0)
		st := &stats[w]
		// A run with fewer workers than the process has CPUs checks, once
		// per pass, that its thread is not time-slicing one CPU with another
		// process's worker while a second CPU idles (see sched.CPUWatch).
		cw := sched.WatchCPU(cfg.Threads)
		defer cw.Close()
		for {
			lo, hi, t := rounds.Next()
			round := rounds.Round(t)
			if round >= uint64(cfg.MaxIter) {
				break
			}
			if round != completed {
				cw.Tick()
			}
			st.blocks++
			if inj != nil && inj.AtChunk(w) {
				atomicMaxU64(&maxRound, completed)
				return
			}
			completed = round
			moved := false
			for v := lo; v < hi; v++ {
				// A DT/DF vertex is processed when it is affected, and VA
				// holds every vertex flagged not-converged. VA never shrinks.
				// The DT marker and the expansion set RC after VA. The DF
				// marker sets RC first, but only on a vertex outside VA,
				// and each vertex it reaches is in VA before any worker
				// passes the helping loop. A visit re-sets RC only on the
				// vertex it visited. Sorted-frontier scan: NextSet reloads
				// the words per call, so a single-threaded pass sees exactly
				// what probing VA per vertex would see.
				if va != nil {
					if v = va.NextSet(v, hi); v >= hi {
						break
					}
					st.frontier++
				}
				vv := uint32(v)
				nr := rankOfCachedAtomic(g, contribs, base, dinv[v], vv)
				old := ranks.Load(v)
				dr := math.Abs(nr - old)
				// The pair of stores is not atomic as a unit: two workers in
				// overlapping rounds can interleave on the same vertex and
				// leave rank from one and contrib from the other. Both values
				// are then within ~2τ of each other (each worker observed
				// dr ≤ τ before the flags could settle), so the mismatch is
				// the same tolerance-scale slop the paper's racy
				// single-vector reads already admit — bounded, not corrupt.
				contribs.Store(v, nr*ainv[v])
				ranks.Store(v, nr)
				// Frontier expansion (lines 26-28). VA is monotone, so
				// out(v) is walked once per run, the first time Δr crosses
				// τ_f: every neighbour it marked stays in VA and is visited
				// each pass regardless, and re-walking would only re-set RC
				// on neighbours that already settled within τ — the run
				// stops, like ND-LF and StaticLF, once every visited vertex
				// has Δr ≤ τ. ex[v] is set after the walk completes, so a
				// worker that crashes mid-walk leaves it clear and the
				// survivors treat v as a per-visit walk would (it stays in
				// VA and is walked the next time its Δr exceeds τ_f): the
				// hazard window of §4.4 is unchanged.
				if vr == vDF && dr > cfg.FrontierTol && !ex.Get(v) {
					st.expanded++
					// Probe before Set: already-marked neighbours are the
					// common case once a frontier is hot, and the probe keeps
					// the expansion read-only for them.
					for _, v2 := range g.Out(vv) {
						if !va.Get(int(v2)) {
							va.Set(int(v2))
						}
						if !rc.Get(int(v2)) {
							rc.Set(int(v2))
						}
					}
					ex.Set(v)
				}
				if dr <= cfg.Tol {
					rc.Clear(v)
				} else {
					rc.Set(v)
					moved = true
				}
				if inj != nil && inj.AfterVertex(w) {
					// Crash-stop: this worker simply stops. Its chunk's
					// vertices keep RC set, so survivors re-process them in
					// later rounds (§4.4).
					atomicMaxU64(&maxRound, completed)
					return
				}
			}
			if moved {
				atomicMaxU64(&settle, rounds.Issued()+rounds.ChunksPerRound()-1)
			}
			if rc.AllClear() && t >= settle.Load() {
				break
			}
		}
		atomicMaxU64(&maxRound, completed)
	}

	start := time.Now()
	sched.Run(cfg.Threads, worker)
	elapsed := time.Since(start)

	// sched.Run has joined every worker, so rk is read plainly from here.
	converged := rc.AllClear()
	res := Result{
		Ranks:      rk,
		Iterations: int(maxRound.Load()) + 1,
		Converged:  converged,
		Elapsed:    elapsed,
	}
	sumStats(stats, &res)
	if inj != nil {
		res.CrashedWorkers = inj.CrashedCount()
		if !converged && res.CrashedWorkers >= cfg.Threads {
			res.Err = ErrAllCrashed
		}
	}
	if canceled.Load() {
		// Cancellation wins even if the convergence flags happen to read
		// all-clear: a run aborted during the marking phase has clear flags
		// without having processed anything, so a canceled run's vector is
		// never trustworthy.
		res.Err = ErrCanceled
		res.Converged = false
	}
	return res
}
