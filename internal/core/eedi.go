package core

import (
	"errors"
	"math"
	"runtime"
	"time"

	"dfpr/internal/avec"
	"dfpr/internal/fault"
	"dfpr/internal/graph"
	"dfpr/internal/sched"
)

// ErrStarvedRange is returned by StaticLFNS when a worker crashed and its
// statically-owned vertex range therefore never converged: without dynamic
// work distribution no surviving worker ever picks the range up, which is
// precisely the fault-tolerance gap the paper's StaticLF closes.
var ErrStarvedRange = errors.New("core: crashed worker's static range was never adopted; ranks did not converge")

// StaticLFNS is the No-Sync lock-free static PageRank of Eedi et al.
// [IJPP 2022], the prior art the paper's StaticLF improves on (§3.3.2):
// asynchronous in-place updates with *static* scheduling — each worker owns
// a fixed contiguous slice of the vertex space and iterates over it without
// barriers until every vertex in the graph has converged.
//
// Against StaticLF this differs in exactly one dimension — static vs
// dynamic work distribution — which makes it the right baseline for the
// paper's claim that dynamic chunking is ~14% faster in the fault-free
// case. It is also the negative exhibit for fault tolerance: a crashed
// worker's range is owned by nobody else, so the remaining workers spin
// until MaxIter without converging (the paper: static scheduling would
// "requir[e] additional machinery to be fault-tolerant").
func StaticLFNS(g *graph.CSR, cfg Config) Result {
	cfg = cfg.withDefaults()
	n := g.N()
	if n == 0 {
		return Result{Converged: true}
	}
	base := (1 - cfg.Alpha) / float64(n)
	ainv, dinv := kernelFactors(g, cfg.Alpha)
	rk, cb := lfVectors(nil, ainv)
	ranks, contribs := avec.F64Of(rk), avec.F64Of(cb)
	rc := avec.NewFlags(n)
	rc.SetAll()
	ranges := sched.StaticRanges(n, cfg.Threads)
	inj := fault.NewInjector(cfg.Threads, cfg.Fault)
	var maxRound, standby, done, version, quit avec.Counter
	verified := make([]avec.Counter, cfg.Threads)

	// Termination uses an epoch-validated quiescence protocol rather than a
	// bare all-converged check. A bare check is doubly racy without
	// barriers: (a) a preempted worker can hold an unpublished rank change
	// while everyone else observes all-converged and leaves, and (b) the
	// "a flag reappeared" wake-up signal is transient — a worker parked by
	// the OS can sleep through a peer's entire change-then-reconverge burst
	// and never see it. Both freeze a stale range forever (reproducible on
	// a time-sliced single core).
	//
	// The cure: `version` counts every pass that moved some rank beyond τ
	// (monotone — signals cannot be missed), and each worker records the
	// version its latest no-change verification pass ran against. A worker
	// that verified at version V with all flags clear enters standby; the
	// arrival that brings standby to full strength declares completion only
	// if every worker's recorded version equals its own — i.e. every range
	// has been re-verified against the final values. Otherwise it backs out
	// and re-verifies; stale waiters notice the version advance and do the
	// same. The protocol never blocks (waiters spin with Gosched), and a
	// crashed worker simply never reaches standby, so survivors exhaust
	// their idle budget and report the starvation instead of hanging.
	//
	// A crashed peer and a runnable peer still waiting for a processor look
	// the same from here — no version advance, flags or standby short of
	// consensus — and a no-change pass over one worker's range takes
	// microseconds, so MaxIter of them can go by before a descheduled peer
	// runs again. The idle budget therefore only counts once the version
	// has also stood still for starveGrace of wall-clock time.
	const starveGrace = 50 * time.Millisecond
	worker := func(w int) {
		r := ranges[w]
		round, idle := 0, 0
		seen, seenAt := version.Load(), time.Now()
		for {
			// The crash point is checked before the exit conditions so a
			// worker whose crash is due is counted even when it is first
			// scheduled after its peers have already given up on it.
			if inj != nil && inj.AtChunk(w) {
				atomicMaxU64(&maxRound, uint64(round))
				return
			}
			v0 := version.Load()
			if v0 != seen {
				seen, seenAt = v0, time.Now()
			}
			if round >= cfg.MaxIter || (idle >= cfg.MaxIter && time.Since(seenAt) >= starveGrace) {
				// Budget exhausted: pull everyone out. Leaving silently
				// would let the remaining workers reach a bogus consensus
				// that never covers this worker's range again.
				quit.Store(1)
				return
			}
			if done.Load() != 0 || quit.Load() != 0 {
				return
			}
			useful := false
			for v := r.Lo; v < r.Hi; v++ {
				nr := rankOfCachedAtomic(g, contribs, base, dinv[v], uint32(v))
				old := ranks.Load(v)
				dr := math.Abs(nr - old)
				if dr > cfg.Tol {
					// Announce before publishing so no observer can see the
					// all-clear state while this change is in flight.
					rc.Set(v)
					useful = true
					contribs.Store(v, nr*ainv[v])
					ranks.Store(v, nr)
				} else {
					contribs.Store(v, nr*ainv[v])
					ranks.Store(v, nr)
					rc.Clear(v)
				}
				if inj != nil && inj.AfterVertex(w) {
					atomicMaxU64(&maxRound, uint64(round))
					return
				}
			}
			atomicMaxU64(&maxRound, uint64(round))
			if useful {
				version.Add(1)
				round++
				idle = 0
				// Yield between passes. With true parallelism this is free;
				// under time-slicing it recreates the lockstep interleaving
				// the real algorithm gets from hardware threads — without
				// it each worker converges its whole block against frozen
				// neighbour blocks before the next block runs at all, which
				// is the slow "multiplicative block" mode.
				runtime.Gosched()
				continue
			}
			idle++
			if version.Load() != v0 || !rc.AllClear() {
				// Someone changed state during or since this verification —
				// it proves nothing; go around again.
				runtime.Gosched()
				continue
			}
			// Clean verification at epoch v0: enter standby.
			verified[w].Store(v0)
			if standby.Add(1) == uint64(cfg.Threads) {
				agree := true
				for i := range verified {
					if verified[i].Load() != v0 {
						agree = false
						break
					}
				}
				if agree {
					// Full strength at one epoch: nobody is mid-pass, no
					// write is pending, every range verified against the
					// final values — a genuine fixed point.
					done.Store(1)
					return
				}
				standby.Add(^uint64(0))
				// A disagreement means some waiter verified an older epoch;
				// yield so it gets scheduled, notices the version advance,
				// and re-verifies — otherwise this worker can spin through
				// its whole idle budget before the waiter ever runs.
				runtime.Gosched()
				continue
			}
			// Wait for consensus, a newer epoch, or a reappearing flag. The
			// spin is bounded so a crashed peer (which never reaches
			// standby) cannot strand the survivors.
			for spins := 0; done.Load() == 0 && quit.Load() == 0 && spins < 1<<16; spins++ {
				if version.Load() != v0 || !rc.AllClear() {
					break
				}
				runtime.Gosched()
			}
			if done.Load() != 0 {
				return
			}
			standby.Add(^uint64(0)) // leave standby, resume passes
		}
	}

	start := time.Now()
	sched.Run(cfg.Threads, worker)
	elapsed := time.Since(start)

	// Converged means certified by the quiescence consensus — an AllClear
	// observation alone can be a transient artefact of a worker that left
	// early (see the protocol comment above).
	converged := done.Load() != 0
	res := Result{
		Ranks:      rk, // sched.Run has joined every worker
		Iterations: int(maxRound.Load()) + 1,
		Converged:  converged,
		Elapsed:    elapsed,
	}
	if inj != nil {
		res.CrashedWorkers = inj.CrashedCount()
		if !converged && res.CrashedWorkers > 0 {
			res.Err = ErrStarvedRange
		}
	}
	return res
}
