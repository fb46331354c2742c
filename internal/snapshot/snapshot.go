// Package snapshot provides the dynamic-graph snapshot store the paper's
// execution model assumes (§3.4): graph updates arrive in batches and are
// interleaved with algorithm executions, which therefore need *read-only
// snapshots* of the graph. A Store serialises writers and publishes
// immutable versions lock-free to readers; a Ranker subscribes to a store
// and keeps a PageRank vector current by replaying the update history with
// DF-LF, the paper's lock-free Dynamic Frontier (Alg. 2). A store serves
// one ranker and folds every batch it publishes into one pending span, the
// merged batch of everything that ranker has not replayed, so however far
// it lags it catches up by one replay whose cost is the span's distinct
// edits. ResumeRanker builds a ranker, unranked or at a checkpointed
// vector, and Refresh is the one way its ranks move. Every run the package
// starts is lock-free: the cold run (the first convergence) is StaticLF
// (Alg. 4), so a crash-stopped worker anywhere is outlived by the others
// (§4.4), never waited for at a barrier.
//
// This is the composition layer a downstream user actually deploys: the
// core package answers "how do I update ranks for one batch", this package
// answers "how do I keep ranks fresh while the graph keeps changing".
package snapshot

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/fault"
	"dfpr/internal/graph"
)

// Version is one immutable published state of the graph: its sequence
// number and the graph snapshot it produced. Seq increases by one per
// applied batch. Each row block of the CSR lives exactly as long as
// something holds a *Version whose CSR includes it: the store as Current(),
// a view, or a ranker positioned on it. Consecutive versions share every
// block their batch did not touch, so a retained version costs the blocks
// its batch rebuilt and two block tables, not a graph.
type Version struct {
	Seq uint64
	G   *graph.CSR
}

// Store is a single-writer multi-reader dynamic-graph store. Writers call
// Apply (serialised internally); readers call Current, which never blocks —
// it is one atomic pointer load, so rank computations always see a
// consistent frozen graph no matter how many updates land meanwhile.
type Store struct {
	mu  sync.Mutex
	d   *graph.Dynamic
	cur atomic.Value // *Version
	// ranked is set once a Ranker serves the store; from then on pending
	// holds every batch published since the ranker last took the span.
	ranked  bool
	pending batch.Merger
}

// NewStore seals the dynamic graph (self-loops ensured) as version 0. The
// store takes ownership of d; callers must not mutate it afterwards.
// keepHistory is unused: the store keeps no history, only the pending span
// of its ranker. It stays until the benchmark's probe stops passing it.
func NewStore(d *graph.Dynamic, keepHistory int) *Store {
	return NewStoreAt(d, 0)
}

// NewStoreAt is NewStore sealing the graph as version seq instead of 0 —
// the warm-restart constructor: an engine recovering from a checkpoint
// rebuilds its store at the checkpoint's sequence so replayed WAL records
// and fresh writes continue the original version numbering.
func NewStoreAt(d *graph.Dynamic, seq uint64) *Store {
	d.EnsureSelfLoops()
	s := &Store{d: d}
	s.cur.Store(&Version{Seq: seq, G: d.Snapshot()})
	return s
}

// Current returns the latest published version without blocking.
func (s *Store) Current() *Version {
	return s.cur.Load().(*Version)
}

// Apply applies a batch update and publishes the resulting version,
// returning the (previous, new) pair. The vertex universe grows first when
// the batch requires it (Update.N, or an edge naming a vertex beyond the
// current universe); self-loops are re-ensured, matching the experiment
// protocol (§5.1.4) and seeding every grown vertex's dead-end loop.
// Concurrent writers are serialised.
func (s *Store) Apply(up batch.Update) (prev, next *Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev = s.Current()
	return s.applyLocked(up, prev.Seq+1)
}

// ApplyAt is Apply publishing the resulting version at the given sequence
// number instead of prev.Seq+1. It exists for warm restart: recovery folds
// the whole replayed WAL tail into ONE store application — one snapshot
// materialisation instead of one per record, which is what makes restart
// cost independent of tail length — and lands it at the tail's tip sequence
// so fresh writes continue the logged numbering. The merged batch joins the
// pending span, so a ranker resuming from the base version refreshes over
// it exactly as it would over a coalesced span. seq must
// exceed the current version's; ApplyAt panics otherwise (it is a
// programming error, not a runtime condition).
func (s *Store) ApplyAt(up batch.Update, seq uint64) (prev, next *Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev = s.Current()
	if seq <= prev.Seq {
		panic(fmt.Sprintf("snapshot: ApplyAt seq %d not beyond current %d", seq, prev.Seq))
	}
	return s.applyLocked(up, seq)
}

// applyLocked applies up to the dynamic graph and publishes the result as
// version seq, folding up into the pending span when a ranker will replay
// it. Caller holds s.mu; prev is s.Current() at entry.
func (s *Store) applyLocked(up batch.Update, seq uint64) (prev, next *Version) {
	prev = s.Current()
	s.d.Grow(up.Universe(s.d.N()))
	// Deletions of edges beyond the (grown) universe cannot exist — drop
	// them rather than grow for them, and fold the clamped list so the
	// frontier marking over the span stays in range.
	up.Del = up.ClampDel(s.d.N())
	s.d.Apply(up.Del, up.Ins)
	s.d.EnsureSelfLoops()
	next = &Version{Seq: seq, G: s.d.Snapshot()}
	if s.ranked {
		s.pending.Add(up, time.Now())
	}
	s.cur.Store(next)
	return prev, next
}

// PendingEdits returns the raw edit count of the pending span: what the
// ranker has not replayed, less a span a refresh in flight has taken.
func (s *Store) PendingEdits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending.Edits()
}

// take hands over the pending span together with the version it leads to,
// read under one lock so tip is exactly the graph the span produces, and
// leaves an empty span (a fresh one, so a burst's map is not kept).
func (s *Store) take() (span batch.Merger, tip *Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	span, s.pending = s.pending, batch.Merger{}
	return span, s.Current()
}

// giveBack folds a span a refresh took but did not land back in front of
// whatever was published since, so the span stays in batch order.
func (s *Store) giveBack(span batch.Merger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	span.Absorb(&s.pending)
	s.pending = span
}

// Ranker keeps a PageRank vector synchronised with a Store. It is safe for
// use by one goroutine at a time; the vectors it hands out are immutable
// (see RanksShared), so readers share them without copying.
type Ranker struct {
	store *Store
	cfg   core.Config
	ranks []float64
	cur   *Version // the store version ranks correspond to; nil while unranked
	// state is the kernel's factors and chunk bounds for the newest tip a
	// run was started on (core.State); nil while unranked. It is built
	// fresh by ResumeRanker and by the cold run, and patched from the span
	// by every refresh before its run, so a failed run leaves it valid.
	state *core.State
	// oldest is when the oldest version the last landing covered was
	// published; zero before the first landing or when it covered none.
	oldest time.Time

	// Refreshes counts incremental refreshes (not the first convergence).
	Refreshes int

	// CoalesceSpans is a no-op kept for benchmark/probe.go, which assigns
	// it: every multi-version catch-up is replayed as ONE incremental run
	// (see Refresh). It goes when a benchmark-archetype PR drops that line.
	CoalesceSpans bool
}

// NewRanker is ResumeRanker without ranks plus its first Refresh: it
// converges ranks on the store's current version with the cold run and
// returns a ranker positioned at that version together with that run's
// result. Cancellation of ctx aborts the initial convergence. algo must be
// core.AlgoDFLF, the one algorithm a ranker refreshes with; any other is
// refused before the store is touched.
func NewRanker(ctx context.Context, s *Store, algo core.Algo, cfg core.Config) (*Ranker, core.Result, error) {
	if algo != core.AlgoDFLF {
		return nil, core.Result{}, fmt.Errorf("snapshot: a ranker refreshes with %v, not %v", core.AlgoDFLF, algo)
	}
	r, err := ResumeRanker(s, cfg, nil)
	if err != nil {
		return nil, core.Result{}, err
	}
	res, _, err := r.Refresh(ctx)
	if err != nil {
		return nil, res, err
	}
	return r, res, nil
}

// ResumeRanker is the Ranker constructor. Given ranks it positions the
// ranker at that already-converged vector for the store's current version
// without running anything — the warm-restart path: the vector comes from a
// checkpoint, the store from NewStoreAt at the checkpoint's sequence, and
// the first Refresh replays whatever the store publishes past it
// incrementally, exactly as if the ranker had been alive all along. The
// ranker takes ownership of ranks (treat it as frozen). With nil ranks the
// ranker starts unranked, and its first Refresh converges the store's
// newest version with the cold run. A store serves one ranker: from here
// on its pending span holds every batch published past the ranker's
// version, so a store that already has one is refused.
func ResumeRanker(s *Store, cfg core.Config, ranks []float64) (*Ranker, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ranked {
		return nil, errors.New("snapshot: the store already has a ranker")
	}
	r := &Ranker{store: s, cfg: cfg}
	v := s.Current()
	if ranks != nil {
		if v.G.N() != len(ranks) {
			return nil, fmt.Errorf("snapshot: resume at version %d: %d ranks for %d vertices", v.Seq, len(ranks), v.G.N())
		}
		r.ranks, r.cur, r.state = ranks, v, core.NewState(v.G, cfg)
	}
	s.ranked = true
	return r, nil
}

// SetFault replaces the fault plan injected into subsequent runs.
func (r *Ranker) SetFault(p fault.Plan) { r.cfg.Fault = p }

// Ranks returns a copy of the current rank vector (nil while unranked).
func (r *Ranker) Ranks() []float64 {
	return append([]float64(nil), r.ranks...)
}

// RanksShared returns the current rank vector without copying. The slice is
// immutable once returned: every algorithm run allocates a fresh output
// vector, so a subsequent Refresh replaces r.ranks rather than mutating it.
// This is the zero-copy publication point the read path is built on —
// callers must treat the slice as frozen.
func (r *Ranker) RanksShared() []float64 { return r.ranks }

// Version returns the store version the current ranks correspond to; it
// carries the graph snapshot the ranks were converged on. It is nil while
// the ranker is unranked.
func (r *Ranker) Version() *Version { return r.cur }

// Oldest returns when the oldest version the last landing covered was
// published: zero before the first landing, and for a landing that covered
// no published batch.
func (r *Ranker) Oldest() time.Time { return r.oldest }

// Seq returns the store version the ranks correspond to (0 while unranked).
func (r *Ranker) Seq() uint64 {
	if r.cur == nil {
		return 0
	}
	return r.cur.Seq
}

// next is the first store version the ranks do not cover: 0 while unranked.
func (r *Ranker) next() uint64 {
	if r.cur == nil {
		return 0
	}
	return r.cur.Seq + 1
}

// Refresh brings the ranks up to the store's latest version and returns the
// last run's result with the number of versions advanced, whatever path
// moved the ranks (a version published by ApplyAt at a sequence jump counts
// the whole jump, and the first convergence counts every version up to the
// one it lands on, the initial one included).
//
// An unranked ranker converges with the cold run on the newest version (and
// drops the pending span: the cold run does not read it). A ranked one
// replays the store's pending span as ONE DF-LF run: the store folded each
// batch into it as it published (last op per edge wins, batch.Merger) and
// the run goes once from the ranker's graph to the store's current one. This
// is the paper's cost model taken seriously — DF work scales with the
// movement set, so k pending batches cost one frontier expansion over their
// union instead of k expansions over overlapping frontiers. The run reads
// the store's tip and the merged batch, not the ranker's own graph: the
// merged del list holds every edge the span removed (last op per edge wins,
// and Store.Apply clamped each batch to its universe), which is what
// core.Input asks of Del. The merged lists may be a superset of the true
// edge diff (churn cancelled within the span); that only widens the
// initially affected set, never narrows it. The span holds every batch past
// the ranker, so however far it lags, it is there to replay, at the cost of
// its distinct edits rather than of the batches that carried them.
//
// A run that fails (crashed workers) or is cancelled through ctx surfaces
// as itself: the rank vector stays where it was (an unranked ranker stays
// unranked), the span goes back in front of whatever was published
// meanwhile, and the returned error wraps the run's own (core.ErrAllCrashed,
// core.ErrCanceled).
func (r *Ranker) Refresh(ctx context.Context) (core.Result, int, error) {
	from := r.next()
	res, err := r.catchUp(ctx)
	return res, int(r.next() - from), err
}

// catchUp is Refresh without the distance bookkeeping: it moves the ranker
// only through its last statement, so Refresh reads the advance off r.cur,
// and len(ranks) == Version().G.N() holds after every outcome.
func (r *Ranker) catchUp(ctx context.Context) (core.Result, error) {
	if r.cur != nil && r.store.Current().Seq == r.cur.Seq {
		return core.Result{Ranks: r.ranks, Converged: true}, nil
	}
	span, tip := r.store.take()
	var res core.Result
	if r.cur == nil {
		// The cold run: StaticLF is lock-free, like every refresh, so a
		// crash-stopped worker slows it down instead of breaking it.
		r.state = core.NewState(tip.G, r.cfg)
		res = core.RunState(ctx, core.AlgoStaticLF, core.Input{GNew: tip.G}, r.cfg, r.state)
	} else {
		up := span.Update()
		r.state.Patch(tip.G, up.Del, up.Ins)
		// Growth rescales the ranks to the grown universe (core.GrowRanks):
		// the exact fixed-point transform under self-loop dead-end
		// elimination, which keeps a frontier-sized refresh over a grown
		// version equivalent to a cold build.
		prev := r.ranks
		if n := tip.G.N(); n > len(prev) {
			prev = core.GrowRanks(prev, n)
		}
		in := core.Input{GNew: tip.G, Del: up.Del, Ins: up.Ins, Prev: prev}
		res = core.RunState(ctx, core.AlgoDFLF, in, r.cfg, r.state)
	}
	if res.Err != nil {
		r.store.giveBack(span)
		what := "incremental refresh failed"
		switch {
		case r.cur == nil:
			what = "cold run failed"
		case errors.Is(res.Err, core.ErrCanceled):
			what = "refresh aborted"
		}
		return res, fmt.Errorf("snapshot: %s at version %d: %w", what, tip.Seq, res.Err)
	}
	if r.cur != nil {
		r.Refreshes++
	}
	r.ranks, r.cur, r.oldest = res.Ranks, tip, span.Oldest()
	return res, nil
}
