// Package snapshot provides the dynamic-graph snapshot store the paper's
// execution model assumes (§3.4): graph updates arrive in batches and are
// interleaved with algorithm executions, which therefore need *read-only
// snapshots* of the graph. A Store serialises writers and publishes
// immutable versions lock-free to readers; a Ranker subscribes to a store
// and keeps a PageRank vector current by replaying the update history with
// the Dynamic Frontier algorithm, falling back to a static recomputation
// when it has fallen too far behind.
//
// This is the composition layer a downstream user actually deploys: the
// core package answers "how do I update ranks for one batch", this package
// answers "how do I keep ranks fresh while the graph keeps changing".
package snapshot

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/fault"
	"dfpr/internal/graph"
)

// Link is the chain link of one version: its sequence number and the batch
// that produced it (empty for the initial version). It is everything a
// replay merging a span needs, so the store's ring holds links, a batch per
// round, never a graph.
type Link struct {
	Seq    uint64
	Update batch.Update
}

// Version is one immutable published state of the graph: a chain link plus
// the graph snapshot it produced. Seq increases by one per applied batch.
// The CSR lives exactly as long as something holds the *Version: the store
// as Current(), a view, or a ranker positioned on it.
type Version struct {
	Link
	G *graph.CSR
}

// Store is a single-writer multi-reader dynamic-graph store. Writers call
// Apply (serialised internally); readers call Current, which never blocks —
// it is one atomic pointer load, so rank computations always see a
// consistent frozen graph no matter how many updates land meanwhile.
type Store struct {
	mu      sync.Mutex
	d       *graph.Dynamic
	cur     atomic.Value // *Version
	history []Link       // ring of recent chain links, oldest first
	keep    int
}

// DefaultHistory is how many chain links (the current version's included) a
// store retains for Ranker catch-up before old updates are forgotten.
const DefaultHistory = 64

// NewStore seals the dynamic graph (self-loops ensured) as version 0. The
// store takes ownership of d; callers must not mutate it afterwards.
func NewStore(d *graph.Dynamic, keepHistory int) *Store {
	return NewStoreAt(d, keepHistory, 0)
}

// NewStoreAt is NewStore sealing the graph as version seq instead of 0 —
// the warm-restart constructor: an engine recovering from a checkpoint
// rebuilds its store at the checkpoint's sequence so replayed WAL records
// and fresh writes continue the original version numbering.
func NewStoreAt(d *graph.Dynamic, keepHistory int, seq uint64) *Store {
	if keepHistory <= 0 {
		keepHistory = DefaultHistory
	}
	d.EnsureSelfLoops()
	s := &Store{d: d, keep: keepHistory}
	v := &Version{Link: Link{Seq: seq}, G: d.Snapshot()}
	s.cur.Store(v)
	s.history = append(s.history, v.Link)
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
// so fresh writes continue the logged numbering. The version's Update
// carries the merged batch, so a ranker resuming from the base version
// refreshes over it exactly as it would over a coalesced span. seq must
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
// version seq. Caller holds s.mu; prev is s.Current() at entry.
func (s *Store) applyLocked(up batch.Update, seq uint64) (prev, next *Version) {
	prev = s.Current()
	s.d.Grow(up.Universe(s.d.N()))
	// Deletions of edges beyond the (grown) universe cannot exist — drop
	// them rather than grow for them, and publish the clamped list so the
	// frontier marking over this version's batch stays in range.
	up.Del = up.ClampDel(s.d.N())
	s.d.Apply(up.Del, up.Ins)
	s.d.EnsureSelfLoops()
	next = &Version{Link: Link{Seq: seq, Update: up}, G: s.d.Snapshot()}
	s.history = append(s.history, next.Link)
	if drop := len(s.history) - s.keep; drop > 0 {
		// Shift in place and clear the vacated tail instead of re-slicing: a
		// re-slice keeps the dropped links' batches reachable through the
		// head of the backing array for as long as the store lives.
		copy(s.history, s.history[drop:])
		clear(s.history[s.keep:])
		s.history = s.history[:s.keep]
	}
	s.cur.Store(next)
	return prev, next
}

// Since returns the chain links with Seq in (afterSeq, latest], oldest
// first, together with the version they lead to — read under one lock, so
// tip is exactly the graph the links produce. ok is false when the requested
// range has left the ring (the caller must then recompute statically).
func (s *Store) Since(afterSeq uint64) (links []Link, tip *Version, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tip = s.Current()
	if afterSeq >= tip.Seq {
		return nil, tip, true // already current
	}
	if afterSeq+1 < s.history[0].Seq {
		return nil, tip, false // evicted
	}
	i := slices.IndexFunc(s.history, func(l Link) bool { return l.Seq > afterSeq })
	// A copy: the ring shifts in place under later applies.
	return slices.Clone(s.history[i:]), tip, true
}

// Ranker keeps a PageRank vector synchronised with a Store. It is safe for
// use by one goroutine at a time (clone one Ranker per consumer; ranks are
// value-copied out).
type Ranker struct {
	store *Store
	cfg   core.Config
	algo  core.Algo
	ranks []float64
	cur   *Version // the store version ranks correspond to

	// Refreshes counts incremental refreshes; Rebuilds counts static
	// rebuilds after the pending history was evicted.
	Refreshes, Rebuilds int

	// CoalesceSpans is a no-op kept for benchmark/probe.go, which assigns
	// it: every multi-version catch-up is replayed as ONE incremental run
	// (see Refresh). It goes when a benchmark-archetype PR drops that line.
	CoalesceSpans bool
}

// NewRanker converges ranks on the store's current version and returns a
// ranker positioned at that version together with the initial run's result.
// Dynamic algos (DF/ND/DT; DFLF is the recommended default) are converged
// with a barrier-based static run and then refresh incrementally; a static
// algo is run as-is, and Refresh then recomputes with it on every new
// version. Cancellation of ctx aborts the initial convergence.
func NewRanker(ctx context.Context, s *Store, algo core.Algo, cfg core.Config) (*Ranker, core.Result, error) {
	v := s.Current()
	init := algo
	if algo.Dynamic() {
		init = core.AlgoStaticBB
	}
	res := core.RunCtx(ctx, init, core.Input{GNew: v.G}, cfg)
	if res.Err != nil {
		return nil, res, fmt.Errorf("snapshot: initial ranking failed: %w", res.Err)
	}
	return &Ranker{store: s, cfg: cfg, algo: algo, ranks: res.Ranks, cur: v}, res, nil
}

// ResumeRanker positions a ranker at an already-converged rank vector for
// store version seq without running anything — the warm-restart path: the
// vector comes from a checkpoint, the store from NewStoreAt at the same
// sequence, and the first Refresh replays whatever the store has moved past
// seq incrementally, exactly as if the ranker had been alive all along. The
// ranker takes ownership of ranks (treat it as frozen).
func ResumeRanker(s *Store, algo core.Algo, cfg core.Config, ranks []float64, seq uint64) (*Ranker, error) {
	v := s.Current()
	if v.Seq != seq {
		return nil, fmt.Errorf("snapshot: resume at version %d: store is at %d", seq, v.Seq)
	}
	if v.G.N() != len(ranks) {
		return nil, fmt.Errorf("snapshot: resume at version %d: %d ranks for %d vertices", seq, len(ranks), v.G.N())
	}
	return &Ranker{store: s, cfg: cfg, algo: algo, ranks: ranks, cur: v}, nil
}

// SetFault replaces the fault plan injected into subsequent runs.
func (r *Ranker) SetFault(p fault.Plan) { r.cfg.Fault = p }

// Ranks returns a copy of the current rank vector.
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
// carries the graph snapshot the ranks were converged on.
func (r *Ranker) Version() *Version { return r.cur }

// Seq returns the store version the ranks correspond to.
func (r *Ranker) Seq() uint64 { return r.cur.Seq }

// Behind reports how many versions the ranker lags the store.
func (r *Ranker) Behind() uint64 {
	return r.store.Current().Seq - r.cur.Seq
}

// Refresh brings the ranks up to the store's latest version and returns the
// last run's result with the number of versions advanced — always the Seq
// distance the ranks moved during the call, whatever path moved them (a
// version published by ApplyAt at a sequence jump counts the whole jump).
//
// A dynamic algo replays the whole pending chain as ONE incremental run:
// the chain's batches are merged (last op per edge wins, batch.Merge) and
// the algorithm runs once from the ranker's graph to the store's current
// one. This is the paper's cost model taken seriously — DF work scales with
// the movement set, so k pending batches cost one frontier expansion over
// their union instead of k expansions over overlapping frontiers. The merged
// del/ins lists may be a superset of the true edge diff (churn cancelled
// within the span); that only widens the initially affected set, never
// narrows it, because marking walks out(u) of every batch-edge source in
// both snapshots. When the pending links have left the store's ring (the
// ranker lagged more than its retention) it rebuilds with one static
// recomputation on the newest version — there is no other sound way
// forward. A static algo recomputes with itself once per Refresh that finds
// a new version.
//
// A run that fails (crashed workers, broken barrier) or is cancelled through
// ctx surfaces as itself: the rank vector stays where it was and the
// returned error wraps the run's own (core.ErrAllCrashed, sched.ErrBroken,
// core.ErrCanceled). No rebuild is attempted — it would run under the same
// fault plan, behind a barrier.
func (r *Ranker) Refresh(ctx context.Context) (core.Result, int, error) {
	from := r.cur.Seq
	res, err := r.catchUp(ctx)
	return res, int(r.cur.Seq - from), err
}

// catchUp is Refresh without the distance bookkeeping: it moves the ranker
// only through land, so Refresh reads the advance off r.cur.
func (r *Ranker) catchUp(ctx context.Context) (core.Result, error) {
	if r.store.Current().Seq == r.cur.Seq {
		return core.Result{Ranks: r.ranks, Converged: true}, nil
	}
	if !r.algo.Dynamic() {
		return r.recompute(ctx, r.algo, &r.Refreshes)
	}
	// Replaying needs the pending links still in the ring; the two graphs it
	// runs between are tip and r.cur — the ranker's own reference, the
	// G^{t-1} where marking finds deleted edges' targets.
	links, tip, ok := r.store.Since(r.cur.Seq)
	if !ok {
		return r.recompute(ctx, core.AlgoStaticBB, &r.Rebuilds)
	}
	ups := make([]batch.Update, len(links))
	for i, l := range links {
		ups[i] = l.Update
	}
	up := batch.Merge(ups...)
	gOld, prev := grownInputs(r.cur.G, r.ranks, tip.G.N())
	in := core.Input{GOld: gOld, GNew: tip.G, Del: up.Del, Ins: up.Ins, Prev: prev}
	res := core.RunCtx(ctx, r.algo, in, r.cfg)
	switch {
	case res.Err == nil:
		r.land(tip, res, &r.Refreshes)
		return res, nil
	case errors.Is(res.Err, core.ErrCanceled):
		return res, fmt.Errorf("snapshot: refresh aborted at version %d: %w", tip.Seq, res.Err)
	default:
		return res, fmt.Errorf("snapshot: incremental refresh failed at version %d: %w", tip.Seq, res.Err)
	}
}

// recompute runs static algo on the store's newest version and lands the
// ranker there, counting it in counter: a static ranker's Refreshes, or a
// dynamic ranker's Rebuilds when the history it would replay is gone.
func (r *Ranker) recompute(ctx context.Context, algo core.Algo, counter *int) (core.Result, error) {
	v := r.store.Current()
	res := core.RunCtx(ctx, algo, core.Input{GNew: v.G}, r.cfg)
	if res.Err != nil {
		return res, fmt.Errorf("snapshot: static recomputation failed at version %d: %w", v.Seq, res.Err)
	}
	r.land(v, res, counter)
	return res, nil
}

// land makes a finished run the ranker's state. It is the only writer of
// ranks/cur and of the Refreshes/Rebuilds counters after construction, so
// len(ranks) == Version().G.N() holds after every outcome.
func (r *Ranker) land(v *Version, res core.Result, counter *int) {
	r.ranks, r.cur = res.Ranks, v
	*counter++
}

// grownInputs adapts the (previous graph, previous ranks) pair of an
// incremental run to a target universe of n vertices: the old snapshot is
// padded with isolated vertices (offset copies, adjacency shared) so the
// union marking can walk both snapshots over one index space, and the rank
// vector is rescaled-and-seeded by core.GrowRanks — the exact fixed-point
// transform growth induces under self-loop dead-end elimination, which is
// what keeps a frontier-sized refresh over a grown version equivalent to a
// cold build (see internal/core/growth.go). A same-size version passes
// through untouched.
func grownInputs(gOld *graph.CSR, ranks []float64, n int) (*graph.CSR, []float64) {
	if n <= gOld.N() && n <= len(ranks) {
		return gOld, ranks
	}
	return gOld.WithN(n), core.GrowRanks(ranks, n)
}
