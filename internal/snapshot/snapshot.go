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
	"sync"
	"sync/atomic"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/fault"
	"dfpr/internal/graph"
)

// Link is the chain link of one version: its sequence number and the batch
// that produced it (empty for the initial version). It is everything a walk
// across the version needs — a Delta seeding its frontier, a replay merging
// a span — and it is what a Pin retains, so holding a chain reachable costs
// a batch per round, not a graph.
type Link struct {
	Seq    uint64
	Update batch.Update
}

// Version is one immutable published state of the graph: a chain link plus
// the graph snapshot it produced. Seq increases by one per applied batch.
// The CSR lives exactly as long as something holds the *Version — the
// store's retention ring, a view, or a ranker positioned on it.
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
	history []*Version   // ring of recent versions, oldest first
	keep    int
	// pins maps sequence numbers that readers hold pinned (see Pin) to
	// their refcount entry; a pinned chain link survives history trimming
	// until its last Release.
	pins map[uint64]*pinEntry
}

// pinEntry is one pinned chain link and its reference count.
type pinEntry struct {
	link Link
	refs int
}

// DefaultHistory is how many past versions a store retains for Ranker
// catch-up before old updates are forgotten.
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
	s.history = append(s.history, v)
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
	s.history = append(s.history, next)
	if len(s.history) > s.keep {
		// Shift in place and nil the vacated tail instead of re-slicing:
		// a re-slice keeps the dropped head of the backing array reachable,
		// which pins every evicted Version (and its CSR) for as long as the
		// store lives.
		drop := len(s.history) - s.keep
		copy(s.history, s.history[drop:])
		for i := s.keep; i < len(s.history); i++ {
			s.history[i] = nil
		}
		s.history = s.history[:s.keep]
	}
	s.cur.Store(next)
	return prev, next
}

// Since returns the contiguous chain of versions with Seq in (afterSeq,
// latest], oldest first, and ok=false when the requested range has been
// evicted from history (the caller must then recompute statically).
func (s *Store) Since(afterSeq uint64) (chain []*Version, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.history) == 0 {
		return nil, false
	}
	latest := s.history[len(s.history)-1].Seq
	if afterSeq >= latest {
		return nil, true // already current
	}
	oldest := s.history[0].Seq
	if afterSeq+1 < oldest {
		return nil, false // evicted
	}
	for _, v := range s.history {
		if v.Seq > afterSeq {
			chain = append(chain, v)
		}
	}
	return chain, true
}

// Retained returns the version with the given sequence number, graph
// included, if the retention ring still holds it. Pins do not extend it: a
// pinned-but-trimmed sequence number resolves through Get to its chain link
// only, so a caller that needs the graph of an older version must hold the
// *Version itself.
func (s *Store) Retained(seq uint64) (*Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retainedLocked(seq)
}

func (s *Store) retainedLocked(seq uint64) (*Version, bool) {
	for _, v := range s.history {
		if v.Seq == seq {
			return v, true
		}
	}
	return nil, false
}

// Get returns the chain link of the version with the given sequence number
// if it is still reachable — in the retention ring, or held by a Pin. It
// never hands out a graph: see Retained.
func (s *Store) Get(seq uint64) (Link, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(seq)
}

func (s *Store) getLocked(seq uint64) (Link, bool) {
	if e, ok := s.pins[seq]; ok {
		return e.link, true
	}
	if v, ok := s.retainedLocked(seq); ok {
		return v.Link, true
	}
	return Link{}, false
}

// Pin marks the chain link with the given sequence number as held by a
// reader: it stays resolvable through Get, with its Update, even after the
// retention ring trims past it, until a matching Release. A pin retains the
// link only — the version's CSR is released with the ring like any other,
// so the cost of a pinned chain is its batches, however many rounds it
// spans. Pins nest — each successful Pin must be paired with one Release.
// Pinning a sequence number that is already gone reports false.
func (s *Store) Pin(seq uint64) (Link, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.pins[seq]; ok {
		e.refs++
		return e.link, true
	}
	l, ok := s.getLocked(seq)
	if !ok {
		return Link{}, false
	}
	if s.pins == nil {
		s.pins = make(map[uint64]*pinEntry)
	}
	s.pins[seq] = &pinEntry{link: l, refs: 1}
	return l, true
}

// Release undoes one Pin. Releasing an unpinned version is a no-op, so
// callers may release defensively.
func (s *Store) Release(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pins[seq]
	if !ok {
		return
	}
	if e.refs--; e.refs == 0 {
		delete(s.pins, seq)
	}
}

// Ranker keeps a PageRank vector synchronised with a Store. It is safe for
// use by one goroutine at a time (clone one Ranker per consumer; ranks are
// value-copied out).
type Ranker struct {
	store *Store
	cfg   core.Config
	algo  core.Algo
	ranks []float64
	seq   uint64
	cur   *Version // the store version ranks correspond to (Seq == seq)

	// Refreshes counts incremental refreshes; Rebuilds counts static
	// rebuilds after the pending history was evicted.
	Refreshes, Rebuilds int

	// SweepBlocks and FrontierScanned accumulate the per-run sweep
	// instrumentation (core.Result.SweepBlocks/FrontierScanned) over every
	// run this ranker performed — initial convergence, refreshes, rebuilds.
	// The engine mirrors them into the dfpr_rank_sweep_block_* counters.
	SweepBlocks, FrontierScanned int64

	// CoalesceSpans makes Refresh replay a multi-version pending chain as
	// ONE incremental run: the chain's batches are merged (last op per edge
	// wins, batch.Merge) and the dynamic algorithm runs once from the
	// ranker's graph to the chain's final graph. This is the paper's cost
	// model taken seriously — DF work scales with the movement set, so k
	// pending batches cost one frontier expansion over their union instead
	// of k expansions over overlapping frontiers. The merged del/ins lists
	// may be a superset of the true edge diff (churn cancelled within the
	// span); that only widens the initially affected set, never narrows it,
	// because marking walks out(u) of every batch-edge source in both
	// snapshots. Single-version chains are unaffected.
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
	r := &Ranker{store: s, cfg: cfg, algo: algo, ranks: res.Ranks, seq: v.Seq, cur: v}
	r.noteRun(res)
	return r, res, nil
}

// noteRun accumulates one core run's sweep instrumentation. Failed runs
// count too: their sweeps happened.
func (r *Ranker) noteRun(res core.Result) {
	r.SweepBlocks += res.SweepBlocks
	r.FrontierScanned += res.FrontierScanned
}

// ResumeRanker positions a ranker at an already-converged rank vector for
// store version seq without running anything — the warm-restart path: the
// vector comes from a checkpoint, the store from NewStoreAt at the same
// sequence, and the first Refresh replays whatever the store has moved past
// seq incrementally, exactly as if the ranker had been alive all along. The
// ranker takes ownership of ranks (treat it as frozen).
func ResumeRanker(s *Store, algo core.Algo, cfg core.Config, ranks []float64, seq uint64) (*Ranker, error) {
	v, ok := s.Retained(seq)
	if !ok {
		return nil, fmt.Errorf("snapshot: resume at version %d: not retained", seq)
	}
	if v.G.N() != len(ranks) {
		return nil, fmt.Errorf("snapshot: resume at version %d: %d ranks for %d vertices", seq, len(ranks), v.G.N())
	}
	return &Ranker{store: s, cfg: cfg, algo: algo, ranks: ranks, seq: seq, cur: v}, nil
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

// Version returns the store version the current ranks correspond to. Its
// Seq always equals Seq(); the Version itself carries the graph snapshot
// the ranks were converged on.
func (r *Ranker) Version() *Version { return r.cur }

// Seq returns the store version the ranks correspond to.
func (r *Ranker) Seq() uint64 { return r.seq }

// Behind reports how many versions the ranker lags the store.
func (r *Ranker) Behind() uint64 {
	return r.store.Current().Seq - r.seq
}

// Refresh brings the ranks up to the store's latest version and returns the
// last run's result with the number of versions advanced — always the Seq
// distance the ranks moved during the call, whatever path moved them (a
// version published by ApplyAt at a sequence jump counts the whole jump).
//
// A dynamic algo replays the pending chain span by span: the whole chain as
// one span under CoalesceSpans, one version per span otherwise. When the
// pending history has been evicted (the ranker lagged more than the store's
// retention) it rebuilds with one static recomputation on the newest
// version — there is no other sound way forward. A static algo recomputes
// with itself once per Refresh that finds a new version.
//
// A run that fails (crashed workers, broken barrier) or is cancelled through
// ctx surfaces as itself: the rank vector stays at the last version that
// completed and the returned error wraps the run's own (core.ErrAllCrashed,
// sched.ErrBroken, core.ErrCanceled). No rebuild is attempted — it would run
// under the same fault plan, behind a barrier.
func (r *Ranker) Refresh(ctx context.Context) (core.Result, int, error) {
	from := r.seq
	res, err := r.catchUp(ctx)
	return res, int(r.seq - from), err
}

// catchUp is Refresh without the distance bookkeeping: it moves the ranker
// only through land, so Refresh reads the advance off r.seq.
func (r *Ranker) catchUp(ctx context.Context) (core.Result, error) {
	if r.store.Current().Seq == r.seq {
		return core.Result{Ranks: r.ranks, Converged: true}, nil
	}
	if !r.algo.Dynamic() {
		return r.recompute(ctx, r.algo, &r.Refreshes)
	}
	// Replaying needs the pending chain still in the ring. The version the
	// first span applies on top of — the G^{t-1} where marking finds deleted
	// edges' targets — is r.cur, the ranker's own reference, whatever the
	// ring has trimmed.
	chain, ok := r.store.Since(r.seq)
	if !ok {
		return r.recompute(ctx, core.AlgoStaticBB, &r.Rebuilds)
	}
	step := 1
	if r.CoalesceSpans {
		step = len(chain)
	}
	var last core.Result
	for ; len(chain) > 0; chain = chain[step:] {
		tip := chain[step-1]
		up := tip.Update
		if step > 1 {
			ups := make([]batch.Update, step)
			for i, v := range chain[:step] {
				ups[i] = v.Update
			}
			up = batch.Merge(ups...)
		}
		gOld, prev := grownInputs(r.cur.G, r.ranks, tip.G.N())
		in := core.Input{GOld: gOld, GNew: tip.G, Del: up.Del, Ins: up.Ins, Prev: prev}
		last = core.RunCtx(ctx, r.algo, in, r.cfg)
		r.noteRun(last)
		switch {
		case last.Err == nil:
			r.land(tip, last, &r.Refreshes)
		case errors.Is(last.Err, core.ErrCanceled):
			return last, fmt.Errorf("snapshot: refresh aborted at version %d: %w", tip.Seq, last.Err)
		default:
			return last, fmt.Errorf("snapshot: incremental refresh failed at version %d: %w", tip.Seq, last.Err)
		}
	}
	return last, nil
}

// recompute runs static algo on the store's newest version and lands the
// ranker there, counting it in counter: a static ranker's Refreshes, or a
// dynamic ranker's Rebuilds when the history it would replay is gone.
func (r *Ranker) recompute(ctx context.Context, algo core.Algo, counter *int) (core.Result, error) {
	v := r.store.Current()
	res := core.RunCtx(ctx, algo, core.Input{GNew: v.G}, r.cfg)
	r.noteRun(res)
	if res.Err != nil {
		return res, fmt.Errorf("snapshot: static recomputation failed at version %d: %w", v.Seq, res.Err)
	}
	r.land(v, res, counter)
	return res, nil
}

// land makes a finished run the ranker's state. It is the only writer of
// ranks/seq/cur and of the Refreshes/Rebuilds counters after construction,
// so Seq() == Version().Seq and len(ranks) == Version().G.N() hold after
// every outcome.
func (r *Ranker) land(v *Version, res core.Result, counter *int) {
	r.ranks, r.seq, r.cur = res.Ranks, v.Seq, v
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
