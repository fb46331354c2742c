// Package snapshot provides the dynamic-graph snapshot store the paper's
// execution model assumes (§3.4): graph updates arrive in batches and are
// interleaved with algorithm executions, which therefore need *read-only
// snapshots* of the graph. A Store serialises writers and publishes
// immutable versions lock-free to readers; a Ranker subscribes to a store
// and keeps a PageRank vector current by replaying the update history with
// the Dynamic Frontier algorithm. A store serves one ranker and keeps every
// batch that ranker has not replayed, so however far it lags it catches up
// by replay. ResumeRanker builds a ranker, unranked or at a checkpointed
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/fault"
	"dfpr/internal/graph"
)

// Link is the chain link of one version: its sequence number, the batch
// that produced it (empty for the initial version) and when Apply published
// it (zero for the initial version, which no Apply published). It is
// everything a replay merging a span needs, so the store's ring holds
// links, a batch per round, never a graph.
type Link struct {
	Seq    uint64
	Update batch.Update
	At     time.Time
}

// Version is one immutable published state of the graph: a chain link plus
// the graph snapshot it produced. Seq increases by one per applied batch.
// Each row block of the CSR lives exactly as long as something holds a
// *Version whose CSR includes it: the store as Current(), a view, or a
// ranker positioned on it. Consecutive versions share every block their
// batch did not touch, so a retained version costs the blocks its batch
// rebuilt and two block tables, not a graph.
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
	// ranked is set once a Ranker serves the store; landed is the version
	// it last landed on (or was built at). No link past landed is dropped.
	ranked bool
	landed uint64
}

// DefaultHistory is how many chain links (the current version's included) a
// store retains at least; links its ranker has not replayed stay beyond it.
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
	next = &Version{Link: Link{Seq: seq, Update: up, At: time.Now()}, G: s.d.Snapshot()}
	s.history = append(s.history, next.Link)
	s.trimLocked()
	s.cur.Store(next)
	return prev, next
}

// trimLocked drops the oldest links while the ring holds more than keep and
// the oldest is at or below the version the ranker last landed on: a link
// the ranker has not replayed is never dropped. Caller holds s.mu.
func (s *Store) trimLocked() {
	drop := 0
	for len(s.history)-drop > s.keep && (!s.ranked || s.history[drop].Seq <= s.landed) {
		drop++
	}
	if drop > 0 {
		// Shift in place and clear the vacated tail instead of re-slicing: a
		// re-slice keeps the dropped links' batches reachable through the
		// head of the backing array for as long as the store lives.
		n := copy(s.history, s.history[drop:])
		clear(s.history[n:])
		s.history = s.history[:n]
	}
}

// Since returns the retained chain links with Seq in (afterSeq, latest],
// oldest first, together with the version they lead to — read under one
// lock, so tip is exactly the graph the links produce. Every link past the
// store's ranker is retained, so for afterSeq at or past that ranker's
// version the links are the whole span.
func (s *Store) Since(afterSeq uint64) (links []Link, tip *Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tip = s.Current()
	if afterSeq >= tip.Seq {
		return nil, tip // already current
	}
	i := slices.IndexFunc(s.history, func(l Link) bool { return l.Seq > afterSeq })
	// A copy: the ring shifts in place under later applies.
	return slices.Clone(s.history[i:]), tip
}

// PublishedAfter returns the sequence and publication time of the oldest
// retained version past afterSeq that an Apply published; seq is 0 when
// there is none.
func (s *Store) PublishedAfter(afterSeq uint64) (seq uint64, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.history {
		if l.Seq > afterSeq && !l.At.IsZero() {
			return l.Seq, l.At
		}
	}
	return 0, time.Time{}
}

// Ranker keeps a PageRank vector synchronised with a Store. It is safe for
// use by one goroutine at a time; the vectors it hands out are immutable
// (see RanksShared), so readers share them without copying.
type Ranker struct {
	store *Store
	cfg   core.Config
	algo  core.Algo
	ranks []float64
	cur   *Version // the store version ranks correspond to; nil while unranked

	// Refreshes counts incremental refreshes (not the first convergence).
	Refreshes int

	// CoalesceSpans is a no-op kept for benchmark/probe.go, which assigns
	// it: every multi-version catch-up is replayed as ONE incremental run
	// (see Refresh). It goes when a benchmark-archetype PR drops that line.
	CoalesceSpans bool
}

// NewRanker is ResumeRanker without ranks plus its first Refresh: it
// converges ranks on the store's current version with the cold run
// (StaticLF, whichever algo is given) and returns a ranker positioned at
// that version together with that run's result. Later Refreshes run algo
// (DFLF is the recommended default; a static algo recomputes from scratch
// every time). Cancellation of ctx aborts the initial convergence.
func NewRanker(ctx context.Context, s *Store, algo core.Algo, cfg core.Config) (*Ranker, core.Result, error) {
	r, err := ResumeRanker(s, algo, cfg, nil, 0)
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
// ranker at that already-converged vector for store version seq without
// running anything — the warm-restart path: the vector comes from a
// checkpoint, the store from NewStoreAt at the same sequence, and the first
// Refresh replays whatever the store has moved past seq incrementally,
// exactly as if the ranker had been alive all along. The ranker takes
// ownership of ranks (treat it as frozen). With nil ranks (seq is then not
// checked) the ranker starts unranked, and its first Refresh converges the
// store's newest version with the cold run. A store serves one ranker: from
// here on its ring keeps every link past the ranker's version, so a store
// that already has one is refused.
func ResumeRanker(s *Store, algo core.Algo, cfg core.Config, ranks []float64, seq uint64) (*Ranker, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ranked {
		return nil, errors.New("snapshot: the store already has a ranker")
	}
	r := &Ranker{store: s, cfg: cfg, algo: algo}
	v := s.Current()
	if ranks != nil {
		if v.Seq != seq {
			return nil, fmt.Errorf("snapshot: resume at version %d: store is at %d", seq, v.Seq)
		}
		if v.G.N() != len(ranks) {
			return nil, fmt.Errorf("snapshot: resume at version %d: %d ranks for %d vertices", seq, len(ranks), v.G.N())
		}
		r.ranks, r.cur = ranks, v
	}
	// An unranked ranker's cold run lands at the current version or later,
	// so it never replays a link at or below it either.
	s.ranked, s.landed = true, v.Seq
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

// Behind reports how many versions the ranker lags the store; an unranked
// ranker lags every version, the initial one included.
func (r *Ranker) Behind() uint64 {
	return r.store.Current().Seq + 1 - r.next()
}

// Refresh brings the ranks up to the store's latest version and returns the
// last run's result with the number of versions advanced — always the
// distance Behind fell during the call, whatever path moved the ranks (a
// version published by ApplyAt at a sequence jump counts the whole jump,
// and the first convergence counts every version up to the one it lands
// on, the initial one included).
//
// An unranked ranker converges with the cold run on the newest version. A
// ranked one replays the whole pending chain as ONE run of the ranker's
// algo: the chain's batches are merged (last op per edge wins, batch.Merge)
// and the algorithm runs once from the ranker's graph to the store's
// current one. This is the paper's cost model taken seriously — DF work
// scales with the movement set, so k pending batches cost one frontier
// expansion over their union instead of k expansions over overlapping
// frontiers. The run reads the store's tip and the merged batch, not the
// ranker's own graph: the merged del list holds every edge the span
// removed (last op per edge wins, and Store.Apply clamped each batch to
// its universe), which is what core.Input asks of Del. The merged lists
// may be a superset of the true edge diff (churn cancelled within the
// span); that only widens the initially affected set, never narrows it. A
// static algo ignores the batch and the previous vector (core.RunCtx drops
// them) and so recomputes from scratch. The store keeps every link past the
// ranker, so however far it lags, the span is there to replay.
//
// A run that fails (crashed workers) or is cancelled through ctx surfaces
// as itself: the rank vector stays where it was (an unranked ranker stays
// unranked) and the returned error wraps the run's own (core.ErrAllCrashed,
// core.ErrCanceled).
func (r *Ranker) Refresh(ctx context.Context) (core.Result, int, error) {
	from := r.next()
	res, err := r.catchUp(ctx)
	return res, int(r.next() - from), err
}

// catchUp is Refresh without the distance bookkeeping: it moves the ranker
// only through land, so Refresh reads the advance off r.cur.
func (r *Ranker) catchUp(ctx context.Context) (core.Result, error) {
	if r.cur == nil {
		return r.cold(ctx)
	}
	if r.store.Current().Seq == r.cur.Seq {
		return core.Result{Ranks: r.ranks, Converged: true}, nil
	}
	links, tip := r.store.Since(r.cur.Seq)
	ups := make([]batch.Update, len(links))
	for i, l := range links {
		ups[i] = l.Update
	}
	up := batch.Merge(ups...)
	// Growth rescales the ranks to the grown universe (core.GrowRanks): the
	// exact fixed-point transform under self-loop dead-end elimination, which
	// keeps a frontier-sized refresh over a grown version equivalent to a
	// cold build.
	prev := r.ranks
	if n := tip.G.N(); n > len(prev) {
		prev = core.GrowRanks(prev, n)
	}
	in := core.Input{GNew: tip.G, Del: up.Del, Ins: up.Ins, Prev: prev}
	res := core.RunCtx(ctx, r.algo, in, r.cfg)
	switch {
	case res.Err == nil:
		r.Refreshes++
		r.land(tip, res)
		return res, nil
	case errors.Is(res.Err, core.ErrCanceled):
		return res, fmt.Errorf("snapshot: refresh aborted at version %d: %w", tip.Seq, res.Err)
	default:
		return res, fmt.Errorf("snapshot: incremental refresh failed at version %d: %w", tip.Seq, res.Err)
	}
}

// cold is an unranked ranker's first convergence: it lands on the store's
// newest version through the cold run. StaticLF is lock-free, like every
// refresh, so a crash-stopped worker slows it down instead of breaking it.
func (r *Ranker) cold(ctx context.Context) (core.Result, error) {
	v := r.store.Current()
	res := core.RunCtx(ctx, core.AlgoStaticLF, core.Input{GNew: v.G}, r.cfg)
	if res.Err != nil {
		return res, fmt.Errorf("snapshot: cold run failed at version %d: %w", v.Seq, res.Err)
	}
	r.land(v, res)
	return res, nil
}

// land makes a finished run the ranker's state and tells the store, which
// may then drop the links up to v. It is the only writer of ranks/cur after
// construction, so len(ranks) == Version().G.N() holds after every outcome.
func (r *Ranker) land(v *Version, res core.Result) {
	r.ranks, r.cur = res.Ranks, v
	s := r.store
	s.mu.Lock()
	s.landed = v.Seq
	s.trimLocked()
	s.mu.Unlock()
}
