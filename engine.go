package dfpr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/graph"
	"dfpr/internal/keymap"
	"dfpr/internal/repl"
	"dfpr/internal/snapshot"
	"dfpr/internal/telemetry"
)

// Edge is a directed edge from U to V in dense vertex ids. The vertex
// universe is open: an edge naming a vertex the engine has never seen grows
// the graph to cover it (see Apply/Submit) instead of erroring. Clients that
// address entities by natural string keys use KeyEdge and the keyed API
// (Open, SubmitKeyed) instead of managing dense ids themselves.
type Edge struct {
	U, V uint32
}

// Engine is the service entry point of this module: a dynamic graph behind
// a versioned snapshot store, plus a PageRank vector kept current with
// lock-free Dynamic Frontier PageRank (DF-LF), the paper's contribution.
//
// The intended loop of a live-serving deployment runs through the ingest
// pipeline — callers never pick batch boundaries or block on a refresh:
//
//	eng, _ := dfpr.New(n, edges)
//	eng.Rank(ctx)                     // initial convergence
//	...
//	t, _ := eng.Submit(ctx, del, ins) // enqueue; coalesced off the caller's path
//	seq, _ := t.Wait(ctx)             // version the edits landed in
//	eng.WaitRanked(ctx, seq)          // ranks at least that fresh (optional)
//
// The manual path remains: Apply publishes one version per call and the
// caller drives Rank itself. Apply and Submit are safe for concurrent use
// and never block readers; Rank calls are serialised with each other.
// Readers use View (or ViewAt for retained history) for zero-copy access to
// the latest computed ranks without blocking behind a refresh, or Subscribe
// for a push stream of versioned rank updates carrying views. Every Rank
// honours its context: cancellation aborts a converging run promptly, with
// all worker goroutines joined before Rank returns ErrCanceled, and leaves
// the engine's ranks at the last completed version.
type Engine struct {
	opts  settings
	store *snapshot.Store

	// keys is the engine-owned key space (nil for dense-ID engines built
	// with New): an append-only string↔uint32 interner whose ids double as
	// vertex ids. Reads are lock-free; version pinning falls out of the
	// universe being append-only (a view resolves a key iff its id is below
	// the view's vertex count).
	keys *keymap.Map

	// closed is the engine's one lifecycle flag. Close sets it before
	// anything else; each guarded operation reads it inside a critical
	// section Close waits out afterwards (Rank under mu, storeApply under
	// closeMu, Submit and Flush under ingestMu, Subscribe under subMu), so
	// none of them slips past a Close that has returned.
	closed atomic.Bool

	// mu serialises Rank and the ranker it drives, which exists from
	// construction.
	mu     sync.Mutex
	ranker *snapshot.Ranker

	// closeMu excludes Apply from a concurrent Close without making Apply
	// wait behind Rank: writers share the read side, Close takes the write
	// side. Lock order: mu before closeMu before subMu.
	closeMu sync.RWMutex

	// latest is the most recently published view, read lock-free by View,
	// Behind and Stats.
	latest atomic.Pointer[View]

	// viewMu guards the ring of retained published views ViewAt serves
	// from. Lock order: mu before viewMu; nothing is called under it.
	viewMu sync.Mutex
	views  []*View // oldest first, at most opts.history entries

	// subMu guards the subscriber table. Lock order: mu before subMu.
	subMu   sync.Mutex
	subs    map[uint64]*Subscription
	nextSub uint64

	// The write pipeline (ingest.go), two goroutines started on first use:
	// the ingest loop drains a bounded queue, coalescing submissions into
	// one merged batch per round, and publishes; the refresher ranks behind
	// it. ingestMu guards the queue, the hand-off between the two and their
	// start, and is never held across an apply or a rank. Lock order:
	// ingestMu is independent of mu (the refresher takes mu via Rank only
	// after releasing ingestMu).
	ingestMu    sync.Mutex
	ingestQ     []pendingSubmit
	flushQ      []*flushReq // Flushes the loop has not drained yet
	rankFlushes []*flushReq // Flushes drained with their round, for the refresher
	ingestEdits int         // queued, not yet drained (backpressure unit)
	// supersede cancels the refresher's in-flight refresh, which catches up
	// to version refreshTip; nil when that refresh may not be superseded.
	supersede  context.CancelFunc
	refreshTip uint64
	ingestOn   bool // pipeline started (lazily, on first Submit/Flush)
	ingestWake chan struct{}
	rankWake   chan struct{}
	ingestWG   sync.WaitGroup // the loop and the refresher
	// ingestCtx is the pipeline's own context: Close cancels it through
	// ingestHalt, which stops both goroutines and the refresher's Rank.
	ingestCtx  context.Context
	ingestHalt context.CancelFunc

	// dur is the durability sidecar (nil without WithDurability): the WAL
	// every published round is logged to ahead of publication, plus the
	// checkpoint machinery and recovery state. It is atomic because a
	// follower promoted to writer (cluster.go) installs it on a live engine
	// while readers inspect it concurrently. See durable.go.
	dur atomic.Pointer[durability]

	// Replication state (cluster.go). follower is true while the engine
	// applies streamed rounds instead of accepting writes — public writes
	// bounce with ErrNotWriter until promotion clears it — and is the one
	// home of a node's role. cluster is the Cluster running the engine
	// (JoinCluster or StartReplica), the one source replication reads. feed
	// is the lazily built WAL streaming handler of a durable engine.
	follower atomic.Bool
	cluster  atomic.Pointer[Cluster]
	feed     atomic.Pointer[repl.Feed]

	// met is the engine's telemetry (never nil): hot-path instruments the
	// write path observes lock-free, plus the registry /metrics serves. See
	// telemetry.go.
	met *engineMetrics

	// Watermarks for the completion APIs: verWM tracks published graph
	// versions (Apply and ingest rounds), rankWM published rank versions.
	verWM  watermark
	rankWM watermark
}

// New builds an engine over a directed graph with vertices 0..n-1 and the
// given initial edges; edges naming vertices beyond n widen the universe to
// cover them. Self-loops are added to every vertex (the paper's dead-end
// elimination, §5.1.3) and the result is sealed as version 0. No ranks are
// computed yet — the first Rank call converges them.
//
// New is the dense-ID constructor for callers that already hold compact
// vertex ids (a loaded benchmark graph, a generator). Services addressing
// entities by natural string keys start from Open instead, which owns the
// key→id compaction and needs no vertex count at all.
func New(n int, edges []Edge, opts ...Option) (*Engine, error) {
	if n < 0 {
		return nil, fmt.Errorf("dfpr: negative vertex count %d", n)
	}
	st := defaultSettings()
	for _, opt := range opts {
		if err := opt(&st); err != nil {
			return nil, err
		}
	}
	// The registry exists before the engine: the durable path wires WAL
	// hooks into it during recovery, ahead of the Engine value itself.
	st.tel = telemetry.NewRegistry()
	if st.durDir != "" {
		// Durable engines take the recovery-aware constructor: a directory
		// that already holds state supersedes n/edges entirely (the state IS
		// the graph); a fresh one is built here and seeded with checkpoint 0.
		return openDurable(n, edges, st)
	}
	return newEngine(n, edges, st)
}

// newEngine builds a non-recovered engine from resolved settings — the
// shared tail of New, Open and the durable seed path. It builds the way the
// readers do: one graph.FromEdges over the edges plus every self-loop, so
// the store's EnsureSelfLoops finds each loop present and its first
// snapshot is the built CSR.
func newEngine(n int, edges []Edge, st settings) (*Engine, error) {
	universe := n
	for _, e := range edges {
		universe = max(universe, int(e.U)+1, int(e.V)+1)
	}
	if universe > st.maxN {
		return nil, fmt.Errorf("dfpr: %d vertices exceed the bound %d (WithMaxVertices): %w", universe, st.maxN, ErrTooManyVertices)
	}
	ges := make([]graph.Edge, 0, len(edges)+universe)
	for _, e := range edges {
		ges = append(ges, graph.Edge{U: e.U, V: e.V})
	}
	for v := range uint32(universe) {
		ges = append(ges, graph.Edge{U: v, V: v})
	}
	d := graph.DynamicFromCSR(graph.FromEdges(universe, ges))
	return engineOver(st, snapshot.NewStore(d, st.history), nil)
}

// engineOver wraps a sealed store in an engine: the construction shared by
// fresh builds (newEngine) and checkpoint restores (restore). The ranker is
// built here and nowhere else: at ranks converged on the store's version
// (a checkpoint's), or unranked when ranks is nil, so that the first Rank
// converges cold.
func engineOver(st settings, store *snapshot.Store, ranks []float64) (*Engine, error) {
	rk, err := snapshot.ResumeRanker(store, core.AlgoDFLF, st.cfg, ranks, store.Current().Seq)
	if err != nil {
		return nil, fmt.Errorf("dfpr: resume ranks: %w", err)
	}
	e := &Engine{
		opts:   st,
		store:  store,
		ranker: rk,
		subs:   make(map[uint64]*Subscription),
	}
	if st.keyed {
		e.keys = keymap.New()
	}
	e.initTelemetry(st.tel)
	e.verWM.init(store.Current().Seq) // the sealed version exists from construction
	return e, nil
}

// Open builds an empty open-universe engine with an engine-owned key space:
// no vertex count, no initial edges — vertices come into existence as
// submissions mention them, either by string key (SubmitKeyed/ApplyKeyed,
// interned append-only into dense ids) or by dense id (Submit/Apply, which
// grow the universe past any id they name). Reads resolve keys through
// Engine.Resolve / View.ScoreOfKey and translate back with KeyOf; a view
// pinned to a version only resolves keys that existed at that version.
func Open(opts ...Option) (*Engine, error) {
	// Keyedness is resolved as an option rather than patched on after New:
	// a durable Open must know the key space exists BEFORE recovery replays
	// WAL records whose keys need re-interning.
	return New(0, nil, append(append(make([]Option, 0, len(opts)+1), opts...), withKeyed())...)
}

// Apply applies one batch update — del edges removed, ins edges added — and
// publishes the resulting graph version, returning its sequence number.
// The universe is open: an edge naming a vertex beyond the current count
// grows the graph to cover it (new vertices materialise with only their
// dead-end self-loop) instead of erroring. Batches from concurrent callers
// are serialised; readers are never blocked. Ranks do not move until the
// next Rank call, and the store folds every batch applied since the last
// one, however many, into one pending span that Rank replays. The context is
// consulted before the (brief, incremental) snapshot construction starts;
// an already-canceled context applies nothing.
func (e *Engine) Apply(ctx context.Context, del, ins []Edge) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("dfpr: apply aborted: %w", err)
	}
	if err := e.errIfFollower(); err != nil {
		return 0, err
	}
	return e.applyInternal(batch.Update{Del: toInternal(del), Ins: toInternal(ins)})
}

// Grow publishes a version whose vertex universe covers at least n vertices
// without touching any edges: the added vertices materialise isolated, each
// holding only its dead-end self-loop (rank exactly 1/n after the next
// refresh — the paper's dead-end handling in closed form). Growing to a
// size the graph already covers still publishes a version, keeping the
// caller's sequence arithmetic simple. Edge submissions grow implicitly;
// Grow exists for pre-sizing before a bulk load. On a keyed engine the
// key space owns the id space, so Grow cannot reach past Keys() — keyed
// engines pre-size by interning.
func (e *Engine) Grow(ctx context.Context, n int) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("dfpr: grow aborted: %w", err)
	}
	if n < 0 {
		return 0, fmt.Errorf("dfpr: negative vertex count %d", n)
	}
	if err := e.errIfFollower(); err != nil {
		return 0, err
	}
	return e.applyInternal(batch.Update{N: n})
}

// errIfFollower rejects public writes on a follower engine: a replica's
// graph is the writer's WAL replayed, so local mutations would fork it.
// Callers route writes to the leader instead (the serve layer proxies them).
func (e *Engine) errIfFollower() error {
	if e.follower.Load() {
		return ErrNotWriter
	}
	return nil
}

// applyInternal publishes one converted batch as one version: the shared
// tail of Apply, Grow and ApplyKeyed. It calls storeApply directly rather
// than going through the ingest queue — the refresher would rank underneath
// the caller, and the contract here is that ranks do not move until the
// next Rank.
func (e *Engine) applyInternal(up batch.Update) (uint64, error) {
	if err := e.checkUniverse(up); err != nil {
		return 0, err
	}
	return e.storeApply(up, 0)
}

// checkUniverse rejects a batch that would grow the vertex universe past
// the WithMaxVertices bound — the open universe's safety valve: one edge
// naming a huge dense id must be a client error, never a graph-sized
// allocation (let alone one detonating inside the background ingest loop).
//
// On a keyed engine the universe belongs to the key space: vertex ids are
// interned in first-mention order, so a DENSE write may only name vertices
// the key space already covers. Letting it grow past the interner would
// put unkeyed vertices under ids the interner hands out later — a fresh
// key would alias an existing vertex's score and resolve on views
// published before the key existed, breaking the version-pinning contract.
func (e *Engine) checkUniverse(up batch.Update) error {
	universe := up.Universe(0)
	if universe > e.opts.maxN {
		return fmt.Errorf("dfpr: batch would grow the universe to %d vertices, beyond the bound %d (WithMaxVertices): %w",
			universe, e.opts.maxN, ErrTooManyVertices)
	}
	if e.keys != nil && universe > e.keys.Len() {
		return fmt.Errorf("dfpr: dense write names vertex %d beyond the key space (%d keys interned): keyed engines grow through keys — use SubmitKeyed/ApplyKeyed, or Resolve ids first: %w",
			universe-1, e.keys.Len(), ErrTooManyVertices)
	}
	return nil
}

func toInternal(edges []Edge) []graph.Edge {
	if len(edges) == 0 {
		return nil
	}
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{U: e.U, V: e.V}
	}
	return out
}

// Rank brings the PageRank vector up to the latest published graph version
// and returns it, through the engine's one ranker (snapshot.Ranker.Refresh).
// The first call converges ranks from scratch with the lock-free StaticLF
// and does not count as a refresh in Stats; every later call replays all
// the batches applied since the last one as one merged span with DF-LF,
// touching only frontier-sized work, however far the ranks lagged (the
// store folds every batch its ranks have not replayed into one pending
// span, whatever WithHistory is). Every run is lock-free, so a worker crash-stopped by a
// FaultPlan slows a run down but cannot stop it while one worker lives.
// Successful calls that advance the version publish one view and push the
// Result to every subscriber.
//
// Rank honours ctx: cancellation or deadline aborts the run in progress,
// all worker goroutines exit before Rank returns, the error satisfies
// errors.Is(err, ErrCanceled), and the engine's ranks remain at the last
// completed version. On failure (cancellation, or every worker crashed
// under a FaultPlan, which surfaces as itself) the returned Result carries
// the failed run's diagnostics — but
// no rank vector — alongside the error. A refresh is one run over the whole
// pending span, so a failure moves nothing: the next successful Rank covers
// the same span, and whatever was applied since. A failed first Rank
// leaves the engine unranked; the next one converges cold.
func (e *Engine) Rank(ctx context.Context) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	rk := e.ranker
	refreshes := rk.Refreshes
	res, advanced, err := rk.Refresh(ctx)
	e.met.noteRun(res)
	// A failed run's vector may be partial (a canceled pass stops
	// mid-iteration), so it is not servable; its Result carries the run's
	// diagnostics only, and the ranker has not moved (advanced is 0).
	out := resultOf(res, advanced)
	out.Seq = rk.Seq()
	if err != nil {
		return out, err
	}
	if advanced == 0 {
		// Nothing new to publish: the engine was already current, so the
		// latest published view is exactly this result's view.
		out.View = e.latest.Load()
		return out, nil
	}
	e.met.refreshes.Add(uint64(rk.Refreshes - refreshes))
	e.publishLocked(out)
	e.met.rankSeconds.Observe(out.Elapsed.Seconds())
	return out, nil
}

// resultOf converts an internal result's diagnostics. The rank vector is
// not carried here: successful results get a zero-copy View attached at
// publication (publishLocked), failed ones stay without rank state.
func resultOf(res core.Result, advanced int) *Result {
	return &Result{
		Advanced:       advanced,
		Iterations:     res.Iterations,
		Converged:      res.Converged,
		CrashedWorkers: res.CrashedWorkers,
		Elapsed:        res.Elapsed,
	}
}

// View returns a zero-copy read handle on the latest published ranks. It
// never blocks behind an in-flight Rank (one atomic load), the returned
// view is immutable and shared by every caller of the same version, and it
// stays valid — pinned to its version — for as long as the caller holds it.
// Before the first successful Rank there are no ranks to serve and View
// returns ErrNoRanks.
func (e *Engine) View() (*View, error) {
	v := e.latest.Load()
	if v == nil {
		return nil, ErrNoRanks
	}
	return v, nil
}

// ViewAt returns the read handle for a previously published rank version
// still inside the engine's retention window (WithHistory versions of
// published ranks are kept). Only versions a Rank actually published exist:
// a Rank that advanced several graph versions at once published only the
// final one. Requests outside the window return ErrVersionEvicted; a view
// obtained earlier keeps working regardless of trimming.
func (e *Engine) ViewAt(seq uint64) (*View, error) {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	for i := len(e.views) - 1; i >= 0; i-- {
		if v := e.views[i]; v.seq == seq {
			return v, nil
		}
		if e.views[i].seq < seq {
			break
		}
	}
	return nil, fmt.Errorf("dfpr: rank version %d: %w", seq, ErrVersionEvicted)
}

// Version returns the latest published graph version.
func (e *Engine) Version() uint64 { return e.store.Current().Seq }

// Behind reports how many published versions the latest computed ranks lag
// the graph. Before the first Rank it counts every version including the
// initial one.
func (e *Engine) Behind() uint64 {
	// View before store: published ranks trail the store monotonically, so
	// this order can never underflow when a concurrent Apply+Rank advances
	// both between the loads.
	p := e.latest.Load()
	seq := e.store.Current().Seq
	if p == nil {
		return seq + 1
	}
	return seq - p.seq
}

// Stats reports the engine's versions and size, how it has kept its ranks
// fresh so far, and what the ingest pipeline has coalesced — the body of
// /v1/stats. It never blocks behind an in-flight Rank or a WAL fsync (it
// briefly takes ingestMu for the queue depth, which no slow operation ever
// holds); counters reflect the most recently finished call.
func (e *Engine) Stats() Stats {
	e.ingestMu.Lock()
	queued := e.ingestEdits
	e.ingestMu.Unlock()
	m := e.met
	s := Stats{
		Keyed:            e.keys != nil,
		Keys:             e.Keys(),
		Refreshes:        int(m.refreshes.Value()),
		Superseded:       int(m.superseded.Value()),
		QueuedEdits:      queued,
		QueueBound:       e.opts.queue,
		IngestRounds:     int64(m.ingestRounds.Value()),
		CoalescedEdits:   int64(m.ingestCoalesced.Value()),
		ReplicationStats: e.replication(),
	}
	// View before store, as in Behind.
	v := e.latest.Load()
	s.Version = e.store.Current().Seq
	s.Behind = s.Version + 1
	if v != nil {
		s.RankVersion, s.Behind, s.Ready = v.seq, s.Version-v.seq, true
		s.Vertices, s.Edges = v.N(), v.M()
	}
	if d := e.durable(); d != nil {
		ls := d.log.Stats()
		s.DurabilityStats = DurabilityStats{
			Enabled:         true,
			WALSeq:          ls.Seq,
			CheckpointSeq:   ls.CheckpointSeq,
			LastFsync:       ls.LastSync.UTC(),
			Recovering:      d.recovering.Load(),
			Degraded:        ls.Degraded,
			ReplayedRecords: d.replayed,
		}
		if ls.Err != nil {
			s.DurabilityStats.Err = fmt.Errorf("%w: %w", ErrDurabilityDegraded, ls.Err)
		}
	}
	return s
}

// SetFaultPlan replaces the fault-injection plan applied to subsequent
// runs; a delay probability outside [0, 1] is an error. It is the one
// chaos-testing control: converge cleanly (or arm before the first Rank),
// apply a batch, and observe how DF-LF behaves under delays or crash-stop
// failures. The plan lives in the engine's ranker, which runs every Rank.
// The zero plan disarms.
func (e *Engine) SetFaultPlan(p FaultPlan) error {
	if p.DelayProb < 0 || p.DelayProb > 1 {
		return fmt.Errorf("dfpr: delay probability %v out of range [0, 1]", p.DelayProb)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ranker.SetFault(p.internal())
	return nil
}

// Close shuts the engine down: the ingest pipeline stops (the refresher's
// in-flight Rank is canceled; submissions still queued fail their tickets
// with ErrClosed — Flush first to make them durable), WaitVersion/WaitRanked
// callers are released with ErrClosed, and every subscription's channel
// closes. In-flight Rank and Apply calls finish first (cancel a Rank's
// context to hurry it). Rank, Apply, Submit and Flush calls from the moment
// Close starts return ErrClosed. Close is idempotent: every call returns
// once the engine is closed, with the log's sticky degradation cause (if
// any).
func (e *Engine) Close() error {
	first := !e.closed.Swap(true)
	// The pipeline is stopped before mu is taken: the refresher's Rank
	// holds mu, so stopping it afterwards would deadlock.
	e.stopIngest(first)
	// mu waits out an in-flight Rank and closeMu an in-flight apply; every
	// later one sees closed. Holding closeMu to the end also keeps the log
	// free of appends while it closes.
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	e.verWM.close()
	e.rankWM.close()
	e.subMu.Lock()
	for id, sub := range e.subs {
		delete(e.subs, id)
		close(sub.ch)
	}
	e.subMu.Unlock()
	if d := e.durable(); d != nil {
		// Durable teardown: wait out an in-flight background checkpoint,
		// then flush and close the log — Close is the last fsync barrier, so
		// everything applied before it survives a subsequent crash. The
		// log's sticky degradation cause (if any) is the return value;
		// closing the log again only reports that cause again.
		d.ckptWG.Wait()
		if err := d.log.Close(); err != nil {
			return fmt.Errorf("%w: %w", ErrDurabilityDegraded, err)
		}
	}
	return nil
}
