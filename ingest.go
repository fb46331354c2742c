package dfpr

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/graph"
)

// This file is the engine's write-side pipeline: Submit enqueues edits and
// returns immediately with a Ticket, the ingest loop coalesces everything
// queued into ONE merged batch per round (delta-merge snapshot cost scales
// with the merged batch, not the call count) and publishes it, and the
// refresher ranks behind the loop (and a follower's apply loop), never
// blocking it, once the RankPolicy's threshold is reached. Completion is
// observable through tickets and the WaitVersion/WaitRanked watermarks;
// WithIngestQueue bounds the queue, so a firehose of writers sees
// ErrQueueFull backpressure instead of unbounded memory growth.

// Ticket tracks one Submit through the ingest pipeline. Done closes when the
// submission's edits have been applied and published (coalesced with
// whatever else was queued); Version then names the graph version that
// carries them. A submission never gets a version of its own — the round's
// merged batch publishes one version shared by every ticket it coalesced.
type Ticket struct {
	done chan struct{}
	seq  uint64 // valid once done is closed
	err  error  // valid once done is closed
}

// Done returns a channel that closes when the submission has been applied
// (or failed terminally — see Version for the distinction).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Version returns the graph version the submission was published in. Before
// Done closes it reports ErrPending; after a Close that threw the queued
// submission away it reports ErrClosed.
func (t *Ticket) Version() (uint64, error) {
	select {
	case <-t.done:
		return t.seq, t.err
	default:
		return 0, ErrPending
	}
}

// Wait blocks until the submission is applied (returning its version) or
// ctx ends.
func (t *Ticket) Wait(ctx context.Context) (uint64, error) {
	select {
	case <-t.done:
		return t.seq, t.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// rankPolicyKind enumerates the disciplines of RankPolicy.
type rankPolicyKind int

const (
	rankImmediate rankPolicyKind = iota
	rankEveryN
)

// RankPolicy decides when the refresher ranks behind the ingest loop.
// Construct one with RankImmediate or RankEveryN and install it with
// WithRankPolicy; the zero value behaves like RankImmediate().
type RankPolicy struct {
	kind  rankPolicyKind
	every int
}

// RankImmediate ranks whenever the ranks lag the graph — the freshest
// discipline, still off the submitter's path (the default). A round
// published while such a refresh catches up to an older version supersedes
// it: the refresh is canceled and the next one covers both, so a WaitRanked
// caller sits through one refresh, not the stale one plus its own. The
// refresh after a supersession always lands, so a steady writer cannot
// starve ranks.
func RankImmediate() RankPolicy { return RankPolicy{kind: rankImmediate} }

// RankEveryN ranks once at least n edits (edges of the merged batches) have
// been published since the last landed refresh. Leftovers below the
// threshold stay unranked until more arrive or Flush forces a refresh,
// however many versions they span (the store's pending span keeps them for
// the replay); an engine without ranks converges at once.
func RankEveryN(n int) RankPolicy { return RankPolicy{kind: rankEveryN, every: n} }

// String names the policy for logs and stats pages.
func (p RankPolicy) String() string {
	if p.kind == rankEveryN {
		return fmt.Sprintf("every(%d edits)", p.every)
	}
	return "immediate"
}

func (p RankPolicy) validate() error {
	if p.kind == rankEveryN && p.every <= 0 {
		return fmt.Errorf("dfpr: rank-every-N threshold %d must be positive", p.every)
	}
	return nil
}

// pendingSubmit is one queued Submit awaiting its coalescing round. n is
// the universe the submission's insertions require, recorded at submit time
// so the round's Merge — whose edge fold is last-op-wins — cannot lose
// growth when an insertion is cancelled by a later deletion in the same
// round: sequential application would have grown (vertices outlive their
// edges), so the coalesced round must too, or the teleport term (1-α)/n of
// every rank would depend on coalescing timing.
type pendingSubmit struct {
	del, ins []graph.Edge
	n        int
	t        *Ticket
}

// flushReq is one Flush awaiting the queue to be applied and ranked.
type flushReq struct {
	done chan struct{}
	err  error
}

// Submit enqueues one batch update — del edges removed, ins edges added —
// onto the ingest pipeline and returns a Ticket immediately. The background
// loop coalesces every queued submission into one merged batch per round
// (last operation per edge wins, exactly as if the submissions had been
// applied in order as a single batch) and publishes one version for the
// round; the refresher ranks behind it per the engine's RankPolicy. Like
// Apply, Submit is open-universe: edges naming vertices beyond the current
// count grow the graph when their round applies. Use Ticket.Wait (or
// Done/Version) for the assigned version and WaitRanked to observe the
// refresh; Apply remains the synchronous one-version-per-call path.
//
// When the queued edits would exceed the WithIngestQueue bound, Submit
// rejects the batch with ErrQueueFull — the backpressure signal for callers
// to retry later. A submission larger than the whole bound can never be
// accepted.
func (e *Engine) Submit(ctx context.Context, del, ins []Edge) (*Ticket, error) {
	if err := e.errIfFollower(); err != nil {
		return nil, err
	}
	return e.submitInternal(ctx, toInternal(del), toInternal(ins))
}

// submitInternal enqueues one already-converted batch — shared by Submit
// and SubmitKeyed (whose keys are interned to dense ids before this point).
func (e *Engine) submitInternal(ctx context.Context, gdel, gins []graph.Edge) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dfpr: submit aborted: %w", err)
	}
	// The universe this submission requires is pinned NOW (insertions
	// only; deletions never grow) and the bound enforced at submission,
	// where the caller can still be told — a round merging many in-bound
	// submissions stays in bound (Merge folds N as a max).
	up := batch.Update{Del: gdel, Ins: gins}
	up.N = up.Universe(0)
	if err := e.checkUniverse(up); err != nil {
		e.met.rejectSize.Inc()
		return nil, err
	}
	t := &Ticket{done: make(chan struct{})}
	size := len(gdel) + len(gins)
	e.ingestMu.Lock()
	if e.closed.Load() {
		e.ingestMu.Unlock()
		return nil, ErrClosed
	}
	if queued := e.ingestEdits; e.opts.queue > 0 && queued+size > e.opts.queue {
		e.ingestMu.Unlock()
		e.met.rejectFull.Inc()
		return nil, fmt.Errorf("dfpr: %d edits queued, %d more would exceed the bound %d: %w",
			queued, size, e.opts.queue, ErrQueueFull)
	}
	e.ingestQ = append(e.ingestQ, pendingSubmit{del: gdel, ins: gins, n: up.N, t: t})
	e.ingestEdits += size
	e.met.submissions.Inc()
	e.startIngestLocked()
	e.ingestMu.Unlock()
	wake(e.ingestWake)
	return t, nil
}

// Flush drives everything accepted by Submit so far through the pipeline
// and then brings ranks up to the latest published version, regardless of
// the rank policy — the drain hook a graceful shutdown calls before Close.
// It returns when the engine is fully caught up (or ctx ends first; the
// pipeline keeps working in that case, only the wait is abandoned).
func (e *Engine) Flush(ctx context.Context) error {
	f := &flushReq{done: make(chan struct{})}
	e.ingestMu.Lock()
	if e.closed.Load() {
		e.ingestMu.Unlock()
		return ErrClosed
	}
	e.flushQ = append(e.flushQ, f)
	e.startIngestLocked()
	e.ingestMu.Unlock()
	wake(e.ingestWake)
	select {
	case <-f.done:
		if d := e.durable(); f.err == nil && d != nil {
			// A drain is a durability barrier too: under batched fsync the
			// drained rounds may still sit in the page cache — force them
			// down so "Flush returned" means "survives a crash".
			if err := d.log.Sync(); err != nil {
				return fmt.Errorf("%w: %w", ErrDurabilityDegraded, err)
			}
		}
		return f.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WaitVersion blocks until the published graph version reaches seq (from
// Apply or from an ingest round), ctx ends, or the engine closes
// (ErrClosed). Version 0 exists from construction, so WaitVersion(ctx, 0)
// returns immediately.
func (e *Engine) WaitVersion(ctx context.Context, seq uint64) error {
	return e.verWM.wait(ctx, seq)
}

// WaitRanked blocks until the published RANK version reaches seq — i.e.
// ranks at least as fresh as graph version seq are being served — ctx ends,
// or the engine closes (ErrClosed). Before the first successful Rank no
// rank version exists, so even WaitRanked(ctx, 0) waits.
func (e *Engine) WaitRanked(ctx context.Context, seq uint64) error {
	return e.rankWM.wait(ctx, seq)
}

// startIngestLocked launches the ingest loop and the refresher on first
// use of an open engine. Caller holds e.ingestMu.
func (e *Engine) startIngestLocked() {
	if e.ingestOn || e.closed.Load() {
		return
	}
	e.ingestOn = true
	e.ingestWake = make(chan struct{}, 1)
	e.rankWake = make(chan struct{}, 1)
	e.ingestCtx, e.ingestHalt = context.WithCancel(context.Background())
	e.ingestWG.Add(2)
	go e.ingestLoop()
	go e.refresher()
}

// startPipeline starts the pipeline of an open engine before any Submit
// (a Cluster's engine, in every role) and wakes the refresher, so an engine
// without ranks converges at once.
func (e *Engine) startPipeline() {
	e.ingestMu.Lock()
	e.startIngestLocked()
	e.ingestMu.Unlock()
	wake(e.rankWake)
}

// wake nudges the goroutine reading ch (nil: nobody, a no-op); a pending
// nudge suffices for any number of events.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// stopIngest shuts the pipeline down once Close has set closed: no new
// submissions (they read closed under ingestMu, and goroutines started
// before this critical section are seen by it), the in-flight refresh (if
// any) is canceled, and queued-but-unapplied tickets and unresolved flushes
// fail with ErrClosed. The first Close stops both goroutines; every call
// waits for them to exit.
func (e *Engine) stopIngest(first bool) {
	e.ingestMu.Lock()
	on := e.ingestOn
	e.ingestMu.Unlock()
	if !on {
		return
	}
	if first {
		e.ingestHalt()
	}
	e.ingestWG.Wait()
	// Submissions accepted but not yet applied are lost by contract — Flush
	// before Close makes them durable.
	e.ingestMu.Lock()
	q, flushes := e.ingestQ, append(e.flushQ, e.rankFlushes...)
	e.ingestQ, e.flushQ, e.rankFlushes, e.ingestEdits = nil, nil, nil, 0
	e.ingestMu.Unlock()
	resolveTickets(q, 0, ErrClosed)
	resolveFlushes(flushes, ErrClosed)
}

// ingestLoop is the write side's one consumer: one coalescing round per
// wake-up — drain, merge, log, publish, resolve the round's tickets, settle
// the key space. It never ranks: each published round and each drained
// Flush is handed to the refresher.
func (e *Engine) ingestLoop() {
	defer e.ingestWG.Done()
	for {
		select {
		case <-e.ingestCtx.Done():
			return
		case <-e.ingestWake:
		}

		// Drain: everything queued right now becomes one round; flushes
		// taken in the same critical section cover at least every submission
		// accepted before them.
		e.ingestMu.Lock()
		q, flushes := e.ingestQ, e.flushQ
		e.ingestQ, e.flushQ, e.ingestEdits = nil, nil, 0
		e.ingestMu.Unlock()

		var published uint64 // the round's version; 0 when it published none
		if len(q) > 0 {
			ups := make([]batch.Update, len(q))
			for i, p := range q {
				ups[i] = batch.Update{Del: p.del, Ins: p.ins, N: p.n}
			}
			merged := batch.Merge(ups...)
			// A round publishes when edges survived the merge OR it grows
			// the universe: a vertex whose only edge churned within the
			// round still exists afterwards, as sequential application
			// leaves it, and counts as an edit toward the policy's
			// threshold (refreshDueLocked).
			grows := merged.N > e.store.Current().G.N()
			if merged.Size() == 0 && !grows {
				// Nothing to publish: a version that changes nothing would
				// never be ranked, stranding WaitRanked on it. Resolve the
				// tickets to the current version instead.
				resolveTickets(q, e.store.Current().Seq, nil)
			} else {
				// storeApply refuses once Close has set closed (before it
				// stops the loop, so a round drained as Close begins fails
				// with ErrClosed) and logs before it publishes.
				seq, err := e.storeApply(merged, 0)
				if err != nil {
					resolveTickets(q, seq, err)
					resolveFlushes(flushes, err)
					continue
				}
				// Counted before the tickets resolve: a writer that holds its
				// version must find the round in Stats (serve's Shutdown
				// flushes only when IngestRounds says the pipeline ran).
				e.met.ingestRounds.Inc()
				e.met.ingestCoalesced.Add(uint64(merged.Size()))
				published = seq
			}
		}

		// Handed off before the tickets resolve, so a writer that holds this
		// round's version knows a stale refresh is gone.
		idle := e.handOff(published, flushes)
		if published > 0 {
			resolveTickets(q, published, nil)
		}
		// At a burst's trailing edge — nothing further queued — settle the
		// key space so a now-idle engine serves its freshest keys lock-free
		// (gated against trickle-write quadratic copying; see keymap.Settle).
		if idle && e.keys != nil {
			e.keys.Settle()
		}
	}
}

// handOff is the one step after a publication (version published, 0 for
// none), run by the ingest loop and by replay: it supersedes a refresh in
// flight that catches up to an older version (DESIGN §6), queues the drained
// flushes for the refresher and wakes it — a no-op before the pipeline
// exists (recovery). It reports whether the ingest queue is empty.
func (e *Engine) handOff(published uint64, flushes []*flushReq) (idle bool) {
	e.ingestMu.Lock()
	if e.supersede != nil && published > e.refreshTip {
		e.supersede()
		e.supersede = nil
	}
	e.rankFlushes = append(e.rankFlushes, flushes...)
	idle, rankWake := len(e.ingestQ) == 0, e.rankWake
	e.ingestMu.Unlock()
	if published > 0 || len(flushes) > 0 {
		wake(rankWake)
	}
	return idle
}

// refreshDueLocked reports whether the refresher has work: ranks lag the
// graph, and a Flush waits or the edits of the store's pending span reach
// the policy's threshold. A version whose batch carries no edges (pure
// growth) still moved every rank and counts as one edit. Caller holds
// e.ingestMu.
func (e *Engine) refreshDueLocked() bool {
	behind := e.Behind()
	switch {
	case behind == 0:
		return false
	case len(e.rankFlushes) > 0 || e.opts.policy.kind == rankImmediate:
		return true
	}
	if e.latest.Load() == nil {
		return true // the first convergence
	}
	return e.store.PendingEdits() >= e.opts.policy.every
}

// refresher ranks behind the ingest loop, and a follower's apply loop, on
// the pipeline's own context — never a request's, so a disconnecting writer
// cannot abort a refresh other readers are waiting on. It refreshes whenever refreshDueLocked says so;
// whatever the loop publishes meanwhile, the next refresh replays as one
// merged span, so under a firehose it batches by itself at one refresh per
// refresh time.
func (e *Engine) refresher() {
	defer e.ingestWG.Done()
	var (
		superseded bool             // the pending span has had its one supersession
		retry      <-chan time.Time // armed by a failed refresh
	)
	for {
		select {
		case <-e.ingestCtx.Done():
			return
		case <-e.rankWake:
		case <-retry:
		}
		retry = nil
		e.ingestMu.Lock()
		due := e.refreshDueLocked()
		flushes := e.rankFlushes
		e.rankFlushes = nil
		if !due {
			// Nothing to rank, so the flushes find the engine caught up.
			e.ingestMu.Unlock()
			resolveFlushes(flushes, nil)
			continue
		}
		ctx, cancel := context.WithCancel(e.ingestCtx)
		// Supersedable: under RankImmediate only, and never a Flush's
		// refresh, the first convergence, or the refresh after a
		// supersession — so a version waits for at most one canceled partial
		// refresh plus one full one. The cancel func is armed before the tip
		// is read, in one critical section, so every round published past
		// that tip finds it.
		if e.opts.policy.kind == rankImmediate && len(flushes) == 0 && !superseded && e.latest.Load() != nil {
			e.supersede = cancel
		}
		e.refreshTip = e.store.Current().Seq
		e.ingestMu.Unlock()

		_, err := e.Rank(ctx)
		canceled := ctx.Err() != nil
		cancel()
		e.ingestMu.Lock()
		e.supersede = nil
		e.ingestMu.Unlock()
		switch {
		case err == nil:
			superseded = false
		case e.ingestCtx.Err() != nil:
			// Canceled by the pipeline's own shutdown: the documented close
			// state, not a caller-visible cancellation.
			err = ErrClosed
		case canceled:
			// Superseded, which is not a failure: the round that canceled
			// the refresh has already woken the refresher.
			superseded, err = true, nil
			e.met.superseded.Inc()
		default:
			// A failed refresh must not strand published-but-unranked edits:
			// once the stream goes quiet nothing else wakes the refresher.
			retry = time.After(rankRetryDelay)
		}
		resolveFlushes(flushes, err)
	}
}

// rankRetryDelay is how long the refresher waits before retrying a refresh
// that failed (crashed workers under a fault plan, typically).
const rankRetryDelay = 50 * time.Millisecond

// resolveTickets completes every submission of one round with the version
// that carries it, or the error that lost it.
func resolveTickets(q []pendingSubmit, seq uint64, err error) {
	for _, p := range q {
		p.t.seq, p.t.err = seq, err
		close(p.t.done)
	}
}

func resolveFlushes(flushes []*flushReq, err error) {
	for _, f := range flushes {
		f.err = err
		close(f.done)
	}
}

// watermark is a monotone sequence gate: waiters block until the watermark
// reaches their sequence number, advance releases them, close fails every
// current and future waiter with ErrClosed.
type watermark struct {
	mu      sync.Mutex
	cur     uint64
	has     bool // false until the first advance (rank versions start unset)
	closed  bool
	waiters map[*wmWaiter]struct{}
}

type wmWaiter struct {
	seq uint64
	ch  chan error
}

// init seeds the watermark with an existing sequence (graph version 0
// exists from construction).
func (w *watermark) init(seq uint64) {
	w.cur, w.has = seq, true
}

func (w *watermark) advance(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || (w.has && seq <= w.cur) {
		return
	}
	w.cur, w.has = seq, true
	for wt := range w.waiters {
		if wt.seq <= w.cur {
			wt.ch <- nil
			delete(w.waiters, wt)
		}
	}
}

func (w *watermark) wait(ctx context.Context, seq uint64) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.has && w.cur >= seq {
		w.mu.Unlock()
		return nil
	}
	if err := ctx.Err(); err != nil {
		w.mu.Unlock()
		return err
	}
	wt := &wmWaiter{seq: seq, ch: make(chan error, 1)}
	if w.waiters == nil {
		w.waiters = make(map[*wmWaiter]struct{})
	}
	w.waiters[wt] = struct{}{}
	w.mu.Unlock()
	select {
	case err := <-wt.ch:
		return err
	case <-ctx.Done():
		w.mu.Lock()
		delete(w.waiters, wt)
		w.mu.Unlock()
		// A release may have raced the cancellation; prefer it.
		select {
		case err := <-wt.ch:
			return err
		default:
			return ctx.Err()
		}
	}
}

func (w *watermark) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	for wt := range w.waiters {
		wt.ch <- ErrClosed
		delete(w.waiters, wt)
	}
}
