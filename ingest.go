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
// returns immediately with a Ticket, a single background ingest loop
// coalesces everything queued into ONE merged batch per round (delta-merge
// snapshot cost scales with the merged batch, not the call count), and a
// rank scheduler drives Rank off the caller's path according to the
// configured RankPolicy. Completion is observable through tickets and the
// WaitVersion/WaitRanked watermarks; WithIngestQueue bounds the queue so a
// firehose of writers sees ErrQueueFull backpressure instead of unbounded
// memory growth.

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

// rankPolicyKind enumerates the scheduling disciplines of RankPolicy.
type rankPolicyKind int

const (
	rankImmediate rankPolicyKind = iota
	rankDebounce
	rankEveryN
)

// RankPolicy decides when the ingest loop refreshes ranks. Construct one
// with RankImmediate, RankDebounce or RankEveryN and install it with
// WithRankPolicy; the zero value behaves like RankImmediate().
type RankPolicy struct {
	kind  rankPolicyKind
	every int
	quiet time.Duration
	max   time.Duration
}

// RankImmediate refreshes ranks after every coalesced round — the freshest
// discipline, still off the submitter's path (the default). A Submit that
// arrives while such a refresh runs supersedes it: the refresh is canceled
// and the next one covers both rounds, so a WaitRanked caller sits through
// one refresh, not the stale one plus its own. The refresh after a
// supersession always lands, so a steady writer cannot starve ranks.
func RankImmediate() RankPolicy { return RankPolicy{kind: rankImmediate} }

// RankDebounce refreshes once the round stream has been quiet for the given
// duration, but never lets published-yet-unranked edits age beyond
// maxLatency: a steady firehose is ranked every maxLatency, a trickle at
// quiet-edge boundaries. maxLatency is the freshness deadline a deployment
// promises its readers.
func RankDebounce(quiet, maxLatency time.Duration) RankPolicy {
	return RankPolicy{kind: rankDebounce, quiet: quiet, max: maxLatency}
}

// RankEveryN refreshes once at least n edits (edges of the merged batches)
// have been published since the last refresh. Leftovers below the threshold
// stay unranked until more arrive or Flush forces a refresh.
func RankEveryN(n int) RankPolicy { return RankPolicy{kind: rankEveryN, every: n} }

// String names the policy for logs and stats pages.
func (p RankPolicy) String() string {
	switch p.kind {
	case rankDebounce:
		return fmt.Sprintf("debounce(%v, max %v)", p.quiet, p.max)
	case rankEveryN:
		return fmt.Sprintf("every(%d edits)", p.every)
	default:
		return "immediate"
	}
}

func (p RankPolicy) validate() error {
	switch p.kind {
	case rankDebounce:
		if p.quiet <= 0 {
			return fmt.Errorf("dfpr: debounce quiet %v must be positive", p.quiet)
		}
		if p.max < p.quiet {
			return fmt.Errorf("dfpr: debounce max latency %v below quiet %v", p.max, p.quiet)
		}
	case rankEveryN:
		if p.every <= 0 {
			return fmt.Errorf("dfpr: rank-every-N threshold %d must be positive", p.every)
		}
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
// applied in order as a single batch), publishes one version for the round,
// and refreshes ranks per the engine's RankPolicy. Like Apply, Submit is
// open-universe: edges naming vertices beyond the current count grow the
// graph when their round applies. Use Ticket.Wait (or
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
// Like Apply, submission is open-universe: edges naming vertices beyond the
// current count grow the graph when their coalescing round applies.
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
	if e.ingestClosed {
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
	supersede := e.ingestSupersede
	e.ingestSupersede = nil
	e.ingestMu.Unlock()
	if supersede != nil {
		// The refresh in flight is stale: cancel it so the loop takes this
		// round at once and ranks both in one merged run (ingestLoop).
		supersede()
	}
	e.wakeIngest()
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
	if e.ingestClosed {
		e.ingestMu.Unlock()
		return ErrClosed
	}
	e.flushQ = append(e.flushQ, f)
	e.startIngestLocked()
	e.ingestMu.Unlock()
	e.wakeIngest()
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

// startIngestLocked launches the ingest loop on first use. Caller holds
// e.ingestMu.
func (e *Engine) startIngestLocked() {
	if e.ingestOn {
		return
	}
	e.ingestOn = true
	e.ingestWake = make(chan struct{}, 1)
	e.ingestStop = make(chan struct{})
	e.ingestDone = make(chan struct{})
	e.ingestCtx, e.ingestHalt = context.WithCancel(context.Background())
	go e.ingestLoop()
}

// wakeIngest nudges the loop; a pending nudge suffices for any number of
// submissions.
func (e *Engine) wakeIngest() {
	select {
	case e.ingestWake <- struct{}{}:
	default:
	}
}

// stopIngest shuts the pipeline down: no new submissions, the in-flight
// scheduled Rank (if any) is canceled, queued-but-unapplied tickets fail
// with ErrClosed. Called by Close before the engine-side teardown; safe to
// call more than once.
func (e *Engine) stopIngest() {
	e.ingestMu.Lock()
	first := !e.ingestClosed
	e.ingestClosed = true
	on := e.ingestOn
	e.ingestMu.Unlock()
	if first && on {
		close(e.ingestStop)
		e.ingestHalt()
	}
	if on {
		<-e.ingestDone
	}
}

// ingestLoop is the single background consumer: one coalescing round per
// wake-up, then a policy decision whether to rank now, later (timer), or
// not yet.
func (e *Engine) ingestLoop() {
	defer close(e.ingestDone)
	var (
		pending    int       // applied-but-unranked edits
		dirtySince time.Time // when pending went 0 → positive
		lastRound  time.Time // when the newest round was applied
		superseded bool      // the pending span has had its one supersession
		timer      *time.Timer
	)
	for {
		var timerC <-chan time.Time
		if timer != nil {
			timerC = timer.C
		}
		select {
		case <-e.ingestStop:
			e.failPending(ErrClosed)
			return
		case <-e.ingestWake:
		case <-timerC:
			timer = nil
		}
		if timer != nil {
			if !timer.Stop() {
				<-timer.C
			}
			timer = nil
		}

		// Drain: everything queued right now becomes one round; flushes
		// taken in the same critical section cover at least every submission
		// accepted before them.
		e.ingestMu.Lock()
		q := e.ingestQ
		flushes := e.flushQ
		e.ingestQ = nil
		e.flushQ = nil
		e.ingestEdits = 0
		e.ingestMu.Unlock()

		if len(q) > 0 {
			ups := make([]batch.Update, len(q))
			for i, p := range q {
				ups[i] = batch.Update{Del: p.del, Ins: p.ins, N: p.n}
			}
			merged := batch.Merge(ups...)
			// A round changes the graph when edges survived the merge OR the
			// submissions' universe outgrows the store: a vertex whose only
			// edge was inserted and deleted within the round still exists
			// afterwards (exactly as sequential application would leave it),
			// so pure-growth rounds must publish — and count as an edit below,
			// or no policy would ever rank the rescaled teleport term.
			grows := merged.N > e.store.Current().G.N()
			if merged.Size() == 0 && !grows {
				// Nothing survived the merge (empty submissions, or churn
				// that cancelled out) and no growth: the graph would not
				// change, so publishing a version — which no policy would
				// ever rank, stranding WaitRanked on it — is wrong. Resolve
				// the tickets to the current version instead.
				resolveTickets(q, e.store.Current().Seq, nil)
			} else {
				// storeApply is the publish point: it refuses once Close has
				// flipped applyble (stopIngest runs before that flip, so in
				// practice the loop is gone first), and on durable engines the
				// round's WAL record is appended (fsynced per policy) before the
				// version becomes visible.
				seq, err := e.storeApply(merged, 0, false)
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
				resolveTickets(q, seq, nil)
				if pending == 0 {
					dirtySince = time.Now()
				}
				// A pure-growth round carries no edges but still moved every
				// rank (the teleport term rescaled): count at least one edit
				// so the rank policies see it.
				pending += max(merged.Size(), 1)
				lastRound = time.Now()
			}
		}

		// Rank scheduling: flushes force a full catch-up; otherwise the
		// policy decides now / at a deadline / not yet.
		rankNow := len(flushes) > 0 && e.Behind() > 0
		p := e.opts.policy
		if pending > 0 {
			switch p.kind {
			case rankImmediate:
				rankNow = true
			case rankEveryN:
				rankNow = rankNow || pending >= p.every
			case rankDebounce:
				deadline := lastRound.Add(p.quiet)
				if md := dirtySince.Add(p.max); md.Before(deadline) {
					deadline = md
				}
				if !time.Now().Before(deadline) {
					rankNow = true
				} else if !rankNow {
					timer = time.NewTimer(time.Until(deadline))
				}
			}
		}
		// At a burst's trailing edge — nothing further queued — settle the
		// key space so a now-idle engine serves its freshest keys lock-free
		// (gated against trickle-write quadratic copying; see keymap.Settle).
		if e.keys != nil {
			e.ingestMu.Lock()
			idle := len(e.ingestQ) == 0
			e.ingestMu.Unlock()
			if idle {
				e.keys.Settle()
			}
		}

		var rankErr error
		if rankNow {
			// Supersession (DESIGN §6): under RankImmediate a Submit that
			// arrives mid-refresh cancels it, and the next refresh replays
			// both rounds as one merged DF-LF run. Never a Flush's refresh,
			// the initial convergence, a rebuild (links gone from the ring),
			// or the refresh after a supersession — so a version waits for at
			// most one canceled partial refresh plus one full one.
			supersedable := p.kind == rankImmediate && len(flushes) == 0 && !superseded &&
				e.latest.Load() != nil && e.Behind() <= uint64(e.opts.history)
			if s, err := e.rankScheduled(supersedable); s {
				// Not a failure: the new round is already queued and woke
				// the loop, so no retry timer is armed.
				superseded = true
				e.met.superseded.Inc()
			} else if err != nil {
				rankErr = err
				// A failed refresh must not strand applied-but-unranked
				// edits: when the stream goes quiet nothing else re-wakes
				// the loop, so arm a retry — unless the pipeline is being
				// shut down (canceled context), where the stop signal wins.
				if pending > 0 && timer == nil && e.ingestCtx.Err() == nil {
					timer = time.NewTimer(rankRetryDelay)
				}
			} else {
				pending, superseded = 0, false
			}
		}
		// A refresh canceled by the pipeline's own shutdown is the documented
		// close state, not a caller-visible cancellation.
		if rankErr != nil && e.ingestCtx.Err() != nil {
			rankErr = ErrClosed
		}
		resolveFlushes(flushes, rankErr)
	}
}

// rankScheduled runs the loop's refresh on the loop's context. A
// supersedable one runs on a child context whose cancel func is parked in
// ingestSupersede for the next Submit to take; superseded reports that the
// run was canceled that way (the pipeline still running) instead of landing.
// A submission queued before the cancel func is parked supersedes the
// refresh before it starts, so whether a round arrives just before or just
// after the refresh begins, the loop runs one refresh over both.
func (e *Engine) rankScheduled(supersedable bool) (superseded bool, err error) {
	if !supersedable {
		_, err = e.Rank(e.ingestCtx)
		return false, err
	}
	ctx, cancel := context.WithCancel(e.ingestCtx)
	defer cancel()
	e.ingestMu.Lock()
	if len(e.ingestQ) > 0 {
		e.ingestMu.Unlock()
		return true, nil
	}
	e.ingestSupersede = cancel
	e.ingestMu.Unlock()
	_, err = e.Rank(ctx)
	e.ingestMu.Lock()
	e.ingestSupersede = nil
	e.ingestMu.Unlock()
	return err != nil && ctx.Err() != nil && e.ingestCtx.Err() == nil, err
}

// rankRetryDelay is how long the ingest loop waits before retrying a rank
// refresh that failed (crashed workers under a fault plan, typically)
// while applied-but-unranked edits are pending.
const rankRetryDelay = 50 * time.Millisecond

// failPending rejects everything still queued at shutdown. Submissions
// accepted but not yet applied are lost by contract — Flush before Close
// makes them durable.
func (e *Engine) failPending(err error) {
	e.ingestMu.Lock()
	q := e.ingestQ
	flushes := e.flushQ
	e.ingestQ = nil
	e.flushQ = nil
	e.ingestEdits = 0
	e.ingestMu.Unlock()
	resolveTickets(q, 0, err)
	resolveFlushes(flushes, err)
}

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
