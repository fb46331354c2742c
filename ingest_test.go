package dfpr

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/testutil"
	"dfpr/internal/topk"
)

// ingestEngine converges a small engine configured for pipeline tests.
func ingestEngine(t *testing.T, opts ...Option) (*Engine, int, []Edge) {
	t.Helper()
	n, edges, _ := testGraph(t, 9, 55)
	base := []Option{WithThreads(2), WithTolerance(1e-3 / float64(n)), WithFrontierTolerance(1e-3 / float64(n))}
	eng, err := New(n, edges, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
	return eng, n, edges
}

// TestSubmitCoalescesToEquivalentGraph pins the pipeline's core contract:
// any interleaving of Submits ends at the same graph as applying all the
// edits as batches, and the post-flush ranks converge to the reference for
// that final graph.
func TestSubmitCoalescesToEquivalentGraph(t *testing.T) {
	ctx := context.Background()
	// No refresh before the Flush: the rounds are the loop's alone.
	eng, n, edges := ingestEngine(t, WithRankPolicy(RankEveryN(1<<30)))

	_, _, mirror := testGraph(t, 9, 55)
	var ups []batch.Update
	for i := 0; i < 12; i++ {
		up := batch.Random(mirror, 10, int64(i))
		mirror.Apply(up.Del, up.Ins)
		ups = append(ups, up)
	}

	// Submissions go in WITHOUT waiting, from one goroutine: the loop drains
	// whatever has piled up per round, so rounds coalesce, while the
	// submission order — which fixes the merge semantics when batches touch
	// the same edge — stays deterministic.
	tickets := make([]*Ticket, len(ups))
	for i, up := range ups {
		tk, err := eng.Submit(ctx, toPublic(up.Del), toPublic(up.Ins))
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		if tk == nil {
			t.Fatal("missing ticket")
		}
		seq, err := tk.Wait(ctx)
		if err != nil || seq == 0 {
			t.Fatalf("ticket %d: seq=%d err=%v", i, seq, err)
		}
		if got, err := tk.Version(); got != seq || err != nil {
			t.Fatalf("ticket %d Version after Done: %d %v", i, got, err)
		}
	}
	st := eng.Stats()
	if st.IngestRounds == 0 || st.IngestRounds > int64(len(ups)) {
		t.Errorf("ingest rounds %d out of range (0, %d]", st.IngestRounds, len(ups))
	}
	if eng.Behind() != 0 {
		t.Errorf("behind=%d after flush", eng.Behind())
	}

	// Reference: a second engine taking the SAME merged edits as one batch.
	ref, err := New(n, edges, WithThreads(2), WithTolerance(1e-3/float64(n)))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	m := batch.Merge(ups...)
	if _, err := ref.Apply(ctx, toPublic(m.Del), toPublic(m.Ins)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.View()
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); int(u) < n; u++ {
		gn, wn := got.Neighbors(u), want.Neighbors(u)
		if len(gn) != len(wn) {
			t.Fatalf("vertex %d: %d vs %d out-neighbours (coalesced graph diverged)", u, len(gn), len(wn))
		}
		for i := range gn {
			if gn[i] != wn[i] {
				t.Fatalf("vertex %d: neighbour %d is %d vs %d", u, i, gn[i], wn[i])
			}
		}
	}
	if e := topk.LInf(ranksOf(got), ranksOf(want)); e > 40*1e-3/float64(n) {
		t.Errorf("coalesced ranks deviate from one-batch reference by %g", e)
	}
}

// TestRankEveryNPolicy pins the threshold policy deterministically: edits
// below N never trigger a refresh, the edit that reaches N does.
func TestRankEveryNPolicy(t *testing.T) {
	ctx := context.Background()
	const n = 6
	eng, _, _ := ingestEngine(t, WithRankPolicy(RankEveryN(n)))

	var lastSeq uint64
	for i := 0; i < n-1; i++ {
		tk, err := eng.Submit(ctx, nil, []Edge{{U: uint32(i), V: uint32(i + 7)}})
		if err != nil {
			t.Fatal(err)
		}
		if lastSeq, err = tk.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Applied but deliberately unranked: the watermark must not move.
	short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if err := eng.WaitRanked(short, lastSeq); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ranked before the every-N threshold: %v", err)
	}
	if eng.Behind() == 0 {
		t.Fatal("engine not behind despite unranked edits")
	}
	// The N-th edit crosses the threshold.
	tk, err := eng.Submit(ctx, nil, []Edge{{U: 30, V: 31}})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel2 := context.WithTimeout(ctx, 10*time.Second)
	defer cancel2()
	if err := eng.WaitRanked(waitCtx, seq); err != nil {
		t.Fatalf("threshold refresh never happened: %v", err)
	}
	v, err := eng.View()
	if err != nil || v.Seq() < seq {
		t.Fatalf("view at %d after WaitRanked(%d), err=%v", v.Seq(), seq, err)
	}
}

// TestSubmitBackpressure pins ErrQueueFull: a submission that cannot ever
// fit is rejected outright, and a stalled loop lets the queue fill to the
// bound.
func TestSubmitBackpressure(t *testing.T) {
	ctx := context.Background()
	eng, _, _ := ingestEngine(t, WithIngestQueue(4), WithRankPolicy(RankImmediate()))

	if _, err := eng.Submit(ctx, nil, []Edge{{U: 0, V: 9}, {U: 1, V: 9}, {U: 2, V: 9}, {U: 3, V: 9}, {U: 4, V: 9}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized submission: %v, want ErrQueueFull", err)
	}
	// Stall the loop in storeApply (closeMu held) so queued edits pile up
	// behind it.
	var park parker
	defer park.release()
	park.lock(&eng.closeMu)
	if _, err := eng.Submit(ctx, nil, []Edge{{U: 0, V: 11}}); err != nil {
		t.Fatal(err)
	}
	// Wait until the loop is stalled with the queue drained once, then fill
	// the bound.
	waitDrained(t, eng)
	fillDeadline := time.Now().Add(5 * time.Second)
	filled := 0
	for filled < 4 {
		if time.Now().After(fillDeadline) {
			t.Fatal("queue never filled behind the stalled loop")
		}
		_, err := eng.Submit(ctx, nil, []Edge{{U: uint32(10 + filled), V: uint32(20 + filled)}})
		switch {
		case err == nil:
			filled++
		case errors.Is(err, ErrQueueFull):
			filled = 4 // bound reached even earlier — done
		default:
			t.Fatal(err)
		}
	}
	// With 4 edits queued (or the bound otherwise reached), one more must
	// bounce.
	sawFull := false
	for i := 0; i < 50 && !sawFull; i++ {
		_, err := eng.Submit(ctx, nil, []Edge{{U: 40, V: uint32(41 + i%8)}})
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Error("backpressure never engaged despite a stalled loop and a bound of 4")
	}
	park.unlock(&eng.closeMu)
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestEmptySubmitResolvesWithoutPublishing pins the empty-round rule: a
// Submit whose merged batch is empty must not publish a version (no policy
// would ever rank it, stranding WaitRanked); its ticket resolves to the
// current version and the ranked watermark stays reachable.
func TestEmptySubmitResolvesWithoutPublishing(t *testing.T) {
	ctx := context.Background()
	eng, _, _ := ingestEngine(t) // RankImmediate default; ranks cover version 0
	tk, err := eng.Submit(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := tk.Wait(ctx)
	if err != nil || seq != 0 {
		t.Fatalf("empty submit resolved to seq=%d err=%v, want the current version 0", seq, err)
	}
	if eng.Version() != 0 {
		t.Fatalf("empty submit published version %d", eng.Version())
	}
	waitCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := eng.WaitRanked(waitCtx, seq); err != nil {
		t.Fatalf("WaitRanked on an empty submit's version hung: %v", err)
	}
}

// TestFailedScheduledRankRetries pins the loop's self-healing: a scheduled
// refresh that fails (crashed workers) must be retried on a timer, so
// applied edits do not stay unranked forever once the fault clears —
// without any further Submit to re-wake the loop.
func TestFailedScheduledRankRetries(t *testing.T) {
	ctx := context.Background()
	eng, _, _ := ingestEngine(t, WithRankPolicy(RankImmediate()))
	if err := eng.SetFaultPlan(FaultPlan{CrashWorkers: CrashSet(2, 2), Seed: 7}); err != nil {
		t.Fatal(err)
	}
	tk, err := eng.Submit(ctx, nil, []Edge{{U: 3, V: 17}})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond) // let at least one scheduled refresh crash
	if err := eng.SetFaultPlan(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := eng.WaitRanked(waitCtx, seq); err != nil {
		t.Fatalf("retry never ranked the stranded edits: %v", err)
	}
}

// TestWaitWatermarks pins the wait APIs' basic semantics.
func TestWaitWatermarks(t *testing.T) {
	ctx := context.Background()
	eng, _, _ := ingestEngine(t)
	if err := eng.WaitVersion(ctx, 0); err != nil {
		t.Fatalf("WaitVersion(0): %v", err)
	}
	if err := eng.WaitRanked(ctx, 0); err != nil {
		t.Fatalf("WaitRanked(0) after initial Rank: %v", err)
	}
	// A future version resolves when a direct Apply publishes it.
	done := make(chan error, 1)
	go func() { done <- eng.WaitVersion(ctx, 1) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("WaitVersion(1) returned early: %v", err)
	default:
	}
	if _, err := eng.Apply(ctx, nil, []Edge{{U: 1, V: 5}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitVersion(1): %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitVersion(1) never resolved after Apply")
	}
	// Canceled waits return the context's error and deregister.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := eng.WaitVersion(cctx, 99); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled WaitVersion: %v", err)
	}
}

// TestWaitersReleasedOnClose is the no-hang/no-leak guard: waiters parked on
// versions that will never come must all return ErrClosed when the engine
// closes, with every goroutine gone.
func TestWaitersReleasedOnClose(t *testing.T) {
	eng, _, _ := ingestEngine(t)
	waitJoined := testutil.LeakCheck(t, "Close")
	const waiters = 16
	errs := make(chan error, 2*waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) { errs <- eng.WaitVersion(context.Background(), uint64(100+i)) }(i)
		go func(i int) { errs <- eng.WaitRanked(context.Background(), uint64(100+i)) }(i)
	}
	time.Sleep(50 * time.Millisecond) // let them park
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("waiter %d returned %v, want ErrClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter hung across Close")
		}
	}
	// Waits on a closed engine fail immediately.
	if err := eng.WaitVersion(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitVersion after Close: %v", err)
	}
	waitJoined()
}

// TestSubmitAfterCloseAndQueuedTicketsFail pins shutdown semantics: Submit
// and Flush on a closed engine return ErrClosed, and tickets still queued at
// Close fail with ErrClosed instead of hanging.
func TestSubmitAfterCloseAndQueuedTicketsFail(t *testing.T) {
	ctx := context.Background()
	eng, _, _ := ingestEngine(t, WithRankPolicy(RankImmediate()))
	// Stall the loop in storeApply (closeMu held) so a second submission
	// stays queued; Close needs closeMu, so it is let go just before.
	var park parker
	defer park.release()
	park.lock(&eng.closeMu)
	if _, err := eng.Submit(ctx, nil, []Edge{{U: 0, V: 7}}); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, eng)
	queued, err := eng.Submit(ctx, nil, []Edge{{U: 1, V: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Version(); !errors.Is(err, ErrPending) {
		t.Fatalf("undone ticket Version: %v, want ErrPending", err)
	}
	park.unlock(&eng.closeMu)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("queued ticket hung across Close")
	}
	// The queued ticket either made it into the final round before the stop
	// signal (applied, no error) or was thrown away (ErrClosed) — both are
	// sound; hanging or a third state is not.
	if seq, err := queued.Version(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("queued ticket resolved to seq=%d err=%v", seq, err)
	}
	if _, err := eng.Submit(ctx, nil, []Edge{{U: 2, V: 9}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
	if err := eng.Flush(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v", err)
	}
}

// TestDeltaAcrossCoalescedVersions pins View.Delta across coalesced rounds
// (each store version comes from a MERGED round, and only the Flush
// publishes a view): the answer is exact over the merged span, and still
// exact once the older view has left the engine's retained views.
func TestDeltaAcrossCoalescedVersions(t *testing.T) {
	ctx := context.Background()
	eng, _, _ := ingestEngine(t, WithHistory(4), WithRankPolicy(RankEveryN(1<<20)))
	_, _, mirror := testGraph(t, 9, 55)

	v0, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	step := func(rounds, perBatch int, seedBase int64) {
		t.Helper()
		// Submit without waiting so rounds get a chance to coalesce several
		// submissions into one merged store update; Flush settles them all.
		var tks []*Ticket
		for i := range rounds {
			up := batch.Random(mirror, perBatch, seedBase+int64(i))
			mirror.Apply(up.Del, up.Ins)
			tk, err := eng.Submit(ctx, toPublic(up.Del), toPublic(up.Ins))
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		if err := eng.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		for _, tk := range tks {
			if _, err := tk.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(2, 8, 400) // ≥1 coalesced version between v0 and v1
	v1, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	assertDelta(t, v0, v1)
	// Push far past the view retention of 4, so v0 is no longer retained.
	step(8, 6, 500)
	vN, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	assertDelta(t, v0, vN)
}

// TestConcurrentSubmitFlushCloseRace hammers the pipeline lifecycle under
// -race: submitters, flushers and a closer run concurrently; everything must
// resolve (no hangs) with only nil/ErrClosed/ErrQueueFull outcomes.
func TestConcurrentSubmitFlushCloseRace(t *testing.T) {
	ctx := context.Background()
	eng, _, _ := ingestEngine(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tk, err := eng.Submit(ctx, nil, []Edge{{U: uint32((w*13 + i) % 60), V: uint32((w*7 + i + 1) % 60)}})
				if err != nil {
					if errors.Is(err, ErrClosed) || errors.Is(err, ErrQueueFull) {
						continue
					}
					t.Error(err)
					return
				}
				if _, err := tk.Wait(ctx); err != nil && !errors.Is(err, ErrClosed) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Even a Flush racing Close must surface the documented close
			// state, never the internal cancellation of the refresh.
			if err := eng.Flush(ctx); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("flush: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(150 * time.Millisecond)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// parker holds the mutexes a test parks the pipeline on: the ingest loop
// blocks only in storeApply (closeMu, the durability mutex), the refresher
// only on e.mu inside Rank. A test that ends early releases what it still
// holds (defer release after the engine's deferred Close), so Close can stop
// both instead of hanging.
type parker struct{ held []sync.Locker }

func (p *parker) lock(m sync.Locker) { m.Lock(); p.held = append(p.held, m) }

func (p *parker) unlock(m sync.Locker) {
	p.held = slices.DeleteFunc(p.held, func(h sync.Locker) bool { return h == m })
	m.Unlock()
}

func (p *parker) release() {
	for _, m := range p.held {
		m.Unlock()
	}
}

// waitDrained waits until the ingest loop has drained the queue.
func waitDrained(t *testing.T, e *Engine) {
	t.Helper()
	waitFor(t, "the loop to drain the queue", 10*time.Second, func() bool {
		e.ingestMu.Lock()
		defer e.ingestMu.Unlock()
		return len(e.ingestQ) == 0
	})
}

// refreshArmed reports whether the refresher has a supersedable refresh in
// flight: its cancel func is parked for the loop's next round.
func refreshArmed(e *Engine) bool {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.supersede != nil
}

// TestRoundPublishesDuringRefresh pins that the ingest loop never waits for
// a rank: with a scheduled refresh parked inside Rank (e.mu held), a Submit
// still resolves its ticket to a new version, under both the default policy
// and RankEveryN(1).
func TestRoundPublishesDuringRefresh(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy RankPolicy
	}{{"RankImmediate", RankImmediate()}, {"RankEveryN", RankEveryN(1)}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			eng, _, _ := ingestEngine(t, WithRankPolicy(tc.policy))
			var park parker
			defer park.release()
			park.lock(&eng.mu)
			ta, err := eng.Submit(ctx, nil, []Edge{{U: 1, V: 40}})
			if err != nil {
				t.Fatal(err)
			}
			wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			seqA, err := ta.Wait(wctx)
			if err != nil {
				t.Fatal(err)
			}
			// Give round A's refresh time to start and park on e.mu.
			time.Sleep(50 * time.Millisecond)
			tb, err := eng.Submit(ctx, nil, []Edge{{U: 2, V: 41}})
			if err != nil {
				t.Fatal(err)
			}
			seqB, err := tb.Wait(wctx)
			if err != nil || seqB != seqA+1 {
				t.Fatalf("round B resolved to version %d (%v) while a refresh was parked, want %d", seqB, err, seqA+1)
			}
			park.unlock(&eng.mu)
			if err := eng.WaitRanked(wctx, seqB); err != nil {
				t.Fatalf("round B unranked once the refresher ran: %v", err)
			}
		})
	}
}

// TestRefresherStaysInsideHistory runs 80 back-to-back submissions against
// a slowed kernel and a history of 4. For the first 40 the refresher is
// parked on mu: the loop keeps publishing, the ranks lag far past the
// history, and the store keeps every batch they have not replayed, so the
// one landing after the park replays all 40 as one span. The last 40 run
// while refreshes do. The refreshed ranks stay exact.
func TestRefresherStaysInsideHistory(t *testing.T) {
	const history, rounds = 4, 40
	ctx := context.Background()
	n, edges, _ := testGraph(t, 9, 55)
	eng, err := New(n, edges, WithThreads(2), WithTolerance(growthTol), WithHistory(history))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var park parker
	defer park.release()
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetFaultPlan(FaultPlan{DelayProb: 0.01, DelayDur: 100 * time.Microsecond, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe()
	defer sub.Close()
	before := eng.Stats()
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	// Back to back: each submission goes in as soon as the previous one has
	// published, so every one is a round of its own.
	submit := func(from int) {
		t.Helper()
		for i := from; i < from+rounds; i++ {
			tk, err := eng.Submit(ctx, nil, []Edge{{U: uint32(i % 60), V: uint32((i*11 + 3) % 60)}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tk.Wait(wctx); err != nil {
				t.Fatalf("round %d never published with the ranks %d versions behind: %v", i, eng.Behind(), err)
			}
		}
	}
	park.lock(&eng.mu)
	submit(0)
	if behind := eng.Behind(); behind < rounds {
		t.Fatalf("behind=%d with the refresher parked through %d rounds", behind, rounds)
	}
	park.unlock(&eng.mu)
	if err := eng.WaitRanked(wctx, eng.Version()); err != nil {
		t.Fatal(err)
	}
	if res := <-sub.Updates(); res.Advanced < rounds || res.Seq != eng.Version() {
		t.Errorf("the landing after the park advanced %d versions to %d, want all %d past a history of %d to %d",
			res.Advanced, res.Seq, rounds, history, eng.Version())
	}
	submit(rounds)
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	t.Logf("%d rounds, %d refreshes, %d superseded", st.IngestRounds, st.Refreshes-before.Refreshes, st.Superseded)
	if st.Behind != 0 {
		t.Fatalf("behind=%d after Flush", st.Behind)
	}
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	ref := core.Reference(eng.store.Current().G, core.Config{})
	if d := topk.LInf(ranksOf(v), ref); d > 1e-12 {
		t.Errorf("ranks deviate from core.Reference by %g (bound 1e-12)", d)
	}
}

// TestSupersededRefreshRanksNewestRound pins supersession under
// RankImmediate: a round published past the version the refresher is
// catching up to cancels that refresh, and ONE refresh over the merged span
// ranks both rounds — exactly, not approximately. The refresher is parked
// on e.mu inside its refresh of round A. Round B is submitted then
// (MidRefresh), or was queued before that refresh started and is held on
// the durability mutex between its drain and its publication
// (QueuedBeforeRefresh): the refresher arms its cancel func before it reads
// the tip, so either way B's publication finds it.
func TestSupersededRefreshRanksNewestRound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		queued bool
	}{{"MidRefresh", false}, {"QueuedBeforeRefresh", true}} {
		t.Run(tc.name, func(t *testing.T) { testSupersededRefresh(t, tc.queued) })
	}
}

func testSupersededRefresh(t *testing.T, queued bool) {
	ctx := context.Background()
	n, edges, _ := testGraph(t, 9, 55)
	eng, err := New(n, edges, WithThreads(2), WithTolerance(growthTol), WithDurability(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	d := eng.durable()

	var park parker
	defer park.release()
	park.lock(&eng.mu)
	submit := func(del, ins []Edge) *Ticket {
		t.Helper()
		tk, err := eng.Submit(ctx, del, ins)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	var ta, tb *Ticket
	if !queued {
		ta = submit(nil, []Edge{{U: 1, V: 300}})
		waitFor(t, "the refresher to arm round A's refresh", 10*time.Second, func() bool { return refreshArmed(eng) })
		tb = submit([]Edge{edges[0]}, []Edge{{U: 2, V: 301}})
	} else {
		// A drains and parks on the durability mutex; B queues behind it.
		// ingestMu then holds the loop between A's publication and its next
		// drain while the durability mutex is taken back, so B drains and
		// parks before it publishes, and A's refresh starts meanwhile.
		park.lock(&d.mu)
		ta = submit(nil, []Edge{{U: 1, V: 300}})
		waitDrained(t, eng)
		tb = submit([]Edge{edges[0]}, []Edge{{U: 2, V: 301}})
		park.lock(&eng.ingestMu)
		park.unlock(&d.mu)
		if err := eng.WaitVersion(ctx, before.Version+1); err != nil {
			t.Fatal(err)
		}
		park.lock(&d.mu)
		park.unlock(&eng.ingestMu)
		waitDrained(t, eng)
		waitFor(t, "the refresher to arm round A's refresh", 10*time.Second, func() bool { return refreshArmed(eng) })
		park.unlock(&d.mu)
	}
	seqB, err := tb.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if refreshArmed(eng) {
		t.Error("round B left the stale refresh armed instead of superseding it")
	}
	park.unlock(&eng.mu)

	seqA, err := ta.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if seqB != seqA+1 {
		t.Fatalf("round B landed in version %d, want its own version %d", seqB, seqA+1)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := eng.WaitRanked(waitCtx, seqB); err != nil {
		t.Fatal(err)
	}

	st := eng.Stats()
	if got := st.Refreshes - before.Refreshes; got != 1 {
		t.Errorf("%d refreshes landed for A and B, want exactly one", got)
	}
	if got := st.Superseded - before.Superseded; got != 1 {
		t.Errorf("superseded = %d, want 1", got)
	}
	if _, err := eng.ViewAt(seqA); !errors.Is(err, ErrVersionEvicted) {
		t.Errorf("superseded version %d has a rank view of its own (%v)", seqA, err)
	}

	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq() != seqB {
		t.Fatalf("view at %d, want %d", v.Seq(), seqB)
	}
	ref := core.Reference(eng.store.Current().G, core.Config{})
	if d := topk.LInf(ranksOf(v), ref); d > 1e-12 {
		t.Errorf("ranks after the merged refresh deviate from core.Reference by %g (bound 1e-12)", d)
	}
}

// TestSupersessionCannotStarveRanks runs a back-to-back submitter against a
// slowed kernel. Under RankImmediate refreshes are superseded, but never two
// without a landed refresh in between, and the newest round is ranked
// within a fixed bound. RankEveryN batches on purpose and never supersedes,
// and neither do a Flush's refresh nor the initial static convergence.
func TestSupersessionCannotStarveRanks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy RankPolicy
	}{
		{"RankImmediate", RankImmediate()},
		{"RankEveryN", RankEveryN(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			eng, _, _ := ingestEngine(t, WithRankPolicy(tc.policy))
			if err := eng.SetFaultPlan(FaultPlan{DelayProb: 0.02, DelayDur: 500 * time.Microsecond, Seed: 3}); err != nil {
				t.Fatal(err)
			}
			base := eng.met.refreshes.Value()
			var last *Ticket
			for i := 0; i < 100; i++ {
				tk, err := eng.Submit(ctx, nil, []Edge{{U: uint32(i % 60), V: uint32((i*7 + 1) % 60)}})
				if err != nil {
					t.Fatal(err)
				}
				last = tk
				// Superseded first: a supersession counted after this read
				// needs a landing counted after it too.
				s := eng.met.superseded.Value()
				if r := eng.met.refreshes.Value() - base; s > r+1 {
					t.Fatalf("%d supersessions against %d landed refreshes: a refresh after a supersession was canceled", s, r)
				}
				time.Sleep(2 * time.Millisecond)
			}
			seq, err := last.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			if err := eng.WaitRanked(waitCtx, seq); err != nil {
				t.Fatalf("newest round unranked: %v", err)
			}
			st := eng.Stats()
			t.Logf("%d rounds, %d refreshes, %d superseded", st.IngestRounds, st.Refreshes, st.Superseded)
			if st.Superseded > st.Refreshes {
				t.Errorf("superseded %d > refreshes %d", st.Superseded, st.Refreshes)
			}
			switch want0 := tc.policy.kind != rankImmediate; {
			case want0 && st.Superseded != 0:
				t.Errorf("%v superseded %d refreshes, want 0", tc.policy, st.Superseded)
			case !want0 && st.Superseded == 0:
				t.Errorf("no refresh superseded under a back-to-back submitter (%d refreshes)", st.Refreshes)
			}
		})
	}

	// The initial static convergence and a Flush's refresh, each parked on
	// e.mu with a round published past its tip: neither is armed, and
	// nothing is superseded. Apply makes the engine lag without a round, so
	// the refresh after it is the Flush's alone.
	t.Run("StaticAndFlush", func(t *testing.T) {
		ctx := context.Background()
		n, edges, _ := testGraph(t, 9, 55)
		eng, err := New(n, edges, WithThreads(2))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		var park parker
		defer park.release()
		submit := func(u, v uint32) uint64 {
			t.Helper()
			tk, err := eng.Submit(ctx, nil, []Edge{{U: u, V: v}})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := tk.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return seq
		}
		// parked waits until the refresher has started a refresh to the tip
		// (it arms a supersedable one in the same critical section).
		parked := func(what string) {
			t.Helper()
			waitFor(t, what+" to start", 10*time.Second, func() bool {
				eng.ingestMu.Lock()
				defer eng.ingestMu.Unlock()
				return eng.refreshTip == eng.Version() && len(eng.rankFlushes) == 0
			})
			if refreshArmed(eng) {
				t.Errorf("%s was armed for supersession", what)
			}
		}

		park.lock(&eng.mu)
		submit(1, 300)
		parked("the initial static convergence")
		submit(2, 301)
		park.unlock(&eng.mu)
		waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := eng.WaitRanked(waitCtx, 2); err != nil {
			t.Fatal(err)
		}

		park.lock(&eng.mu)
		if _, err := eng.Apply(ctx, nil, []Edge{{U: 3, V: 302}}); err != nil {
			t.Fatal(err)
		}
		flushed := make(chan error, 1)
		go func() { flushed <- eng.Flush(ctx) }()
		parked("the Flush's refresh")
		seq := submit(4, 303)
		park.unlock(&eng.mu)
		if err := <-flushed; err != nil {
			t.Fatalf("flush: %v", err)
		}
		if err := eng.WaitRanked(waitCtx, seq); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.Superseded != 0 {
			t.Errorf("superseded = %d, want 0", st.Superseded)
		}
	})
}
