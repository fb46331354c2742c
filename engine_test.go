package dfpr

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/gen"
	"dfpr/internal/graph"
	"dfpr/internal/testutil"
	"dfpr/internal/topk"
)

// testGraph builds a small RMAT graph and returns it in both the public
// edge form and as a mirror Dynamic for generating batches.
func testGraph(t testing.TB, scale, seed int64) (int, []Edge, *graph.Dynamic) {
	t.Helper()
	d := gen.RMAT(int(scale), 8, seed)
	return d.N(), edgesOf(d), d
}

// edgesOf lists d's edges in the public form New takes.
func edgesOf(d *graph.Dynamic) []Edge {
	edges := make([]Edge, 0, d.M())
	for u := uint32(0); int(u) < d.N(); u++ {
		for _, v := range d.Out(u) {
			edges = append(edges, Edge{U: u, V: v})
		}
	}
	return edges
}

func toPublic(edges []graph.Edge) []Edge {
	out := make([]Edge, len(edges))
	for i, e := range edges {
		out[i] = Edge{U: e.U, V: e.V}
	}
	return out
}

// ranksOf materialises a view's vector for comparisons against internal
// reference runs (tests only; the public API deliberately has no bulk copy).
func ranksOf(v *View) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, 0, v.N())
	for _, s := range v.Scores() {
		out = append(out, s)
	}
	return out
}

// TestEngineRankMatchesCoreRun pins the public API to the internal engine
// room: an Engine's initial Rank must equal core.StaticLF within L∞ ≤ 1e-12,
// and its incremental Rank after one Apply must land on the fixpoint of
// core.Run(DFLF) over the identical transition. Both runs are asynchronous
// (nondeterministic interleavings), so the test runs at τ = 1e-14, where two
// lock-free runs agree to 1e-12 (DESIGN §2), and the refresh pin is a
// tolerance-scale bound. The other seven variants are pinned in
// internal/core (TestStaticVariantsMatchReference,
// TestDynamicVariantsMatchReferenceAfterUpdate).
func TestEngineRankMatchesCoreRun(t *testing.T) {
	t.Run("DFLF", func(t *testing.T) {
		ctx := context.Background()
		n, edges, mirror := testGraph(t, 10, 21)
		tol := 1e-14
		up := batch.Random(mirror, 40, 3)

		// Public path.
		eng, err := New(n, edges, WithThreads(4), WithTolerance(tol))
		if err != nil {
			t.Fatal(err)
		}
		initial, err := eng.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Apply(ctx, toPublic(up.Del), toPublic(up.Ins)); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Seq != 1 || res.Advanced != 1 || !res.Converged {
			t.Fatalf("refresh: seq=%d advanced=%d converged=%v", res.Seq, res.Advanced, res.Converged)
		}

		// Identical manual path through internal/core.
		cfg := core.Config{Threads: 4, Tol: tol}
		d := graph.NewDynamic(n)
		for _, e := range edges {
			d.AddEdge(e.U, e.V)
		}
		d.EnsureSelfLoops()
		pre := core.StaticLF(d.Snapshot(), cfg)
		gNew := batch.Transition(d, up)
		want := core.Run(core.AlgoDFLF, core.Input{
			GNew: gNew, Del: up.Del, Ins: up.Ins, Prev: pre.Ranks,
		}, cfg)
		if want.Err != nil {
			t.Fatal(want.Err)
		}

		if e := topk.LInf(ranksOf(initial.View), pre.Ranks); e > 1e-12 {
			t.Errorf("initial ranks deviate from StaticLF by %g", e)
		}
		if e := topk.LInf(ranksOf(res.View), want.Ranks); e > 20*tol {
			t.Errorf("refresh ranks deviate from core.Run by %g (bound %g)", e, 20*tol)
		}
	})
}

// TestRankCancelPromptNoGoroutineLeak is the acceptance guard for context
// threading: a Rank that would effectively run forever must return promptly
// with ErrCanceled when its context dies, with every worker goroutine
// joined (no leak), leaving the engine usable.
func TestRankCancelPromptNoGoroutineLeak(t *testing.T) {
	n, edges, _ := testGraph(t, 12, 5)
	eng, err := New(n, edges,
		WithThreads(4),
		WithTolerance(1e-300), // unreachable before the FP fixpoint…
		func(s *settings) error { s.cfg.MaxIter = 1 << 30; return nil }, // …and no iteration bound to save us
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetFaultPlan(FaultPlan{DelayProb: 5e-4, DelayDur: time.Millisecond, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	waitJoined := testutil.LeakCheck(t, "cancel")

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = eng.Rank(ctx)
	took := time.Since(start)
	cancel()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if took > 5*time.Second {
		t.Fatalf("cancellation took %v", took)
	}

	// All worker goroutines must be joined shortly after Rank returns
	// (AfterFunc's callback goroutine needs a moment to finish).
	waitJoined()

	// The engine survives: disarm the stall and rank for real.
	if err := eng.SetFaultPlan(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Rank(context.Background())
	if err != nil {
		t.Fatalf("post-cancel Rank: %v", err)
	}
	if res.Seq != 0 || res.View == nil || res.View.N() != n {
		t.Fatalf("post-cancel Rank: seq=%d view=%v", res.Seq, res.View)
	}
}

func TestSubscribeConflatesToLatest(t *testing.T) {
	ctx := context.Background()
	n, edges, mirror := testGraph(t, 9, 7)
	eng, err := New(n, edges, WithThreads(4), WithTolerance(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe()
	defer sub.Close()

	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		up := batch.Random(mirror, 10, int64(i))
		mirror.Apply(up.Del, up.Ins)
		if _, err := eng.Apply(ctx, toPublic(up.Del), toPublic(up.Ins)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Rank(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Four updates were published (v0..v3) and none consumed: the stream
	// must have conflated down to exactly the newest.
	select {
	case u := <-sub.Updates():
		if u.Seq != 3 {
			t.Errorf("conflated update Seq = %d, want 3", u.Seq)
		}
		if u.View == nil || u.View.N() != n || !u.Converged {
			t.Errorf("update malformed: view=%v converged=%v", u.View, u.Converged)
		}
		if u.View.Seq() != u.Seq {
			t.Errorf("update view pinned to %d, update says %d", u.View.Seq(), u.Seq)
		}
	default:
		t.Fatal("no update pending")
	}
	select {
	case u := <-sub.Updates():
		t.Errorf("second update pending (Seq %d); stream did not conflate", u.Seq)
	default:
	}
}

// TestSubscribeSlowConsumerMonotoneViews drives the view-carrying stream
// with a deliberately slow consumer while the writer publishes a burst of
// versions: the laggard must observe a strictly monotone subsequence of
// versions ending at the latest, and every view it gets must be internally
// consistent — its scores bitwise-equal to what the publisher computed for
// that version (no torn or stale-score reads). Run under -race in CI.
func TestSubscribeSlowConsumerMonotoneViews(t *testing.T) {
	ctx := context.Background()
	n, edges, mirror := testGraph(t, 9, 77)
	eng, err := New(n, edges, WithThreads(4), WithTolerance(1e-3/float64(n)))
	if err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe()

	// checksum is order- and value-sensitive; publisher and consumer compute
	// it from the same immutable vector, so equality must be exact.
	checksum := func(v *View) float64 {
		var c float64
		for u, s := range v.Scores() {
			c += s * float64(u+1)
		}
		return c
	}

	const versions = 20
	var mu sync.Mutex
	published := make(map[uint64]float64)

	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer eng.Close() // closes the stream; the pending latest stays readable
		// rank holds mu across the publish and the record of it: the stream
		// delivers inside Rank, so the consumer may look a version up before
		// Rank has returned here.
		rank := func() error {
			mu.Lock()
			defer mu.Unlock()
			res, err := eng.Rank(ctx)
			if err == nil {
				published[res.Seq] = checksum(res.View)
			}
			return err
		}
		if err := rank(); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < versions; i++ {
			up := batch.Random(mirror, 8, int64(500+i))
			mirror.Apply(up.Del, up.Ins)
			if _, err := eng.Apply(ctx, toPublic(up.Del), toPublic(up.Ins)); err != nil {
				t.Error(err)
				return
			}
			if err := rank(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var got []uint64
	for u := range sub.Updates() {
		if u.View == nil {
			t.Fatalf("update %d without view", u.Seq)
		}
		if u.View.Seq() != u.Seq {
			t.Fatalf("update says version %d, view pinned to %d", u.Seq, u.View.Seq())
		}
		mu.Lock()
		want, ok := published[u.Seq]
		mu.Unlock()
		if !ok {
			t.Fatalf("received version %d that was never published", u.Seq)
		}
		if c := checksum(u.View); c != want {
			t.Fatalf("version %d: consumer checksum %v != publisher %v (torn or stale view)", u.Seq, c, want)
		}
		got = append(got, u.Seq)
		time.Sleep(2 * time.Millisecond) // lag deliberately so the stream conflates
	}
	writer.Wait()

	if len(got) == 0 {
		t.Fatal("consumer saw no updates")
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("versions not strictly monotone: %v", got)
		}
	}
	if last := got[len(got)-1]; last != versions {
		t.Errorf("laggard ended at version %d, want the latest %d (observed %v)", last, versions, got)
	}
}

func TestEngineVersioning(t *testing.T) {
	ctx := context.Background()
	n, edges, mirror := testGraph(t, 9, 8)
	eng, err := New(n, edges, WithThreads(2), WithTolerance(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Behind(); got != 1 {
		t.Errorf("Behind before first Rank = %d, want 1 (version 0 unranked)", got)
	}
	if _, err := eng.View(); !errors.Is(err, ErrNoRanks) {
		t.Errorf("pre-Rank View: %v, want ErrNoRanks", err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	up := batch.Random(mirror, 8, 1)
	seq, err := eng.Apply(ctx, toPublic(up.Del), toPublic(up.Ins))
	if err != nil || seq != 1 {
		t.Fatalf("Apply: seq=%d err=%v", seq, err)
	}
	if eng.Version() != 1 || eng.Behind() != 1 {
		t.Errorf("version=%d behind=%d after apply", eng.Version(), eng.Behind())
	}
	// The published view still answers for the ranked version, lagging the
	// graph until the next Rank.
	v, err := eng.View()
	if err != nil || v.Seq() != 0 || v.N() != n {
		t.Fatalf("lagging view: seq=%d n=%d err=%v", v.Seq(), v.N(), err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	if eng.Behind() != 0 {
		t.Errorf("behind=%d after refresh", eng.Behind())
	}
	st := eng.Stats()
	if st.Refreshes != 1 {
		t.Errorf("stats=%+v", st)
	}
}

func TestEngineClose(t *testing.T) {
	ctx := context.Background()
	n, edges, _ := testGraph(t, 9, 9)
	eng, err := New(n, edges, WithThreads(2), WithTolerance(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe()
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal("Close not idempotent:", err)
	}
	if _, err := eng.Rank(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Rank after Close: %v", err)
	}
	if _, err := eng.Apply(ctx, nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Apply after Close: %v", err)
	}
	// The pending v0 update is still readable, then the channel closes.
	if u, ok := <-sub.Updates(); !ok || u.Seq != 0 {
		t.Errorf("pending update after close: ok=%v seq=%d", ok, u.Seq)
	}
	if _, ok := <-sub.Updates(); ok {
		t.Error("subscription channel not closed")
	}
	if _, ok := <-eng.Subscribe().Updates(); ok {
		t.Error("Subscribe after Close returned a live channel")
	}
	sub.Close() // must not panic on double close
}

// TestEngineFaultDrillWithoutFallback is the crash drill through the one
// way in, SetFaultPlan: a refresh whose workers all crash surfaces as
// itself, the published view stays where it was, and the next Rank after
// disarming advances.
func TestEngineFaultDrillWithoutFallback(t *testing.T) {
	ctx := context.Background()
	n, edges, mirror := testGraph(t, 9, 10)
	eng, err := New(n, edges, WithThreads(4), WithTolerance(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	before, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	up := batch.Random(mirror, 12, 2)
	if _, err := eng.Apply(ctx, toPublic(up.Del), toPublic(up.Ins)); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetFaultPlan(FaultPlan{DelayProb: 2}); err == nil {
		t.Error("SetFaultPlan accepted an out-of-range delay probability")
	}
	if err := eng.SetFaultPlan(FaultPlan{CrashWorkers: CrashSet(4, 4), Seed: 3}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Rank(ctx)
	if err == nil {
		t.Fatal("all-workers-crashed Rank reported success")
	}
	if !errors.Is(err, core.ErrAllCrashed) {
		t.Errorf("err = %v, want the failed run's own ErrAllCrashed", err)
	}
	if res == nil || res.CrashedWorkers != 4 {
		t.Fatalf("failed Result lacks diagnostics: %+v", res)
	}
	if v, err := eng.View(); err != nil || v != before {
		t.Errorf("failed refresh replaced the published view (now version %d, err=%v)", v.Seq(), err)
	}
	// Disarm and recover.
	if err := eng.SetFaultPlan(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Rank(ctx)
	if err != nil || rec.Seq != 1 || !rec.Converged {
		t.Fatalf("recovery: %+v err=%v", rec, err)
	}
}

// TestColdPathSurvivesCrash arms a plan that crash-stops two of four
// workers before the engine's one cold run, the first Rank. The cold run
// is lock-free, so the two survivors finish it (§4.4): the Rank succeeds,
// reports both crashes, and lands within one run's error budget ατ/(1−α)
// of core.Reference. It shares one rare failure with
// TestExpandOnceSurvivesFaults: a crashing worker preempted between its
// gather and its stores until the survivors have left writes a stale value
// nobody revisits, and the run reads converged=false (the stale store,
// DESIGN §2).
func TestColdPathSurvivesCrash(t *testing.T) {
	const tol = 1e-14
	plan := FaultPlan{CrashWorkers: CrashSet(2, 4), CrashHorizon: 200, Seed: 9}
	ctx := context.Background()
	check := func(t *testing.T, res *Result, err error, g *graph.CSR) {
		t.Helper()
		if err != nil {
			t.Fatalf("Rank under two crashed workers: %v", err)
		}
		if !res.Converged || res.CrashedWorkers != 2 {
			t.Fatalf("converged=%v crashed=%d, want a converged run with 2 crashes", res.Converged, res.CrashedWorkers)
		}
		bound := core.DefaultDamping * tol / (1 - core.DefaultDamping)
		if e := topk.LInf(ranksOf(res.View), core.Reference(g, core.Config{})); e > bound {
			t.Errorf("ranks deviate from core.Reference by %g (%.2f τ, bound %g)", e, e/tol, bound)
		}
	}

	t.Run("first Rank", func(t *testing.T) {
		n, edges, mirror := testGraph(t, 10, 4)
		eng, err := New(n, edges, WithThreads(4), WithTolerance(tol))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.SetFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Rank(ctx)
		mirror.EnsureSelfLoops()
		check(t, res, err, mirror.Snapshot())
	})
}

// TestRankReplaysPastHistory is the manual path past the history: 20
// Applies under WithHistory(2), then one Rank. The engine keeps every batch
// its ranks have not replayed, so that Rank advances all 20 versions in one
// refresh and lands within 1e-12 of a twin that ranked after every Apply.
func TestRankReplaysPastHistory(t *testing.T) {
	const versions = 20
	ctx := context.Background()
	n, edges, mirror := testGraph(t, 9, 21)
	open := func() *Engine {
		eng, err := New(n, edges, WithThreads(2), WithTolerance(growthTol), WithHistory(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		if _, err := eng.Rank(ctx); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng, twin := open(), open()
	for i := range versions {
		up := batch.Random(mirror, 8, int64(60+i))
		mirror.Apply(up.Del, up.Ins)
		for _, e := range []*Engine{eng, twin} {
			if _, err := e.Apply(ctx, toPublic(up.Del), toPublic(up.Ins)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := twin.Rank(ctx); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Stats()
	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); res.Advanced != versions || st.Refreshes != before.Refreshes+1 || res.Seq != versions {
		t.Errorf("Rank advanced %d versions to %d in %d refreshes, want %d to %d in one",
			res.Advanced, res.Seq, st.Refreshes-before.Refreshes, versions, versions)
	}
	tv, err := twin.View()
	if err != nil {
		t.Fatal(err)
	}
	if d := topk.LInf(ranksOf(res.View), ranksOf(tv)); d > 1e-12 {
		t.Errorf("the replay of %d versions is %g from the per-version twin (bound 1e-12)", versions, d)
	}
}

func TestOptionValidationAndParse(t *testing.T) {
	bad := []Option{
		WithTolerance(0), WithFrontierTolerance(-1),
		WithThreads(-1), WithHistory(-1), WithHistory(0),
	}
	for i, opt := range bad {
		if _, err := New(4, nil, opt); err == nil {
			t.Errorf("bad option %d accepted", i)
		}
	}
	if _, err := New(-1, nil); err == nil {
		t.Error("negative n accepted")
	}
	// The universe is open: an edge beyond n widens the graph to cover it.
	if eng, err := New(4, []Edge{{U: 9, V: 0}}); err != nil {
		t.Errorf("edge beyond n rejected: %v", err)
	} else if res, err := eng.Rank(context.Background()); err != nil || res.View.N() != 10 {
		t.Errorf("edge beyond n: N = %d, err %v (want 10)", res.View.N(), err)
	}
}

func TestApplyContextAndValidation(t *testing.T) {
	n, edges, _ := testGraph(t, 9, 12)
	eng, err := New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Apply(ctx, nil, []Edge{{U: 0, V: 1}}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Apply: %v", err)
	}
	if eng.Version() != 0 {
		t.Error("canceled Apply published a version")
	}
	// An edge past the current universe grows the graph instead of erroring:
	// the new vertex materialises with its dead-end self-loop and is
	// rankable immediately.
	seq, err := eng.Apply(context.Background(), nil, []Edge{{U: uint32(n), V: 0}})
	if err != nil || seq != 1 {
		t.Fatalf("growth Apply: seq %d, err %v", seq, err)
	}
	res, err := eng.Rank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.View.N() != n+1 {
		t.Errorf("grown universe N = %d, want %d", res.View.N(), n+1)
	}
	if s, ok := res.View.ScoreOf(uint32(n)); !ok || s <= 0 {
		t.Errorf("grown vertex score = %v, %v", s, ok)
	}
}

// TestPublishToRankedTimesEveryVersion publishes A, holds A's refresh in its
// kernel with a delay plan, publishes B while it runs, lets A land and then
// ranks B: each landing times the oldest version it covers, so the
// freshness histogram holds one observation per landing — B's included,
// though B was published while the clock was already running for A.
func TestPublishToRankedTimesEveryVersion(t *testing.T) {
	ctx := context.Background()
	n, edges, _ := testGraph(t, 9, 55)
	eng, err := New(n, edges, WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	hist := eng.met.publishSeconds
	before := hist.Count()
	seqA, err := eng.Apply(ctx, nil, []Edge{{U: 1, V: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetFaultPlan(FaultPlan{DelayProb: 0.05, DelayDur: 5 * time.Millisecond, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	type ranked struct {
		res *Result
		err error
	}
	landed := make(chan ranked, 1)
	go func() {
		res, err := eng.Rank(ctx)
		landed <- ranked{res, err}
	}()
	// A's refresh holds mu from before it reads the tip until it lands; B
	// goes in once it has had time to read the tip.
	waitFor(t, "A's refresh to start", 5*time.Second, func() bool {
		if eng.mu.TryLock() {
			eng.mu.Unlock()
			return false
		}
		return true
	})
	time.Sleep(20 * time.Millisecond)
	seqB, err := eng.Apply(ctx, nil, []Edge{{U: 2, V: 41}})
	if err != nil {
		t.Fatal(err)
	}
	a := <-landed
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.res.Seq != seqA {
		t.Fatalf("A's refresh landed at version %d, want %d: B was published before it read the tip", a.res.Seq, seqA)
	}
	t.Logf("A's refresh took %v", a.res.Elapsed)
	if err := eng.SetFaultPlan(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	if res, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	} else if res.Seq != seqB {
		t.Fatalf("B's refresh landed at version %d, want %d", res.Seq, seqB)
	}
	if got := hist.Count() - before; got != 2 {
		t.Fatalf("dfpr_publish_to_ranked_seconds holds %d observations for two landings, want 2", got)
	}
}

// TestPublishToRankedPastHistory lets ten versions, 20 ms apart, wait for
// one Rank under a history of 2: that landing covers all ten, so its one
// freshness sample must time the first of them — at least the wall time
// since the first Apply, less a slack for the Apply itself — however few
// views the engine keeps.
func TestPublishToRankedPastHistory(t *testing.T) {
	const versions, gap, slack = 10, 20 * time.Millisecond, 20 * time.Millisecond
	ctx := context.Background()
	n, edges, _ := testGraph(t, 9, 55)
	eng, err := New(n, edges, WithThreads(1), WithHistory(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	hist := eng.met.publishSeconds
	count, sum := hist.Count(), hist.Sum()
	start := time.Now()
	for i := range versions {
		if i > 0 {
			time.Sleep(gap)
		}
		if _, err := eng.Apply(ctx, nil, []Edge{{U: uint32(i), V: uint32(40 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waited := time.Since(start)
	if res.Advanced != versions {
		t.Fatalf("Rank advanced %d versions, want %d", res.Advanced, versions)
	}
	if got := hist.Count() - count; got != 1 {
		t.Fatalf("dfpr_publish_to_ranked_seconds took %d samples for one landing, want 1", got)
	}
	if got := time.Duration((hist.Sum() - sum) * float64(time.Second)); got < waited-slack {
		t.Errorf("the landing's freshness sample is %v; the oldest version it covers waited at least %v", got, waited-slack)
	}
}

// TestNewBuildsFromEdgeList builds New from one RMAT edge list, with
// duplicates and edges that grow the universe past n, once shuffled and once
// sorted: both engines hold the edge set an AddEdge build of the list holds
// (self-loops included), and at one thread their ranks are bitwise equal.
func TestNewBuildsFromEdgeList(t *testing.T) {
	n, edges, _ := testGraph(t, 10, 7)
	list := append(slices.Clone(edges), edges[:len(edges)/10]...)
	list = append(list, Edge{U: uint32(n) + 4, V: 3}, Edge{U: 5, V: uint32(n) + 9}, Edge{U: 6, V: 6})
	sorted := slices.Clone(list)
	slices.SortFunc(sorted, func(a, b Edge) int {
		return cmp.Compare(uint64(a.U)<<32|uint64(a.V), uint64(b.U)<<32|uint64(b.V))
	})
	shuffled := slices.Clone(list)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	model := graph.NewDynamic(n + 10)
	for _, e := range list {
		model.AddEdge(e.U, e.V)
	}
	model.EnsureSelfLoops()
	want := sortedEdges(model.Snapshot())

	var ranks [][]float64
	for _, l := range [][]Edge{shuffled, sorted} {
		eng, err := New(n, l, WithThreads(1))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		g := eng.store.Current().G
		if err := g.Validate(); err != nil {
			t.Fatalf("built CSR: %v", err)
		}
		if got := sortedEdges(g); !slices.Equal(got, want) {
			t.Fatalf("edge set differs from the AddEdge build (%d edges, want %d)", len(got), len(want))
		}
		res, err := eng.Rank(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ranks = append(ranks, ranksOf(res.View))
	}
	if !slices.Equal(ranks[0], ranks[1]) {
		t.Errorf("shuffled and sorted builds rank differently (L∞ %g)", topk.LInf(ranks[0], ranks[1]))
	}
}
