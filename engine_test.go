package dfpr

import (
	"context"
	"errors"
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
// room: an Engine's initial Rank must equal core.StaticBB within L∞ ≤ 1e-12,
// and its incremental Rank after one Apply must land on the fixpoint of
// core.Run(DFLF) over the identical transition. DF-LF is asynchronous
// (nondeterministic interleavings), so that second pin is a tolerance-scale
// bound. The other seven variants are pinned in internal/core
// (TestStaticVariantsMatchReference, TestDynamicVariantsMatchReferenceAfterUpdate).
func TestEngineRankMatchesCoreRun(t *testing.T) {
	t.Run("DFLF", func(t *testing.T) {
		ctx := context.Background()
		n, edges, mirror := testGraph(t, 10, 21)
		tol := 1e-9
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
		pre := core.StaticBB(d.Snapshot(), cfg)
		gOld, gNew := batch.Transition(d, up)
		want := core.Run(core.AlgoDFLF, core.Input{
			GOld: gOld, GNew: gNew, Del: up.Del, Ins: up.Ins, Prev: pre.Ranks,
		}, cfg)
		if want.Err != nil {
			t.Fatal(want.Err)
		}

		if e := topk.LInf(ranksOf(initial.View), pre.Ranks); e > 1e-12 {
			t.Errorf("initial ranks deviate from StaticBB by %g", e)
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
	if st.Refreshes != 1 || st.Rebuilds != 0 {
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
// itself — no static rebuild is tried under the same plan — the published
// view stays where it was, and the next Rank after disarming advances.
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
	if eng.Stats().Rebuilds != 0 {
		t.Error("a failed incremental run was answered with a rebuild")
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
