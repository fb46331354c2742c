package dfpr

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sort"
	"testing"
	"weak"

	"dfpr/internal/batch"
	"dfpr/internal/graph"
	"dfpr/internal/topk"
)

// viewEngine converges a small engine and returns it with its mirror graph
// for batch generation.
func viewEngine(t *testing.T, opts ...Option) (*Engine, func(seed int64, size int)) {
	t.Helper()
	n, edges, mirror := testGraph(t, 9, 33)
	base := []Option{WithThreads(2), WithTolerance(1e-3 / float64(n)), WithFrontierTolerance(1e-3 / float64(n))}
	eng, err := New(n, edges, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
	step := func(seed int64, size int) {
		t.Helper()
		up := batch.Random(mirror, size, seed)
		mirror.Apply(up.Del, up.Ins)
		if _, err := eng.Apply(context.Background(), toPublic(up.Del), toPublic(up.Ins)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Rank(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return eng, step
}

func TestViewBeforeFirstRank(t *testing.T) {
	n, edges, _ := testGraph(t, 8, 1)
	eng, err := New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.View(); !errors.Is(err, ErrNoRanks) {
		t.Errorf("View before Rank: %v, want ErrNoRanks", err)
	}
	if _, err := eng.ViewAt(0); !errors.Is(err, ErrVersionEvicted) {
		t.Errorf("ViewAt before Rank: %v, want ErrVersionEvicted", err)
	}
}

func TestViewScoreOfAndIteration(t *testing.T) {
	eng, _ := viewEngine(t)
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq() != eng.Version() || v.N() == 0 || v.M() == 0 {
		t.Fatalf("view (%d,%d,%d) inconsistent with engine version %d",
			v.Seq(), v.N(), v.M(), eng.Version())
	}
	ref := ranksOf(v)
	var sum float64
	for u := 0; u < v.N(); u++ {
		s, ok := v.ScoreOf(uint32(u))
		if !ok || s != ref[u] {
			t.Fatalf("ScoreOf(%d) = %v,%v want %v", u, s, ok, ref[u])
		}
		sum += s
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("rank vector does not sum to ~1: %v", sum)
	}
	if _, ok := v.ScoreOf(uint32(v.N())); ok {
		t.Error("ScoreOf accepted an out-of-range vertex")
	}
	// Scores visits every vertex in order, with early stop.
	seen := 0
	for u, s := range v.Scores() {
		if int(u) != seen || s != ref[u] {
			t.Fatalf("Scores visited (%d,%v) at position %d", u, s, seen)
		}
		seen++
	}
	if seen != v.N() {
		t.Fatalf("Scores visited %d of %d", seen, v.N())
	}
	stopped := 0
	for range v.Scores() {
		stopped++
		if stopped == 3 {
			break
		}
	}
	if stopped != 3 {
		t.Fatalf("Scores early stop visited %d", stopped)
	}
}

func TestViewTopKMatchesSelection(t *testing.T) {
	eng, step := viewEngine(t)
	step(1, 12)
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	ranks := ranksOf(v)
	// Ask for a small k first, then larger ones: the cached prefix must
	// grow correctly rather than serve a stale short order.
	for _, k := range []int{1, 3, 17, 64, v.N(), v.N() + 5} {
		got := v.TopK(k)
		want := topk.Select(ranks, k)
		if len(got) != len(want) {
			t.Fatalf("TopK(%d) returned %d entries, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].V != want[i] || got[i].Score != ranks[want[i]] {
				t.Fatalf("TopK(%d)[%d] = %+v, want vertex %d score %v",
					k, i, got[i], want[i], ranks[want[i]])
			}
		}
		if !sort.SliceIsSorted(got, func(a, b int) bool {
			if got[a].Score != got[b].Score {
				return got[a].Score > got[b].Score
			}
			return got[a].V < got[b].V
		}) {
			t.Fatalf("TopK(%d) not in descending order: %v", k, got)
		}
	}
	if v.TopK(0) != nil || v.TopK(-1) != nil {
		t.Error("TopK of non-positive k returned entries")
	}
	// AppendTopK reuses the destination.
	buf := make([]Ranked, 0, 4)
	out := v.AppendTopK(buf, 4)
	if &out[0] != &buf[:1][0] {
		t.Error("AppendTopK did not append into the provided buffer")
	}
}

func TestViewNeighbors(t *testing.T) {
	eng, _ := viewEngine(t)
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for u := uint32(0); int(u) < v.N(); u++ {
		nb := v.Neighbors(u)
		if len(nb) == 0 {
			t.Fatalf("vertex %d has no out-neighbours (self-loops guarantee ≥ 1)", u)
		}
		if !sort.SliceIsSorted(nb, func(a, b int) bool { return nb[a] < nb[b] }) {
			t.Fatalf("Neighbors(%d) not sorted: %v", u, nb)
		}
		has := false
		for _, w := range nb {
			if w == u {
				has = true
			}
		}
		if !has {
			t.Fatalf("Neighbors(%d) missing the self-loop: %v", u, nb)
		}
		if len(v.InNeighbors(u)) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no vertex has in-neighbours")
	}
	if v.Neighbors(uint32(v.N())) != nil || v.InNeighbors(uint32(v.N())) != nil {
		t.Error("out-of-range vertex returned neighbours")
	}
}

func TestViewAtRetentionAndImmutability(t *testing.T) {
	eng, step := viewEngine(t, WithHistory(3))
	v0, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	score0, _ := v0.ScoreOf(0)
	top0 := v0.TopK(5)

	for i := 0; i < 5; i++ { // publish versions 1..5; retention 3 keeps 3..5
		step(int64(100+i), 10)
	}
	latest, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Seq() != 5 {
		t.Fatalf("latest view at %d, want 5", latest.Seq())
	}
	for seq := uint64(3); seq <= 5; seq++ {
		v, err := eng.ViewAt(seq)
		if err != nil || v.Seq() != seq {
			t.Fatalf("ViewAt(%d): %v err=%v", seq, v, err)
		}
	}
	for _, seq := range []uint64{0, 1, 2, 99} {
		if _, err := eng.ViewAt(seq); !errors.Is(err, ErrVersionEvicted) {
			t.Errorf("ViewAt(%d) = %v, want ErrVersionEvicted", seq, err)
		}
	}
	// The held v0 keeps answering for its version after trimming.
	if s, ok := v0.ScoreOf(0); !ok || s != score0 {
		t.Errorf("held view score drifted: %v vs %v", s, score0)
	}
	for i, e := range v0.TopK(5) {
		if e != top0[i] {
			t.Errorf("held view TopK drifted at %d: %+v vs %+v", i, e, top0[i])
		}
	}
}

// deltaOracle is the movement set between two views built from their
// public iterators alone: both vectors padded with zeros to the longer one,
// every slot whose scores differ reported From old's To cur's.
func deltaOracle(old, cur *View) []Movement {
	if old == nil {
		return nil
	}
	a, b := ranksOf(old), ranksOf(cur)
	n := max(len(a), len(b))
	a = append(a, make([]float64, n-len(a))...)
	b = append(b, make([]float64, n-len(b))...)
	var want []Movement
	for u := range n {
		if a[u] != b[u] {
			want = append(want, Movement{V: uint32(u), From: a[u], To: b[u]})
		}
	}
	return want
}

// assertDelta pins cur.Delta(old) to deltaOracle: the exact movement set in
// vertex order, nil for a view diffed with itself or with nil, and a
// non-empty set otherwise so a case cannot pass by moving nothing.
func assertDelta(t *testing.T, old, cur *View) {
	t.Helper()
	got, want := cur.Delta(old), deltaOracle(old, cur)
	if !slices.Equal(got, want) {
		t.Fatalf("Delta(%d → %d) reported %d movements, the oracle %d", old.Seq(), cur.Seq(), len(got), len(want))
	}
	if old == cur {
		if got != nil || cur.Delta(nil) != nil {
			t.Errorf("a view diffed with itself or nil reported movements")
		}
	} else if len(want) == 0 {
		t.Fatal("nothing moved between the views; the case checks nothing")
	}
}

// TestViewDelta pins View.Delta against deltaOracle on view pairs of
// different lengths: whatever the two vertex counts, the shorter vector
// reads as zeros. The tests after it cover the spans the engine's history
// can put between two views.
func TestViewDelta(t *testing.T) {
	ctx := context.Background()
	view := func(t *testing.T, eng *Engine) *View {
		t.Helper()
		v, err := eng.View()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, tc := range []struct {
		name string
		// views returns the pair in Delta's argument order: cur.Delta(old).
		views func(t *testing.T) (old, cur *View)
	}{
		{"Adjacent", func(t *testing.T) (*View, *View) {
			eng, step := viewEngine(t)
			before := view(t, eng)
			step(7, 14)
			return before, view(t, eng)
		}},
		{"Growth", func(t *testing.T) (*View, *View) {
			eng, _ := viewEngine(t)
			before := view(t, eng)
			n := uint32(before.N())
			if _, err := eng.Apply(ctx, nil, []Edge{{U: 0, V: n + 2}, {U: n + 2, V: 1}}); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Rank(ctx); err != nil {
				t.Fatal(err)
			}
			after := view(t, eng)
			if after.N() != before.N()+3 {
				t.Fatalf("grown view has %d vertices, want %d", after.N(), before.N()+3)
			}
			return before, after
		}},
		{"TwoEngines", func(t *testing.T) (*View, *View) {
			// Different graphs and vertex counts: both paddings at once.
			eng, _ := viewEngine(t)
			n, edges, _ := testGraph(t, 8, 34)
			other, err := New(n, edges, WithThreads(2))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { other.Close() })
			if _, err := other.Rank(ctx); err != nil {
				t.Fatal(err)
			}
			return view(t, other), view(t, eng)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, cur := tc.views(t)
			assertDelta(t, old, cur)
		})
	}
}

// TestViewDeltaFrontierMatchesScan pins Delta across two refreshes: the
// frontier of moved vertices is exactly what a scan of both score vectors
// finds, the direction flips when the arguments swap, and a view diffed
// with itself reports nothing.
func TestViewDeltaFrontierMatchesScan(t *testing.T) {
	eng, step := viewEngine(t)
	before, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	step(7, 14)
	step(8, 14)
	after, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	assertDelta(t, before, after)
	assertDelta(t, after, before)
	assertDelta(t, after, after)
}

// TestViewDeltaEvictedChainFallsBack drives the engine far past its
// retention so the batches between two held views are gone from every
// ring: Delta still answers exactly, since it reads only the two views.
func TestViewDeltaEvictedChainFallsBack(t *testing.T) {
	eng, step := viewEngine(t, WithHistory(2))
	before, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	for i := range 6 { // far beyond retention of 2
		step(int64(300+i), 8)
	}
	if _, err := eng.ViewAt(before.Seq()); !errors.Is(err, ErrVersionEvicted) {
		t.Fatalf("view %d still retained (err=%v); the test needs it evicted", before.Seq(), err)
	}
	after, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	assertDelta(t, before, after)
}

// TestViewDeltaChainOutlivesStoreRing covers graph versions advancing faster
// than published rank versions (several Applies per Rank), so the store's
// link ring trims past the batches of still-retained views. Delta across
// the whole span is still exact.
func TestViewDeltaChainOutlivesStoreRing(t *testing.T) {
	ctx := context.Background()
	n, edges, mirror := testGraph(t, 9, 44)
	tol := 1e-3 / float64(n)
	eng, err := New(n, edges, WithThreads(2), WithTolerance(tol), WithFrontierTolerance(tol), WithHistory(8))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	v0, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	// 5 rounds of (3 applies, 1 rank): 15 graph versions, 6 published views
	// (0,3,…,15) — all inside the view ring of 8, while the store ring of 8
	// trims its own history to [8..15].
	for round := range 5 {
		for j := range 3 {
			up := batch.Random(mirror, 6, int64(800+round*3+j))
			mirror.Apply(up.Del, up.Ins)
			if _, err := eng.Apply(ctx, toPublic(up.Del), toPublic(up.Ins)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Rank(ctx); err != nil {
			t.Fatal(err)
		}
	}
	latest, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Seq() != 15 {
		t.Fatalf("latest at %d, want 15", latest.Seq())
	}
	assertDelta(t, v0, latest)
}

// TestViewDeltaBetweenHeldViewsAfterEviction: two consecutive views the
// caller still holds, long after both left the WithHistory ring (and the
// store's ring moved past their batches). Delta between them, and from the
// older to the latest, needs neither ring.
func TestViewDeltaBetweenHeldViewsAfterEviction(t *testing.T) {
	eng, step := viewEngine(t, WithHistory(2))
	step(400, 8)
	older, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	step(401, 8)
	newer, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	for i := range 6 { // far beyond retention of 2
		step(int64(402+i), 8)
	}
	for _, v := range []*View{older, newer} {
		if _, err := eng.ViewAt(v.Seq()); !errors.Is(err, ErrVersionEvicted) {
			t.Fatalf("view %d still in the ring (err=%v); the test needs it evicted", v.Seq(), err)
		}
	}
	latest, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	assertDelta(t, older, newer)
	assertDelta(t, older, latest)
}

// TestViewDeltaAcrossRestartJump: a warm restart publishes the checkpoint's
// view, folds the WAL tail into ONE store version landing at the tail's tip
// (Store.ApplyAt — a sequence jump), and the first Rank refreshes over it.
// Delta across that jump is exact.
func TestViewDeltaAcrossRestartJump(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	n, edges, mirror := testGraph(t, 9, 46)
	tol := 1e-3 / float64(n)
	opts := []Option{WithDurability(dir), WithThreads(2), WithTolerance(tol), WithFrontierTolerance(tol)}
	eng, err := New(n, edges, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const tail = 4
	for i := range tail {
		up := batch.Random(mirror, 6, int64(950+i))
		mirror.Apply(up.Del, up.Ins)
		if _, err := eng.Apply(ctx, toPublic(up.Del), toPublic(up.Ins)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := New(0, nil, opts...)
	if err != nil {
		t.Fatalf("warm restart: %v", err)
	}
	defer eng2.Close()
	ckpt, err := eng2.View()
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng2.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if refreshes := eng2.Stats().Refreshes; ckpt.Seq() != 0 || res.View.Seq() != tail || refreshes != 1 {
		t.Fatalf("restart ranked %d → %d in %d refreshes, want one incremental 0 → %d", ckpt.Seq(), res.View.Seq(), refreshes, tail)
	}
	assertDelta(t, ckpt, res.View)
}

// TestNoOpRankCarriesLatestView pins the Result.View contract: a Rank that
// advances nothing still carries the already-published view, so successful
// results never have a nil view.
func TestNoOpRankCarriesLatestView(t *testing.T) {
	eng, step := viewEngine(t)
	res, err := eng.Rank(context.Background()) // engine already current
	if err != nil {
		t.Fatal(err)
	}
	if res.Advanced != 0 {
		t.Fatalf("advanced=%d on an idle rank", res.Advanced)
	}
	latest, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if res.View != latest {
		t.Fatalf("idle Rank view %p != latest published %p", res.View, latest)
	}
	step(9, 6)
	if res2, err := eng.Rank(context.Background()); err != nil || res2.View == nil || res2.Advanced != 0 {
		t.Fatalf("second idle rank: view=%v advanced=%d err=%v", res2.View, res2.Advanced, err)
	}
}

// TestLiveGraphsIndependentOfRoundsPerView pins the retention rule end to
// end: a view published every k applied rounds pins its own CSR only, and
// the store retains none, so the graph snapshots alive are those of the
// retained views plus Current() and the ranker's own — whatever k is.
// Weak pointers observe reachability directly.
func TestLiveGraphsIndependentOfRoundsPerView(t *testing.T) {
	ctx := context.Background()
	const history, rounds = 4, 6
	for _, k := range []int{1, 8, 32} {
		n, edges, mirror := testGraph(t, 8, 45)
		tol := 1e-3 / float64(n)
		eng, err := New(n, edges, WithThreads(2), WithTolerance(tol), WithFrontierTolerance(tol), WithHistory(history))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Rank(ctx); err != nil {
			t.Fatal(err)
		}
		graphs := []weak.Pointer[graph.CSR]{weak.Make(eng.store.Current().G)}
		for round := 0; round < rounds; round++ {
			for j := 0; j < k; j++ {
				up := batch.Random(mirror, 4, int64(900+round*k+j))
				mirror.Apply(up.Del, up.Ins)
				if _, err := eng.Apply(ctx, toPublic(up.Del), toPublic(up.Ins)); err != nil {
					t.Fatal(err)
				}
				graphs = append(graphs, weak.Make(eng.store.Current().G))
			}
			if _, err := eng.Rank(ctx); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		live := 0
		for _, w := range graphs {
			if w.Value() != nil {
				live++
			}
		}
		if limit := history + 2; live > limit {
			t.Errorf("k=%d: %d of %d graph snapshots alive, want ≤ %d (%d retained views + Current() + ranker)",
				k, live, len(graphs), limit, history)
		}
		eng.Close()
	}
}

// TestUpdateCarriesVersionedView pins the stream payload: a subscription
// delivers the very Result its Rank returned, and that result's view is the
// same immutable handle Engine.View serves for the version.
func TestUpdateCarriesVersionedView(t *testing.T) {
	eng, step := viewEngine(t)
	sub := eng.Subscribe()
	defer sub.Close()
	step(5, 10)
	u := <-sub.Updates()
	if u.View == nil {
		t.Fatal("update without view")
	}
	latest, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if u.View != latest || u.View.Seq() != u.Seq {
		t.Fatalf("update view %p (seq %d) is not the published view %p (seq %d)",
			u.View, u.View.Seq(), latest, latest.Seq())
	}
	ctx := context.Background()
	if _, err := eng.Apply(ctx, nil, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-sub.Updates(); got != *res {
		t.Fatalf("subscription delivered %+v, Rank returned %+v", got, *res)
	}
}
