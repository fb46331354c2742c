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
	// Range and Scores visit every vertex in order, with early stop.
	seen := 0
	v.Range(func(u uint32, s float64) bool {
		if int(u) != seen || s != ref[u] {
			t.Fatalf("Range visited (%d,%v) at position %d", u, s, seen)
		}
		seen++
		return true
	})
	if seen != v.N() {
		t.Fatalf("Range visited %d of %d", seen, v.N())
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

// TestViewDeltaFrontierMatchesScan pins the frontier-walk Delta against the
// brute-force scan: with the chain retained the two must report the exact
// same movement set, and the frontier result must cover every vertex whose
// rank changed.
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
	got := after.Delta(before)
	want := deltaScan(before, after, 0)
	if len(got) != len(want) {
		t.Fatalf("frontier delta found %d movements, scan %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("movement %d: frontier %+v scan %+v", i, got[i], want[i])
		}
	}
	// Direction flips when the arguments swap.
	rev := before.Delta(after)
	if len(rev) != len(got) {
		t.Fatalf("reversed delta size %d, want %d", len(rev), len(got))
	}
	for i := range rev {
		if rev[i].From != got[i].To || rev[i].To != got[i].From || rev[i].V != got[i].V {
			t.Fatalf("reversed movement %d: %+v vs %+v", i, rev[i], got[i])
		}
	}
	if d := after.Delta(after); d != nil {
		t.Errorf("self delta non-empty: %v", d)
	}
	// DeltaAbove filters the report by magnitude.
	eps := 0.0
	for _, m := range got {
		if d := m.To - m.From; d > eps {
			eps = d
		} else if -d > eps {
			eps = -d
		}
	}
	if len(after.DeltaAbove(before, eps)) != 0 {
		t.Error("DeltaAbove at the max magnitude still reported movements")
	}
	if len(after.DeltaAbove(before, eps/2)) == 0 {
		t.Error("DeltaAbove at half the max magnitude reported nothing")
	}
}

// TestViewDeltaEvictedChainFallsBack drives the store past its retention so
// the batch chain between two held views is gone: Delta must still answer,
// via the full scan.
func TestViewDeltaEvictedChainFallsBack(t *testing.T) {
	eng, step := viewEngine(t, WithHistory(2))
	before, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ { // far beyond retention of 2
		step(int64(300+i), 8)
	}
	after, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := deltaFrontier(before, after, 0); ok {
		t.Error("deltaFrontier claims a chain across evicted views")
	}
	got := after.Delta(before)
	want := deltaScan(before, after, 0)
	if len(got) != len(want) {
		t.Fatalf("fallback delta found %d movements, scan %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("movement %d: %+v vs %+v", i, got[i], want[i])
		}
	}
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

// assertDeltaFrontier pins that the frontier walk from lo to hi finds its
// chain (ok — no silent degradation to the scan) and reports exactly what
// the scan reports.
func assertDeltaFrontier(t *testing.T, lo, hi *View) {
	t.Helper()
	got, ok := deltaFrontier(lo, hi, 0)
	if !ok {
		t.Fatalf("deltaFrontier(%d → %d) found no chain and would fall back to the O(n) scan", lo.Seq(), hi.Seq())
	}
	if want := deltaScan(lo, hi, 0); !slices.Equal(got, want) {
		t.Fatalf("deltaFrontier(%d → %d) found %d movements, scan %d", lo.Seq(), hi.Seq(), len(got), len(want))
	}
}

// TestViewDeltaChainOutlivesStoreRing covers graph versions advancing faster
// than published rank versions (several Applies per Rank), so the store's
// link ring trims past the batch chains of still-retained views. The views
// own their chains, so Delta across the whole span still walks the frontier.
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
	for round := 0; round < 5; round++ {
		for j := 0; j < 3; j++ {
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
	assertDeltaFrontier(t, v0, latest)
}

// TestViewDeltaBetweenHeldViewsAfterEviction: two consecutive views the
// caller still holds, long after both left the WithHistory ring (and the
// store's ring moved past their batches). The newer view carries the chain
// from the older, so Delta between them needs neither ring.
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
	for i := 0; i < 6; i++ { // far beyond retention of 2
		step(int64(402+i), 8)
	}
	for _, v := range []*View{older, newer} {
		if _, err := eng.ViewAt(v.Seq()); !errors.Is(err, ErrVersionEvicted) {
			t.Fatalf("view %d still in the ring (err=%v); the test needs it evicted", v.Seq(), err)
		}
	}
	assertDeltaFrontier(t, older, newer)
	// Across a view that has left the ring there is no chain to read.
	latest, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := deltaFrontier(older, latest, 0); ok {
		t.Error("deltaFrontier claims a chain across evicted views")
	}
}

// TestViewDeltaAcrossRestartJump: a warm restart publishes the checkpoint's
// view, folds the WAL tail into ONE store version landing at the tail's tip
// (Store.ApplyAt — a sequence jump), and the first Rank refreshes over it.
// The chain between the two views is that one link; Delta must walk it.
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
	for i := 0; i < tail; i++ {
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
	if ckpt.Seq() != 0 || res.View.Seq() != tail || res.Rebuilt {
		t.Fatalf("restart ranked %d → %d (rebuilt=%v), want an incremental 0 → %d", ckpt.Seq(), res.View.Seq(), res.Rebuilt, tail)
	}
	assertDeltaFrontier(t, ckpt, res.View)
}

// TestLiveGraphsIndependentOfRoundsPerView pins the retention rule end to
// end: a view published every k applied rounds carries k chain links, not k
// CSRs, and the store retains none, so the graph snapshots alive are those
// of the retained views plus Current() and the ranker's own — whatever k is.
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

// TestUpdateCarriesVersionedView pins the stream payload now that the
// copy-based shims are gone: every Update's view is the same immutable
// handle Engine.View serves for that version.
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
}
