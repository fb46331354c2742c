package dfpr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dfpr/internal/batch"
	"dfpr/internal/graph"
	"dfpr/internal/topk"
)

// Growth-equivalence acceptance tests for the open vertex universe: an
// engine that grows its graph under interleaved grow+apply+rank must land on
// the same ranks as a cold build of the final graph. The engines run at a
// very tight tolerance so the two approximately-converged runs can be
// compared at the 1e-12 acceptance bound: a converged run sits within
// ~α/(1-α)·τ of the true fixed point, so τ = 5e-14 keeps the worst-case
// separation of two independent runs below 6e-13.
const growthTol = 5e-14

// growthScript deterministically builds an interleaved growth workload:
// batches that mix edges among existing vertices, deletions, and edges
// naming never-seen vertex ids (the growth). It mirrors every applied batch
// onto a plain edge-set model so the test can cold-build the final graph.
type growthScript struct {
	rng   *rand.Rand
	n     int // current universe
	edges map[[2]uint32]bool
}

func newGrowthScript(n0 int, seed int64) *growthScript {
	s := &growthScript{rng: rand.New(rand.NewSource(seed)), n: n0, edges: map[[2]uint32]bool{}}
	for i := 0; i < 3*n0; i++ {
		u, v := uint32(s.rng.Intn(n0)), uint32(s.rng.Intn(n0))
		s.edges[[2]uint32{u, v}] = true
	}
	return s
}

func (s *growthScript) initialEdges() []Edge {
	var out []Edge
	for e := range s.edges {
		out = append(out, Edge{U: e[0], V: e[1]})
	}
	return out
}

// nextBatch produces one batch: a few deletions of existing edges, a few
// inserts among existing vertices, and grow new vertices wired into (and
// sometimes only dangling off) the existing graph.
func (s *growthScript) nextBatch(grow int) (del, ins []Edge) {
	for e := range s.edges {
		if len(del) >= 3 {
			break
		}
		del = append(del, Edge{U: e[0], V: e[1]})
		delete(s.edges, e)
	}
	for i := 0; i < 5; i++ {
		u, v := uint32(s.rng.Intn(s.n)), uint32(s.rng.Intn(s.n))
		ins = append(ins, Edge{U: u, V: v})
		s.edges[[2]uint32{u, v}] = true
	}
	for i := 0; i < grow; i++ {
		nv := uint32(s.n + i)
		if i%3 != 2 { // every third new vertex stays dangling (self-loop only)
			w := uint32(s.rng.Intn(s.n))
			ins = append(ins, Edge{U: nv, V: w}, Edge{U: w, V: nv})
			s.edges[[2]uint32{nv, w}] = true
			s.edges[[2]uint32{w, nv}] = true
		} else {
			// Dangling vertices are still mentioned so the universe grows:
			// a self-loop insert is a no-op edge-wise (EnsureSelfLoops adds
			// it anyway) but names the id.
			ins = append(ins, Edge{U: nv, V: nv})
		}
	}
	s.n += grow
	return del, ins
}

// TestGrowthEquivalenceAllVariants is the acceptance criterion: interleaved
// grow+apply+rank matches a cold build of the final graph within L∞ ≤ 1e-12,
// across seeds. This is the engine's DF-LF row; internal/core's test of the
// same name runs all eight variants.
func TestGrowthEquivalenceAllVariants(t *testing.T) {
	ctx := context.Background()
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("DFLF/seed%d", seed), func(t *testing.T) {
			s := newGrowthScript(40, seed)
			opts := []Option{WithThreads(4), WithTolerance(growthTol)}
			eng, err := New(s.n, s.initialEdges(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Rank(ctx); err != nil {
				t.Fatal(err)
			}
			// Four batches; the middle two land under one Rank so the
			// span-coalesced path replays growth too.
			for i := 0; i < 4; i++ {
				del, ins := s.nextBatch(5 + i)
				if _, err := eng.Apply(ctx, del, ins); err != nil {
					t.Fatal(err)
				}
				if i != 1 { // skip → versions 2+3 refresh as one span
					if _, err := eng.Rank(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
			res, err := eng.Rank(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("incremental engine did not converge")
			}

			cold, err := New(s.n, s.initialEdges(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			coldRes, err := cold.Rank(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.View.N(), s.n; got != want {
				t.Fatalf("grown universe N = %d, want %d", got, want)
			}
			if d := topk.LInf(ranksOf(res.View), ranksOf(coldRes.View)); d > 1e-12 {
				t.Errorf("grown-then-ranked deviates from cold build by %g (bound 1e-12)", d)
			}
		})
	}
}

// TestGrowDeadEndSeeding pins the closed-form dead-end handling: a pure
// Grow publishes isolated self-loop vertices whose rank is exactly 1/n, and
// the old vertices' ranks rescale by n₀/n₁ — so the refresh over a pure
// growth converges in one pass from the exact seed.
func TestGrowDeadEndSeeding(t *testing.T) {
	ctx := context.Background()
	n0, edges, _ := testGraph(t, 11, 4)
	eng, err := New(n0, edges, WithTolerance(growthTol), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n1 := n0 + 16
	seq, err := eng.Grow(ctx, n1)
	if err != nil || seq != 1 {
		t.Fatalf("Grow: seq %d, err %v", seq, err)
	}
	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.View.N() != n1 {
		t.Fatalf("N = %d, want %d", res.View.N(), n1)
	}
	uniform := 1 / float64(n1)
	for u := n0; u < n1; u++ {
		if s, _ := res.View.ScoreOf(uint32(u)); math.Abs(s-uniform) > 1e-12 {
			t.Fatalf("dangling vertex %d rank %g, want exactly 1/n = %g", u, s, uniform)
		}
	}
	scale := float64(n0) / float64(n1)
	for u := 0; u < n0; u++ {
		old, _ := before.View.ScoreOf(uint32(u))
		now, _ := res.View.ScoreOf(uint32(u))
		if math.Abs(now-old*scale) > 1e-12 {
			t.Fatalf("vertex %d rank %g, want rescaled %g", u, now, old*scale)
		}
	}
	// Movement report across growth: every old vertex moved (rescale), new
	// vertices report From 0, and nothing panics on the length mismatch.
	moved := res.View.Delta(before.View)
	if len(moved) != n1 {
		t.Fatalf("Delta across growth reported %d movements, want %d", len(moved), n1)
	}
	for _, m := range moved {
		if int(m.V) >= n0 && m.From != 0 {
			t.Fatalf("new vertex %d reports From %g, want 0", m.V, m.From)
		}
	}
}

// TestGrowthFromEmptyOpen covers the Open lifecycle corner: an engine born
// with zero vertices converges an empty rank state, then grows into a real
// graph purely through submissions.
func TestGrowthFromEmptyOpen(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := eng.View(); err != nil || v.N() != 0 {
		t.Fatalf("empty view: %v, %v", v, err)
	}
	tk, err := eng.SubmitKeyed(ctx, nil, []KeyEdge{{From: "a", To: "b"}, {From: "b", To: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 3 {
		t.Fatalf("N = %d, want 3", v.N())
	}
	var sum float64
	for _, s := range v.Scores() {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ranks sum to %g, want 1", sum)
	}
}

// TestConcurrentResolveSubmitViewRace is the race pass of the keyed
// surface: concurrent keyed submissions, key resolution, and view reads
// (ScoreOfKey, TopK, and KeyOf while the interner grows) over a growing
// universe, checked under -race.
func TestConcurrentResolveSubmitViewRace(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	key := func(i int) Key { return fmt.Sprintf("user-%03d", i) }
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 150; i++ {
				ins := []KeyEdge{{From: key(rng.Intn(200)), To: key(rng.Intn(200))}}
				var del []KeyEdge
				if i%5 == 4 {
					del = []KeyEdge{{From: key(rng.Intn(200)), To: key(rng.Intn(200))}}
				}
				if _, err := eng.SubmitKeyed(ctx, del, ins); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				eng.Resolve(key(i % 200))
				v, err := eng.View()
				if err != nil {
					continue // no ranks yet
				}
				v.ScoreOfKey(key(i % 200))
				v.KeyOf(uint32(i % 200))
				for _, e := range v.TopK(5) {
					v.KeyOf(e.V)
				}
			}
		}(r)
	}
	wg.Wait()
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != eng.Keys() {
		t.Fatalf("universe %d != key space %d after flush", v.N(), eng.Keys())
	}
	// Every interned key resolves to a live, scored vertex.
	for i := 0; i < eng.Keys(); i++ {
		k, ok := v.KeyOf(uint32(i))
		if !ok {
			t.Fatalf("vertex %d has no key", i)
		}
		if _, ok := v.ScoreOfKey(k); !ok {
			t.Fatalf("key %q does not score", k)
		}
	}
}

// TestGrowthEquivalenceThroughIngest runs the growth workload through the
// coalescing ingest pipeline (Submit + policy-scheduled ranks) instead of
// the manual Apply/Rank loop, then pins the final ranks against a cold
// build — growth and coalesced rounds compose.
func TestGrowthEquivalenceThroughIngest(t *testing.T) {
	ctx := context.Background()
	s := newGrowthScript(32, 9)
	opts := []Option{WithThreads(4), WithTolerance(growthTol)}
	eng, err := New(s.n, s.initialEdges(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		del, ins := s.nextBatch(4)
		if _, err := eng.Submit(ctx, del, ins); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(s.n, s.initialEdges(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldRes, err := cold.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d := topk.LInf(ranksOf(v), ranksOf(coldRes.View)); d > 1e-12 {
		t.Errorf("ingested growth deviates from cold build by %g (bound 1e-12)", d)
	}
}

// TestUniverseBound is the open universe's safety valve: a write naming a
// huge dense id must fail with ErrTooManyVertices — a client error — never
// attempt the graph-sized allocation, on every growth path (New, Apply,
// Submit, Grow), and WithMaxVertices moves the bound.
func TestUniverseBound(t *testing.T) {
	ctx := context.Background()
	huge := []Edge{{U: 4_000_000_000, V: 1}}
	if _, err := New(4, huge); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("New with huge id: %v", err)
	}
	eng, err := New(4, []Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Apply(ctx, nil, huge); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("Apply with huge id: %v", err)
	}
	if _, err := eng.Submit(ctx, nil, huge); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("Submit with huge id: %v", err)
	}
	if _, err := eng.Grow(ctx, 1<<30); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("Grow past the bound: %v", err)
	}
	if eng.Version() != 0 {
		t.Fatal("a rejected write published a version")
	}
	// Deleting an edge that cannot exist never grows the universe — the
	// batch is dropped to a no-op instead of allocating the id range (and
	// instead of erroring: a delete of nothing is vacuously done).
	if seq, err := eng.Apply(ctx, huge, nil); err != nil || seq != 1 {
		t.Fatalf("Apply with huge DELETED id: seq %d, %v", seq, err)
	}
	if res, err := eng.Rank(ctx); err != nil || res.View.N() != 4 {
		t.Fatalf("huge delete grew the universe: N=%d, %v", res.View.N(), err)
	}
	// The bound is an option, not a constant.
	small, err := New(2, nil, WithMaxVertices(8))
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if _, err := small.Apply(ctx, nil, []Edge{{U: 9, V: 0}}); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("Apply past a lowered bound: %v", err)
	}
	if seq, err := small.Apply(ctx, nil, []Edge{{U: 7, V: 0}}); err != nil || seq != 1 {
		t.Fatalf("in-bound growth: seq %d, %v", seq, err)
	}
}

// TestGrowthSurvivesCancellingChurn: a vertex whose only edge is inserted
// and then deleted still exists afterwards — exactly as sequential
// application would leave it — no matter how the ingest loop coalesces the
// two submissions (last-op-wins would otherwise erase the insertion, and
// with it the growth, making the final universe depend on round timing).
func TestGrowthSurvivesCancellingChurn(t *testing.T) {
	ctx := context.Background()
	// Store-level determinism first: one merged round of ins-then-del.
	merged := batch.Merge(
		batch.Update{Ins: []graph.Edge{{U: 0, V: 9}}, N: 10},
		batch.Update{Del: []graph.Edge{{U: 0, V: 9}}},
	)
	if merged.N != 10 || len(merged.Ins) != 0 {
		t.Fatalf("merge lost growth: %+v", merged)
	}

	// Engine-level: whatever coalescing happens, the outcome must match
	// sequential application.
	eng, err := New(2, []Edge{{U: 0, V: 1}}, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(ctx, nil, []Edge{{U: 0, V: 9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(ctx, []Edge{{U: 0, V: 9}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 10 {
		t.Fatalf("N = %d after cancelling churn, want 10 (vertices outlive their edges)", v.N())
	}
	if s, ok := v.ScoreOf(9); !ok || s <= 0 {
		t.Fatalf("churn-created vertex unranked: %g %v", s, ok)
	}
}

// TestDynamicGrowDeltaSnapshot pins the substrate: a Snapshot after Grow
// plus a small batch must still take the delta-merge path and agree with a
// cold rebuild.
func TestDynamicGrowDeltaSnapshot(t *testing.T) {
	d := graph.NewDynamic(6)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.AddEdge(5, 0)
	d.EnsureSelfLoops()
	d.Snapshot() // establish the delta base
	d.Grow(9)
	d.AddEdge(7, 1)
	d.AddEdge(2, 8)
	d.EnsureSelfLoops()
	g := d.Snapshot()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 9 {
		t.Fatalf("N = %d, want 9", g.N())
	}
	full := d.Clone()
	full.EnsureSelfLoops()
	want := full.SnapshotFull()
	if g.M() != want.M() {
		t.Fatalf("M = %d, want %d", g.M(), want.M())
	}
	for u := uint32(0); int(u) < g.N(); u++ {
		a, b := g.Out(u), want.Out(u)
		if len(a) != len(b) {
			t.Fatalf("out row %d differs: %v vs %v", u, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("out row %d differs: %v vs %v", u, a, b)
			}
		}
	}
}
