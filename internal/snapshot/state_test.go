package snapshot

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/fault"
	"dfpr/internal/graph"
)

// TestRankerStateMatchesFresh drives 200 seeded spans through one ranker at
// one worker: inserts, deletes (self-loops included), churn that cancels
// inside a span, growth across 64-row block edges, refreshes that fail
// because every worker crashed or the context was canceled, and restarts
// through ResumeRanker. After every refresh the ranker's kept core.State
// must hold the factors a fresh build from the tip holds, bit for bit, and
// the bounds of a fresh build from the graph they were last cut on (a cut
// is due on growth or past 1/8 edge drift). After every landing its ranks
// must equal, bit for bit, those of a ranker built fresh at the previous
// landing and handed the same batches.
func TestRankerStateMatchesFresh(t *testing.T) {
	const n0 = 60
	rng := rand.New(rand.NewSource(54))
	d := graph.NewDynamic(n0)
	for i := 0; i < 4*n0; i++ {
		d.AddEdge(uint32(rng.Intn(n0)), uint32(rng.Intn(n0)))
	}
	s := NewStore(d, 0)
	cfg := core.Config{Threads: 1, Tol: 1e-12}
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// cut is the graph the model says the ranker's bounds were last cut on.
	cut := s.Current().G
	checkState := func(step int, what string) {
		t.Helper()
		tip := s.Current().G
		if d := tip.M() - cut.M(); tip.N() != cut.N() || 8*max(d, -d) > cut.M() {
			cut = tip
		}
		ainv, dinv := r.state.Factors()
		wantA, wantD := core.NewState(tip, cfg).Factors()
		if !sameBits(ainv, wantA) || !sameBits(dinv, wantD) {
			t.Fatalf("step %d (%s): kept factors differ from a fresh build at the tip (n=%d)", step, what, tip.N())
		}
		if got, want := r.state.Bounds(), core.NewState(cut, cfg).Bounds(); !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): kept bounds %v, want %v", step, what, got, want)
		}
	}
	checkState(-1, "cold run")

	prev, prevRanks := r.Version(), r.RanksShared()
	var since []batch.Update // every batch applied since the last landing
	apply := func(up batch.Update) {
		s.Apply(up)
		since = append(since, up)
	}
	var grownPast64 bool
	for i := 0; i < 200; i++ {
		g := s.Current().G
		n := g.N()
		edges := g.Edges(nil)
		pick := func() graph.Edge { return edges[rng.Intn(len(edges))] }
		fresh := func() graph.Edge { return graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))} }
		var up batch.Update
		for k := rng.Intn(3); k > 0; k-- {
			up.Del = append(up.Del, pick())
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			up.Ins = append(up.Ins, fresh())
		}
		if i%7 == 3 {
			// Growth: new vertices wired both ways, and one named only by
			// the universe, which the store loops.
			grow := 1 + rng.Intn(6)
			for v := n; v < n+grow-1; v++ {
				w := uint32(rng.Intn(n))
				up.Ins = append(up.Ins, graph.Edge{U: uint32(v), V: w}, graph.Edge{U: w, V: uint32(v)})
			}
			up.N = n + grow
			grownPast64 = grownPast64 || (n-1)/64 != (n+grow-1)/64
		}
		apply(up)
		if i%5 == 0 {
			// Churn that cancels inside the span: x is inserted and deleted
			// again, y deleted and inserted again.
			x, y := fresh(), pick()
			apply(batch.Update{Ins: []graph.Edge{x}, Del: []graph.Edge{y}})
			apply(batch.Update{Del: []graph.Edge{x}, Ins: []graph.Edge{y}})
		}

		switch {
		case i%23 == 5:
			r.SetFault(fault.Plan{CrashWorkers: fault.CrashSet(1, 1), Seed: int64(i)})
			_, _, err := r.Refresh(context.Background())
			r.SetFault(fault.Plan{})
			if !errors.Is(err, core.ErrAllCrashed) {
				t.Fatalf("step %d: all-crash refresh: %v", i, err)
			}
			checkState(i, "all crashed")
			continue
		case i%29 == 11:
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, _, err := r.Refresh(ctx); !errors.Is(err, core.ErrCanceled) {
				t.Fatalf("step %d: canceled refresh: %v", i, err)
			}
			checkState(i, "canceled")
			continue
		}
		if _, _, err := r.Refresh(context.Background()); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		checkState(i, "landing")

		// The same batches through a ranker built fresh at the previous
		// landing.
		s2 := NewStoreAt(graph.DynamicFromCSR(prev.G), prev.Seq)
		r2, err := ResumeRanker(s2, cfg, prevRanks)
		if err != nil {
			t.Fatal(err)
		}
		for _, up := range since {
			s2.Apply(up)
		}
		if _, _, err := r2.Refresh(context.Background()); err != nil {
			t.Fatalf("step %d: fresh ranker: %v", i, err)
		}
		if r2.Seq() != r.Seq() || r2.Version().G.M() != r.Version().G.M() {
			t.Fatalf("step %d: fresh ranker at version %d with %d edges, kept one at %d with %d",
				i, r2.Seq(), r2.Version().G.M(), r.Seq(), r.Version().G.M())
		}
		if !sameBits(r.RanksShared(), r2.RanksShared()) {
			t.Fatalf("step %d: ranks differ from a freshly built ranker's", i)
		}
		prev, prevRanks, since = r.Version(), r.RanksShared(), nil

		if i%31 == 17 {
			// Restart: a new store at the landed version, and a ranker
			// resumed on it at the landed ranks.
			s = NewStoreAt(graph.DynamicFromCSR(prev.G), prev.Seq)
			if r, err = ResumeRanker(s, cfg, prevRanks); err != nil {
				t.Fatal(err)
			}
			cut = s.Current().G
			checkState(i, "resumed")
		}
	}
	if !grownPast64 {
		t.Error("no growth crossed a 64-row block edge")
	}
}

// sameBits reports whether a and b hold the same float64s, bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
