package snapshot

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/graph"
	"dfpr/internal/topk"
)

// growthTol is tight enough that two independently converged runs can be
// compared at the 1e-12 acceptance bound: a converged run sits within
// ~α/(1-α)·τ of the fixed point, so τ = 5e-14 keeps two runs within 6e-13.
const growthTol = 5e-14

// growthModel mirrors every batch it hands out onto a plain edge set, so a
// test can cold-build the graph the store should have reached.
type growthModel struct {
	rng   *rand.Rand
	n     int
	edges map[graph.Edge]bool
}

func newGrowthModel(n0 int, seed int64) *growthModel {
	m := &growthModel{rng: rand.New(rand.NewSource(seed)), n: n0, edges: map[graph.Edge]bool{}}
	for i := 0; i < 3*n0; i++ {
		m.edges[graph.Edge{U: uint32(m.rng.Intn(n0)), V: uint32(m.rng.Intn(n0))}] = true
	}
	return m
}

func (m *growthModel) build() *graph.Dynamic {
	d := graph.NewDynamic(m.n)
	for e := range m.edges {
		d.AddEdge(e.U, e.V)
	}
	return d
}

// next deletes three edges, inserts five among existing vertices, and grows
// the universe by grow vertices — two of every three wired both ways into
// the graph, the third left dangling, named only by its self-loop.
func (m *growthModel) next(grow int) batch.Update {
	var up batch.Update
	for e := range m.edges {
		if len(up.Del) >= 3 {
			break
		}
		up.Del = append(up.Del, e)
		delete(m.edges, e)
	}
	add := func(u, v uint32) {
		up.Ins = append(up.Ins, graph.Edge{U: u, V: v})
		m.edges[graph.Edge{U: u, V: v}] = true
	}
	for i := 0; i < 5; i++ {
		add(uint32(m.rng.Intn(m.n)), uint32(m.rng.Intn(m.n)))
	}
	for i := 0; i < grow; i++ {
		nv := uint32(m.n + i)
		if i%3 != 2 {
			w := uint32(m.rng.Intn(m.n))
			add(nv, w)
			add(w, nv)
		} else {
			up.Ins = append(up.Ins, graph.Edge{U: nv, V: nv})
		}
	}
	m.n += grow
	return up
}

// TestGrowthEquivalenceAllVariants: interleaved grow+apply+refresh lands
// within L∞ ≤ 1e-12 of a cold ranker on the final graph, for every one of
// the paper's eight variants, across seeds. The middle two batches land
// under one Refresh, so the merged-span replay carries growth too.
func TestGrowthEquivalenceAllVariants(t *testing.T) {
	ctx := context.Background()
	cfg := core.Config{Threads: 4, Tol: growthTol}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, algo := range core.Algos {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%v/seed%d", algo, seed), func(t *testing.T) {
				m := newGrowthModel(40, seed)
				s := NewStore(m.build(), 0)
				r, _, err := NewRanker(ctx, s, algo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					s.Apply(m.next(5 + i))
					if i == 1 {
						continue // versions 2 and 3 refresh as one span
					}
					if res, _, err := r.Refresh(ctx); err != nil || !res.Converged {
						t.Fatalf("refresh %d: converged=%v err=%v", i, res.Converged, err)
					}
				}
				if r.Seq() != 4 {
					t.Fatalf("seq=%d", r.Seq())
				}

				cold, _, err := NewRanker(ctx, NewStore(m.build(), 0), algo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := len(r.Ranks()); got != m.n {
					t.Fatalf("grown universe N = %d, want %d", got, m.n)
				}
				if d := topk.LInf(r.Ranks(), cold.Ranks()); d > 1e-12 {
					t.Errorf("grown-then-refreshed deviates from cold build by %g (bound 1e-12)", d)
				}
			})
		}
	}
}
