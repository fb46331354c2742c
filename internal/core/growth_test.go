package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dfpr/internal/batch"
	"dfpr/internal/graph"
	"dfpr/internal/topk"
)

// growthTol is tight enough that two independently converged runs can be
// compared at the 1e-12 acceptance bound: a converged run sits within
// ~α/(1-α)·τ of the fixed point, so τ = 5e-14 keeps two runs within 6e-13.
const growthTol = 5e-14

// growthModel mirrors every batch it hands out onto a plain edge set, so a
// test can cold-build the graph the batches should reach. It is the model
// internal/snapshot's growth test drives through the ranker.
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

// TestGrowthEquivalenceAllVariants: interleaved grow+apply+run lands within
// L∞ ≤ 1e-12 of a cold run on the final graph, for every one of the paper's
// eight variants, across seeds. Each run starts from the previous vector
// rescaled by GrowRanks, as the snapshot ranker does, and the middle two
// batches run as one merged batch, so a multi-version span carries growth
// too.
func TestGrowthEquivalenceAllVariants(t *testing.T) {
	cfg := Config{Threads: 4, Tol: growthTol}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, algo := range Algos {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%v/seed%d", algo, seed), func(t *testing.T) {
				m := newGrowthModel(40, seed)
				d := m.build()
				d.EnsureSelfLoops()
				g := d.Snapshot()
				res := Run(AlgoStaticLF, Input{GNew: g}, cfg)
				if !res.Converged {
					t.Fatal("cold run did not converge")
				}
				ranks := res.Ranks
				var span []batch.Update
				for i := 0; i < 4; i++ {
					up := m.next(5 + i)
					g = batch.Transition(d, up)
					span = append(span, up)
					if i == 1 {
						continue // versions 2 and 3 run as one merged batch
					}
					up = batch.Merge(span...)
					span = nil
					in := Input{GNew: g, Del: up.Del, Ins: up.Ins, Prev: GrowRanks(ranks, g.N())}
					if res = Run(algo, in, cfg); !res.Converged {
						t.Fatalf("run %d: converged=%v err=%v", i, res.Converged, res.Err)
					}
					ranks = res.Ranks
				}

				fresh := m.build()
				fresh.EnsureSelfLoops()
				cold := Run(AlgoStaticLF, Input{GNew: fresh.Snapshot()}, cfg)
				if got := len(ranks); got != m.n {
					t.Fatalf("grown universe N = %d, want %d", got, m.n)
				}
				if d := topk.LInf(ranks, cold.Ranks); d > 1e-12 {
					t.Errorf("grown-then-run deviates from cold run by %g (bound 1e-12)", d)
				}
			})
		}
	}
}
