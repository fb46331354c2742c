package core

import (
	"math/rand"
	"testing"

	"dfpr/internal/avec"
	"dfpr/internal/graph"
)

func lineGraph(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: uint32(v), V: uint32(v + 1)})
	}
	return graph.FromEdges(n, edges)
}

func visitor(n int) (func(uint32) bool, *avec.Flags) {
	f := avec.NewFlags(n)
	return func(v uint32) bool { return f.Set(int(v)) }, f
}

func TestMarkReachableLine(t *testing.T) {
	g := lineGraph(10)
	visit, flags := visitor(10)
	markReachable(g, 3, visit, nil)
	for v := 0; v < 10; v++ {
		want := v >= 3
		if flags.Get(v) != want {
			t.Errorf("vertex %d marked=%v want %v", v, flags.Get(v), want)
		}
	}
}

func TestMarkReachableRespectsExistingMarks(t *testing.T) {
	g := lineGraph(10)
	visit, flags := visitor(10)
	flags.Set(5) // pretend another worker marked 5 already: traversal prunes there
	markReachable(g, 0, visit, nil)
	if flags.Get(6) {
		t.Error("traversal descended through an already-marked vertex")
	}
	for v := 0; v <= 5; v++ {
		if !flags.Get(v) {
			t.Errorf("vertex %d unmarked", v)
		}
	}
}

func TestMarkReachableMatchesNaiveReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 30
	edges := make([]graph.Edge, 70)
	for i := range edges {
		edges[i] = graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
	}
	g := graph.FromEdges(n, edges)
	// Naive transitive closure from vertex 0.
	want := make([]bool, n)
	want[0] = true
	for changed := true; changed; {
		changed = false
		for u := uint32(0); int(u) < n; u++ {
			if !want[u] {
				continue
			}
			for _, v := range g.Out(u) {
				if !want[v] {
					want[v] = true
					changed = true
				}
			}
		}
	}
	visit, flags := visitor(n)
	markReachable(g, 0, visit, nil)
	for v := 0; v < n; v++ {
		if flags.Get(v) != want[v] {
			t.Errorf("vertex %d: marked=%v closure=%v", v, flags.Get(v), want[v])
		}
	}
}

func TestStackReuse(t *testing.T) {
	g := lineGraph(100)
	visit, _ := visitor(100)
	stack := make([]uint32, 0, 128)
	out := markReachable(g, 0, visit, stack)
	if cap(out) < 128 {
		t.Error("returned stack smaller than provided buffer")
	}
}

func TestSelfLoopTerminates(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 0}})
	visit, flags := visitor(2)
	markReachable(g, 0, visit, nil) // must not loop forever on the cycle
	if !flags.Get(0) || !flags.Get(1) {
		t.Error("cycle vertices not marked")
	}
}
