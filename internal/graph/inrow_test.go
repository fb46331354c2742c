package graph

import (
	"math/rand"
	"runtime"
	"testing"
)

// checkInRows asserts the in-row order CSR documents, independently of
// Validate: In(v) starts with v iff (v,v) is an edge, holds v nowhere else,
// and its other sources ascend.
func checkInRows(t *testing.T, g *CSR, ctx string) {
	t.Helper()
	mustValid(t, g)
	for v := uint32(0); int(v) < g.N(); v++ {
		row := g.In(v)
		if loop := g.HasEdge(v, v); loop != (len(row) > 0 && row[0] == v) {
			t.Fatalf("%s: vertex %d: self-loop %v, in-row %v", ctx, v, loop, row)
		}
		if len(row) > 0 && row[0] == v {
			row = row[1:]
		}
		for i, u := range row {
			if u == v || i > 0 && row[i-1] >= u {
				t.Fatalf("%s: in-row of %d out of order: %v", ctx, v, g.In(v))
			}
		}
	}
}

// loopyEdges returns m random edges on n vertices plus a self-loop on every
// third vertex, so rows hold their loop at every position of the sorted
// order: first, middle and last.
func loopyEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, 0, m+n/3+1)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
	}
	for v := 0; v < n; v += 3 {
		edges = append(edges, Edge{uint32(v), uint32(v)})
	}
	return edges
}

// TestInRowsSelfLoopFirst pins the in-row order on every CSR producer: both
// cold-build scatters, the delta merge over seeded interleavings of
// self-loop churn and growth, and the CSR a Dynamic adopts. Every
// snapshot must also match a cold FromEdges rebuild row for row. Validate
// must refuse a self-loop anywhere but first.
func TestInRowsSelfLoopFirst(t *testing.T) {
	t.Run("FromEdges", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		checkInRows(t, FromEdges(300, loopyEdges(rng, 300, 2000)), "sequential")

		// Past parallelBuildThreshold the scatter splits by target range,
		// but only with GOMAXPROCS > 1 (buildWorkers): build the same edges
		// both ways and require the same CSR.
		edges := loopyEdges(rng, 3000, 150000)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		seq := FromEdges(3000, edges)
		runtime.GOMAXPROCS(4)
		par := FromEdges(3000, edges)
		checkInRows(t, seq, "large, sequential")
		checkInRows(t, par, "large, parallel")
		csrEqual(t, par, seq, "parallel against sequential scatter")
	})

	t.Run("Dynamic", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		d := DynamicFromCSR(FromEdges(200, loopyEdges(rng, 200, 1200)))
		full := d.Clone().SnapshotFull()
		checkInRows(t, full, "SnapshotFull")
		csrEqual(t, full, rebuildReference(d), "SnapshotFull")
		d.AddEdge(1, 1)
		d.DelEdge(3, 3)
		g := d.Snapshot()
		checkInRows(t, g, "delta over an adopted CSR")
		csrEqual(t, g, rebuildReference(d), "delta over an adopted CSR")
	})

	t.Run("DeltaInterleavings", func(t *testing.T) {
		merged := 0
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := NewDynamic(48)
			d.Snapshot()
			for step := 0; step < 400; step++ {
				n := d.N()
				v := uint32(rng.Intn(n))
				switch op := rng.Intn(10); {
				case op <= 1:
					d.AddEdge(v, v)
				case op <= 3:
					d.DelEdge(v, v)
				case op <= 5:
					d.AddEdge(v, uint32(rng.Intn(n)))
				case op == 6:
					d.DelEdge(uint32(rng.Intn(n)), v)
				case op == 7:
					d.Grow(n + rng.Intn(3))
				case op == 8:
					d.EnsureSelfLoops()
				default:
					if len(d.inTouched) > 0 && d.deltaWorthwhile() {
						merged++
					}
					g := d.Snapshot()
					checkInRows(t, g, "delta snapshot")
					csrEqual(t, g, rebuildReference(d), "delta snapshot")
				}
			}
		}
		if merged < 100 {
			t.Fatalf("only %d snapshots took the delta merge", merged)
		}
	})

	t.Run("Validate", func(t *testing.T) {
		// In(1) = [1 0 2 3]: vertex 1's loop leads its in-row.
		fresh := func() *CSR { return FromEdges(4, []Edge{{0, 1}, {1, 1}, {2, 1}, {3, 1}}) }
		g := fresh()
		checkInRows(t, g, "fixture")
		for name, row := range map[string][]uint32{
			"self-loop mid-row (ascending)": {0, 1, 2, 3},
			"self-loop last":                {0, 2, 3, 1},
			"self-loop twice":               {1, 1, 2, 3},
			"self-loop first and again":     {1, 0, 1, 3},
		} {
			g := fresh()
			copy(g.In(1), row)
			if g.Validate() == nil {
				t.Errorf("%s: Validate accepted in-row %v of vertex 1", name, row)
			}
		}
	})
}
