package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// csrEqual compares two CSRs row by row, both sides.
func csrEqual(t *testing.T, got, want *CSR, ctx string) {
	t.Helper()
	if got.n != want.n || got.m != want.m {
		t.Fatalf("%s: n=%d m=%d want n=%d m=%d", ctx, got.n, got.m, want.n, want.m)
	}
	for v := uint32(0); int(v) < got.n; v++ {
		if !slices.Equal(got.Out(v), want.Out(v)) {
			t.Fatalf("%s: Out(%d) = %v, want %v", ctx, v, got.Out(v), want.Out(v))
		}
		if !slices.Equal(got.In(v), want.In(v)) {
			t.Fatalf("%s: In(%d) = %v, want %v", ctx, v, got.In(v), want.In(v))
		}
	}
}

// rebuildReference reconstructs the snapshot from first principles: an edge
// list fed through FromEdges.
func rebuildReference(d *Dynamic) *CSR {
	var edges []Edge
	for u := uint32(0); int(u) < d.N(); u++ {
		for _, v := range d.Out(u) {
			edges = append(edges, Edge{u, v})
		}
	}
	return FromEdges(d.N(), edges)
}

// TestDeltaSnapshotEquivalence drives random batch sequences through a
// Dynamic and asserts after every batch that the (delta-merged) Snapshot is
// structurally valid and identical to a full FromEdges rebuild.
func TestDeltaSnapshotEquivalence(t *testing.T) {
	n := 400
	batches := 30
	if testing.Short() {
		n = 120
		batches = 10
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewDynamic(n)
		for i := 0; i < 4*n; i++ {
			d.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		d.EnsureSelfLoops()
		g := d.Snapshot() // cold build establishes the base
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: cold snapshot invalid: %v", seed, err)
		}
		csrEqual(t, g, rebuildReference(d), "cold")

		for b := 0; b < batches; b++ {
			// Mixed batch: deletions of existing edges (self-loops included,
			// the merge must cope), insertions, and insert-then-delete churn
			// on the same endpoints within one batch.
			size := 1 + rng.Intn(2*n/10)
			for i := 0; i < size; i++ {
				u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
				switch rng.Intn(4) {
				case 0:
					d.DelEdge(u, v)
				case 1:
					d.AddEdge(u, v)
					d.DelEdge(u, v)
				default:
					d.AddEdge(u, v)
				}
			}
			d.EnsureSelfLoops()
			g = d.Snapshot()
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d batch %d: snapshot invalid: %v", seed, b, err)
			}
			csrEqual(t, g, rebuildReference(d), "batch")
		}
	}
}

// TestSnapshotReuseWhenClean asserts the zero-change fast path: two
// snapshots with no mutation in between are the same object.
func TestSnapshotReuseWhenClean(t *testing.T) {
	d := NewDynamic(50)
	for v := uint32(0); v < 50; v++ {
		d.AddEdge(v, (v+1)%50)
	}
	d.EnsureSelfLoops()
	g1 := d.Snapshot()
	d.EnsureSelfLoops() // idempotent: must not dirty anything
	g2 := d.Snapshot()
	if g1 != g2 {
		t.Fatal("clean re-snapshot did not reuse the base CSR")
	}
	d.AddEdge(3, 17)
	if g3 := d.Snapshot(); g3 == g2 {
		t.Fatal("snapshot after mutation reused the stale base CSR")
	}
}

// TestSnapshotFullMatchesDelta cross-checks the two builders on the same
// mutated graph.
func TestSnapshotFullMatchesDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 300
	d := NewDynamic(n)
	for i := 0; i < 5*n; i++ {
		d.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	d.EnsureSelfLoops()
	d.Snapshot()
	for i := 0; i < 40; i++ {
		d.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		d.DelEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	delta := d.Clone() // clone is cold; d still has its base + dirty sets
	got := d.Snapshot()
	want := delta.SnapshotFull()
	if err := got.Validate(); err != nil {
		t.Fatalf("delta snapshot invalid: %v", err)
	}
	csrEqual(t, got, want, "delta vs full")
}

// TestDynamicFromCSRDeltaBase asserts that a Dynamic seeded from a CSR
// treats it as the delta base.
func TestDynamicFromCSRDeltaBase(t *testing.T) {
	d := NewDynamic(40)
	for v := uint32(0); v < 40; v++ {
		d.AddEdge(v, (v+3)%40)
		d.AddEdge(v, v)
	}
	g := d.Snapshot()
	d2 := DynamicFromCSR(g)
	if d2.Snapshot() != g {
		t.Fatal("DynamicFromCSR should adopt the CSR as its base snapshot")
	}
	d2.AddEdge(0, 5)
	g2 := d2.Snapshot()
	if err := g2.Validate(); err != nil {
		t.Fatalf("delta snapshot from adopted base invalid: %v", err)
	}
	csrEqual(t, g2, rebuildReference(d2), "adopted base")
}

// TestParallelColdBuild pushes the edge count past the parallel-build
// threshold and cross-checks the two cold builders (counting-sort FromEdges
// vs adjacency-walk SnapshotFull) against each other.
func TestParallelColdBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel cold build is exercised at full size only in long mode")
	}
	rng := rand.New(rand.NewSource(99))
	n := 2000
	edges := make([]Edge, 0, 150000)
	d := NewDynamic(n)
	for len(edges) < 150000 {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		edges = append(edges, Edge{u, v})
		d.AddEdge(u, v)
	}
	// Duplicates on purpose: FromEdges must collapse them.
	edges = append(edges, edges[:1000]...)
	got := FromEdges(n, edges)
	if err := got.Validate(); err != nil {
		t.Fatalf("parallel FromEdges invalid: %v", err)
	}
	want := d.SnapshotFull()
	if err := want.Validate(); err != nil {
		t.Fatalf("parallel SnapshotFull invalid: %v", err)
	}
	csrEqual(t, got, want, "parallel cold builders")
}
