package graph

import (
	"math/rand"
	"testing"
)

// rmatEdges draws edgeFactor·2^scale edges of an R-MAT graph with the
// partition probabilities gen.RMAT uses (0.57, 0.19, 0.19), which this
// package's tests cannot import.
func rmatEdges(scale, edgeFactor int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	edges := make([]Edge, edgeFactor*n)
	for i := range edges {
		var u, v uint32
		for bit := uint32(n >> 1); bit > 0; bit >>= 1 {
			switch r := rng.Float64(); {
			case r < 0.57:
			case r < 0.76:
				v |= bit
			case r < 0.95:
				u |= bit
			default:
				u, v = u|bit, v|bit
			}
		}
		edges[i] = Edge{u, v}
	}
	return edges
}

// TestDeltaSnapshotSharesCleanBlocks: after a 10-edit batch (2 deletions, 8
// uniform insertions) on RMAT 2^12×16 with loops, the delta snapshot shares
// with its base every block that holds no touched row and rebuilds every
// block that holds one, on both sides. The base still holds the graph it
// was built with and passes Validate.
func TestDeltaSnapshotSharesCleanBlocks(t *testing.T) {
	d := DynamicFromCSR(FromEdges(1<<12, rmatEdges(12, 16, 7)))
	d.EnsureSelfLoops()
	base := d.Snapshot()
	before := FromEdges(base.N(), base.Edges(nil))
	edges := base.Edges(nil)
	n := base.N()

	rng := rand.New(rand.NewSource(7))
	outTouched, inTouched := map[int]bool{}, map[int]bool{}
	for edits := 0; edits < 10; {
		var e Edge
		var changed bool
		if edits < 2 {
			if e = edges[rng.Intn(len(edges))]; e.U != e.V {
				changed = d.DelEdge(e.U, e.V)
			}
		} else {
			e = Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
			changed = d.AddEdge(e.U, e.V)
		}
		if changed {
			edits++
			outTouched[int(e.U)/blockRows] = true
			inTouched[int(e.V)/blockRows] = true
		}
	}
	if !d.deltaWorthwhile() {
		t.Fatal("the snapshot would not take the delta path")
	}
	next := d.Snapshot()

	for _, s := range []struct {
		name       string
		base, next side
		touched    map[int]bool
	}{{"out", base.out, next.out, outTouched}, {"in", base.in, next.in, inTouched}} {
		if len(s.base) != len(s.next) {
			t.Fatalf("%s: %d blocks, base has %d", s.name, len(s.next), len(s.base))
		}
		for b := range s.base {
			if shared := s.next[b].ptr == s.base[b].ptr; shared == s.touched[b] {
				t.Errorf("%s block %d: shared=%v, touched=%v", s.name, b, shared, s.touched[b])
			}
		}
	}
	mustValid(t, base)
	csrEqual(t, base, before, "base after the batch")
	checkInRows(t, next, "delta snapshot")
	csrEqual(t, next, rebuildReference(d), "delta snapshot")
}

// TestDeltaSnapshotGrowsAcrossBlockEdges grows a 1000-vertex graph (its
// last block partial) by 1, 63, 64 and 65 vertices in turn, with edges into
// and out of the new vertices, and checks every delta snapshot against a
// cold rebuild. A growth
// with no edge at all takes the delta path with nothing dirty.
func TestDeltaSnapshotGrowsAcrossBlockEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 1000
	d := DynamicFromCSR(FromEdges(n, loopyEdges(rng, n, 4*n)))
	d.EnsureSelfLoops()
	for _, grow := range []int{1, 63, 64, 65, 0} {
		d.Snapshot()
		if grow == 0 {
			d.Grow(n + 2)
			n += 2
		} else {
			n += grow
			d.Grow(n)
			for i := 0; i < 8; i++ {
				u, v := uint32(rng.Intn(n)), uint32(n-1-rng.Intn(grow))
				d.AddEdge(u, v)
				d.AddEdge(v, u)
			}
			d.EnsureSelfLoops()
		}
		if !d.deltaWorthwhile() {
			t.Fatalf("grow %d: the snapshot would not take the delta path", grow)
		}
		g := d.Snapshot()
		checkInRows(t, g, "grown delta snapshot")
		csrEqual(t, g, rebuildReference(d), "grown delta snapshot")
	}
}
