package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dfpr/internal/graph"
)

// TestBuildersMatchAddEdgeReference checks the counting-sort builders
// against the edge-by-edge construction they replaced: for each seed and
// size, the same rng draws inserted with Dynamic.AddEdge give the same edge
// set.
func TestBuildersMatchAddEdgeReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, scale := range []int{4, 8, 11} {
			n := 1 << scale
			sameGraph(t, fmt.Sprintf("RMAT(%d, 8, %d)", scale, seed), RMAT(scale, 8, seed), refRMAT(scale, 8, seed))
			side := 2 + n/64
			sameGraph(t, fmt.Sprintf("RoadGrid(%d, %d)", side, seed), RoadGrid(side, side, 0.3, seed), refRoadGrid(side, side, 0.3, seed))
			sameGraph(t, fmt.Sprintf("KMerChain(%d, %d)", n, seed), KMerChain(n, 3, seed), refKMerChain(n, 3, seed))
		}
	}
}

// TestRMATStreamPinned pins the edge lists of RMAT at the sizes the
// benchmark and the experiments build (seed 1, edge factor 16), as a
// SHA-256 over Snapshot().Edges(nil) with each edge written as two
// little-endian uint32s. TestBuildersMatchAddEdgeReference stops at scale 11
// and edge factor 8, so a change to how RMAT draws (a threshold rounded at
// run time instead of as a constant, say) could otherwise change every
// benchmark input without any test failing.
func TestRMATStreamPinned(t *testing.T) {
	for _, c := range []struct {
		scale int
		sum   string
	}{
		{16, "01a562871348c2c82a9e8bbb476186ad727ee8ebc6fd651a7c40098440415d25"},
		{14, "e8450fb3c1078185c646ba33cd60ee9ee835200d3fef0884a11a6868641731bf"},
	} {
		h := sha256.New()
		var buf [8]byte
		for _, e := range RMAT(c.scale, 16, 1).Snapshot().Edges(nil) {
			binary.LittleEndian.PutUint32(buf[:4], e.U)
			binary.LittleEndian.PutUint32(buf[4:], e.V)
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sum {
			t.Errorf("RMAT(%d, 16, 1) edge list SHA-256 = %s, pinned %s", c.scale, got, c.sum)
		}
	}
}

// BenchmarkRMAT draws and builds RMAT 2^16×16, the stream-rank benchmark's
// graph.
func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		RMAT(16, 16, 1)
	}
}

func sameGraph(t *testing.T, name string, got, want *graph.Dynamic) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: n=%d m=%d, reference n=%d m=%d", name, got.N(), got.M(), want.N(), want.M())
	}
	for u := uint32(0); int(u) < want.N(); u++ {
		if !slices.Equal(got.Out(u), want.Out(u)) {
			t.Fatalf("%s: row %d = %v, reference %v", name, u, got.Out(u), want.Out(u))
		}
	}
}

func refRMAT(scale, edgeFactor int, seed int64) *graph.Dynamic {
	n := 1 << uint(scale)
	rng := rand.New(rand.NewSource(seed))
	d := graph.NewDynamic(n)
	for range edgeFactor * n {
		u, v := 0, 0
		for bit := n >> 1; bit > 0; bit >>= 1 {
			switch r := rng.Float64(); {
			case r < 0.57:
			case r < 0.57+0.19:
				v |= bit
			case r < 0.57+0.19+0.19:
				u |= bit
			default:
				u, v = u|bit, v|bit
			}
		}
		d.AddEdge(uint32(u), uint32(v))
	}
	return d
}

func refRoadGrid(rows, cols int, shortcut float64, seed int64) *graph.Dynamic {
	n := rows * cols
	rng := rand.New(rand.NewSource(seed))
	d := graph.NewDynamic(n)
	link := func(u, v int) {
		d.AddEdge(uint32(u), uint32(v))
		d.AddEdge(uint32(v), uint32(u))
	}
	for r := range rows {
		for c := range cols {
			if c+1 < cols {
				link(r*cols+c, r*cols+c+1)
			}
			if r+1 < rows {
				link(r*cols+c, (r+1)*cols+c)
			}
		}
	}
	for range int(shortcut * float64(n)) {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			link(u, v)
		}
	}
	return d
}

func refKMerChain(n, branchEvery int, seed int64) *graph.Dynamic {
	rng := rand.New(rand.NewSource(seed))
	d := graph.NewDynamic(n)
	link := func(u, v int) {
		d.AddEdge(uint32(u), uint32(v))
		d.AddEdge(uint32(v), uint32(u))
	}
	for v := 0; v+1 < n; v++ {
		link(v, v+1)
		if v%branchEvery == 0 && v > 0 {
			if w := rng.Intn(n); w != v {
				link(v, w)
			}
		}
	}
	return d
}
