package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestFromEdgesLargeMatchesReference builds lists past
// parallelBuildThreshold with two threads, so every split the build makes
// is taken, and checks every out-row against a sort+dedup of that row's
// targets, then Validate, then that the in side is exactly the transpose of
// the out side. The inputs: a shuffled list with duplicates, self-loops,
// empty rows and one hub row holding more than a tenth of the edges; and
// lists whose edges crowd into the last block with n not a multiple of
// blockRows, so a split by edge mass leaves a worker an empty range at the
// end.
func TestFromEdgesLargeMatchesReference(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(3))
	var hubbed []Edge
	for len(hubbed) < 2*parallelBuildThreshold {
		u := uint32(rng.Intn(n))
		if u%7 == 0 {
			continue // every seventh row stays empty
		}
		v := uint32(rng.Intn(n))
		switch rng.Intn(10) {
		case 0:
			v = u // self-loop
		case 1, 2:
			u = 3 // the hub, 20 % of the edges before duplicates
		}
		hubbed = append(hubbed, Edge{u, v})
		if rng.Intn(8) == 0 {
			hubbed = append(hubbed, Edge{u, v}) // a duplicate, shuffled away below
		}
	}
	rng.Shuffle(len(hubbed), func(i, j int) { hubbed[i], hubbed[j] = hubbed[j], hubbed[i] })
	if want, m := sortedRows(n, hubbed); 10*len(want[3]) < m {
		t.Fatalf("hub row holds %d of %d edges, want ≥ 10 %%", len(want[3]), m)
	}
	var tail []Edge // rows and targets 960–999, bar a few
	for len(tail) < parallelBuildThreshold {
		u, v := uint32(960+rng.Intn(40)), uint32(960+rng.Intn(40))
		if rng.Intn(50) == 0 {
			u = uint32(rng.Intn(1000))
		}
		if rng.Intn(20) == 0 {
			v = u
		}
		tail = append(tail, Edge{u, v})
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		n     int
		edges []Edge
	}{
		{n, hubbed},
		{1000, tail},
		{10, slices.Repeat([]Edge{{0, 1}}, parallelBuildThreshold)},
		{10, slices.Repeat([]Edge{{9, 8}}, parallelBuildThreshold)},
	} {
		want, m := sortedRows(c.n, c.edges)
		g := FromEdges(c.n, slices.Clone(c.edges))
		if g.N() != c.n || g.M() != m {
			t.Fatalf("n=%d m=%d, want n=%d m=%d", g.N(), g.M(), c.n, m)
		}
		for u := range uint32(c.n) {
			if got := g.Out(u); !slices.Equal(got, want[u]) && (len(got) > 0 || len(want[u]) > 0) {
				t.Fatalf("n=%d: row %d = %v, want %v", c.n, u, got, want[u])
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		// The transpose, in the CSR's in-row order: the self-loop first,
		// then the other sources ascending.
		in := make([][]uint32, c.n)
		for v := range uint32(c.n) {
			if g.HasEdge(v, v) {
				in[v] = append(in[v], v)
			}
		}
		for u := range uint32(c.n) {
			for _, v := range g.Out(u) {
				if v != u {
					in[v] = append(in[v], u)
				}
			}
		}
		for v := range uint32(c.n) {
			if got := g.In(v); !slices.Equal(got, in[v]) && (len(got) > 0 || len(in[v]) > 0) {
				t.Fatalf("n=%d: in-row %d = %v, want %v", c.n, v, got, in[v])
			}
		}
	}
}

// sortedRows is the reference build: each source's targets sorted and
// deduplicated, and the edge count that leaves.
func sortedRows(n int, edges []Edge) ([][]uint32, int) {
	rows := make([][]uint32, n)
	for _, e := range edges {
		rows[e.U] = append(rows[e.U], e.V)
	}
	m := 0
	for u := range rows {
		slices.Sort(rows[u])
		rows[u] = slices.Compact(rows[u])
		m += len(rows[u])
	}
	return rows, m
}

// BenchmarkFromEdges builds the CSR of a shuffled RMAT 2^16×16 edge list
// (duplicates included): the bulk build behind every generator, reader and
// dfpr.New.
func BenchmarkFromEdges(b *testing.B) {
	edges := rmatEdges(16, 16, 1)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	b.ReportAllocs()
	for b.Loop() {
		FromEdges(1<<16, edges)
	}
}

// BenchmarkFromEdgesSorted builds the same graph from its distinct edges in
// CSR order, the shape of a list read back from a snapshot (the
// benchmark's probe, exutil.LoadGraphSource, a sorted text file). The
// counting passes scatter whatever the order, so this input is slower than
// the per-row sort they replaced, which was nearly free on sorted rows.
func BenchmarkFromEdgesSorted(b *testing.B) {
	edges := FromEdges(1<<16, rmatEdges(16, 16, 1)).Edges(nil)
	b.ReportAllocs()
	for b.Loop() {
		FromEdges(1<<16, edges)
	}
}
