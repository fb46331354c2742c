package graph

import (
	"runtime"
	"slices"
	"sync"
)

// parallelBuildThreshold is the edge count below which the cold builders stay
// sequential: goroutine fan-out and the extra scan passes cost more than they
// save on small graphs (and every unit-test graph is small).
const parallelBuildThreshold = 1 << 17

// maxBuildWorkers caps the cold-build parallelism. The in-adjacency scatter
// is parallelised by target bucket, where every worker re-scans the full
// out-adjacency, so total work grows linearly with the worker count; past a
// handful of workers the extra scan passes eat the wall-clock win.
const maxBuildWorkers = 8

func buildWorkers(m int) int {
	if m < parallelBuildThreshold {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > maxBuildWorkers {
		w = maxBuildWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// uniformCuts splits [0, n) into parts contiguous ranges of equal vertex
// count, as cut points for parallelRanges.
func uniformCuts(n, parts int) []int {
	cuts := make([]int, parts+1)
	for w := range cuts {
		cuts[w] = w * n / parts
	}
	return cuts
}

// parallelRanges runs fn(w, cuts[w], cuts[w+1]) for every range the cut
// points delimit, one goroutine per range when there are several. It is the
// package's one fan-out over vertex ranges.
func parallelRanges(cuts []int, fn func(w, lo, hi int)) {
	if len(cuts) <= 2 {
		fn(0, cuts[0], cuts[len(cuts)-1])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(cuts) - 1)
	for w := 0; w+1 < len(cuts); w++ {
		go func() {
			defer wg.Done()
			fn(w, cuts[w], cuts[w+1])
		}()
	}
	wg.Wait()
}

// buildCSR materialises a CSR from per-vertex out-rows that are already
// sorted and deduplicated. row(u) may alias caller storage — its contents are
// copied. This is the cold-build path shared by FromEdges and
// Dynamic.SnapshotFull: a counting pass for the offsets, a block-copy pass
// for the out-adjacency, and a scatter pass for the in-adjacency, each
// parallelised over contiguous ranges once the graph is large enough. The
// scatter writes each in-row in the CSR's order (see CSR): seedInRow puts
// the self-loop in the row's first slot and the scatter skips it.
func buildCSR(n int, row func(u int) []uint32) *CSR {
	g := &CSR{n: n}
	g.outPtr = make([]uint64, n+1)
	for u := 0; u < n; u++ {
		g.outPtr[u+1] = g.outPtr[u] + uint64(len(row(u)))
	}
	m := int(g.outPtr[n])
	g.outAdj = make([]uint32, m)
	workers := buildWorkers(m)

	parallelRanges(uniformCuts(n, workers), func(_, lo, hi int) {
		cur := g.outPtr[lo]
		for u := lo; u < hi; u++ {
			cur += uint64(copy(g.outAdj[cur:], row(u)))
		}
	})

	inDeg := make([]uint32, n)
	for _, v := range g.outAdj {
		inDeg[v]++
	}
	g.inPtr = make([]uint64, n+1)
	for v := 0; v < n; v++ {
		g.inPtr[v+1] = g.inPtr[v] + uint64(inDeg[v])
	}
	g.inAdj = make([]uint32, m)

	// Scatter: each target range holds roughly 1/workers of the in-edges
	// and is filled by scanning the whole out-adjacency in source order,
	// writing only the edges that land in it. Writes are disjoint across
	// ranges and each row is filled in increasing source order after its
	// seeded self-loop, so rows come out in the CSR's order without a sort
	// pass.
	parallelRanges(prefixCuts(g.inPtr, workers), func(_, tlo, thi int) {
		cur := make([]uint64, thi-tlo)
		for v := tlo; v < thi; v++ {
			cur[v-tlo] = g.seedInRow(uint32(v))
		}
		for u := uint32(0); int(u) < n; u++ {
			for _, v := range g.Out(u) {
				if int(v) >= tlo && int(v) < thi && v != u {
					g.inAdj[cur[int(v)-tlo]] = u
					cur[int(v)-tlo]++
				}
			}
		}
	})
	return g
}

// seedInRow writes v's self-loop, if it has one, into the first slot of its
// in-row and returns the slot where the row's other sources start.
func (g *CSR) seedInRow(v uint32) uint64 {
	at := g.inPtr[v]
	if g.HasEdge(v, v) {
		g.inAdj[at] = v
		at++
	}
	return at
}

// prefixCuts splits the vertex range of a prefix-sum offset array into parts
// contiguous ranges of roughly equal edge mass. Returned bounds have length
// parts+1 with bounds[0]=0 and bounds[parts]=n.
func prefixCuts(ptr []uint64, parts int) []int {
	n := len(ptr) - 1
	total := ptr[n]
	bounds := make([]int, parts+1)
	v := 0
	for w := 1; w < parts; w++ {
		target := total * uint64(w) / uint64(parts)
		for v < n && ptr[v] < target {
			v++
		}
		bounds[w] = v
	}
	bounds[parts] = n
	return bounds
}

// FromEdges builds a CSR snapshot with n vertices from the given edge list.
// Duplicate edges are collapsed; edges with endpoints ≥ n cause a panic, as
// that is always a programming error in this codebase.
//
// Construction is a counting sort by source (no comparison sort across the
// edge list): a degree-count pass, a scatter into row storage, then an
// independent sort+dedup of each row, parallelised for large inputs.
func FromEdges(n int, edges []Edge) *CSR {
	off := make([]uint64, n+1)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			panic(fmtEdgeRange(e, n))
		}
		off[e.U+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	buf := make([]uint32, len(edges))
	cursor := make([]uint64, n)
	copy(cursor, off[:n])
	for _, e := range edges {
		buf[cursor[e.U]] = e.V
		cursor[e.U]++
	}
	rowLen := make([]uint32, n)
	parallelRanges(uniformCuts(n, buildWorkers(len(edges))), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			rowLen[u] = uint32(len(sortUnique(buf[off[u]:off[u+1]])))
		}
	})
	return buildCSR(n, func(u int) []uint32 {
		return buf[off[u] : off[u]+uint64(rowLen[u])]
	})
}

func sortUnique(a []uint32) []uint32 {
	if len(a) < 2 {
		return a
	}
	slices.Sort(a)
	out := a[:1]
	for _, x := range a[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
