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
// copied. This is Dynamic.SnapshotFull's cold build: the out blocks are
// packed from the rows, parallelised over contiguous block ranges once the
// graph is large enough, then fillIn builds the in side. Every block owns
// its arrays, so a later snapshot that shares a few of them keeps nothing
// else alive.
func buildCSR(n int, row func(u int) []uint32) *CSR {
	nb := numBlocks(n)
	g := &CSR{n: n, out: make(side, nb), in: make(side, nb)}
	for u := 0; u < n; u++ {
		g.m += len(row(u))
	}
	parallelRanges(uniformCuts(nb, buildWorkers(g.m)), func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := blockSpan(b, n)
			ptr := new(blockPtr)
			for i := range blockRows {
				ptr[i+1] = ptr[i]
				if lo+i < hi {
					ptr[i+1] += uint64(len(row(lo + i)))
				}
			}
			adj := make([]uint32, ptr[blockRows])
			for v := lo; v < hi; v++ {
				copy(adj[ptr[v-lo]:], row(v))
			}
			g.out[b] = rowBlock{ptr, adj}
		}
	})
	g.fillIn()
	return g
}

// fillIn builds the in side of a CSR whose out blocks are complete: an
// in-degree count sizes the in blocks and a scatter pass fills them,
// parallelised over block ranges of equal in-edge mass once the graph is
// large enough. The scatter writes each in-row in the CSR's order (see
// CSR): the self-loop goes in the row's first slot and the scatter skips it.
func (g *CSR) fillIn() {
	n, nb := g.n, len(g.out)
	workers := buildWorkers(g.m)
	// cur[v] counts v's in-degree, then becomes the slot of its next source
	// in its block.
	cur := make([]uint32, n)
	mass := make([]uint64, nb+1) // in-edges before each block
	for b := range g.out {
		for _, v := range g.out[b].adj {
			cur[v]++
		}
	}
	in := g.in
	for b := range in {
		lo, hi := blockSpan(b, n)
		ptr := new(blockPtr)
		for i := range blockRows {
			ptr[i+1] = ptr[i]
			if v := lo + i; v < hi {
				ptr[i+1] += uint64(cur[v])
				cur[v] = uint32(ptr[i])
			}
		}
		in[b] = rowBlock{ptr, make([]uint32, ptr[blockRows])}
		mass[b+1] = mass[b] + ptr[blockRows]
	}

	// Scatter: each block range holds roughly 1/workers of the in-edges and
	// is filled by scanning the whole out-adjacency in source order, writing
	// only the edges that land in it. Writes are disjoint across ranges and
	// each row is filled in increasing source order after its self-loop, so
	// rows come out in the CSR's order without a sort pass.
	parallelRanges(prefixCuts(mass, workers), func(_, blo, bhi int) {
		tlo, thi := uint32(blo<<blockShift), uint32(min(bhi<<blockShift, n))
		for v := tlo; v < thi; v++ {
			if g.HasEdge(v, v) {
				in[v>>blockShift].adj[cur[v]] = v
				cur[v]++
			}
		}
		for b, blk := range g.out {
			for i := range blockRows {
				u := uint32(b<<blockShift + i)
				for _, v := range blk.adj[blk.ptr[i]:blk.ptr[i+1]] {
					if v >= tlo && v < thi && v != u {
						in[v>>blockShift].adj[cur[v]] = u
						cur[v]++
					}
				}
			}
		}
	})
}

// prefixCuts splits the index range of a prefix-sum array (edges before each
// block) into parts contiguous ranges of roughly equal edge mass. Returned
// bounds have length parts+1 with bounds[0]=0 and bounds[parts]=n.
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
// Construction is a two-pass counting sort (an LSD radix sort on the
// (source, target) key; no comparison sort anywhere). The first pass
// buckets the sources by target. The second reads the buckets in target
// order and scatters the targets by source, straight into out blocks sized
// for their rows with duplicates, so every row comes out sorted and one
// linear pass per block drops the duplicates. fillIn then builds the in
// side. Only the first pass reads the edge list and only the second the
// bucket buffer, so neither is live while the blocks are finished.
func FromEdges(n int, edges []Edge) *CSR {
	deg, ends, src := bucketSources(n, &edges)
	// bucketSources takes the list through a pointer so that no copy of it
	// is left in this frame, and this drops the last reference. Otherwise a
	// collection that interrupts a loop below scans this frame
	// conservatively and keeps the whole list alive through the build.
	edges = nil
	g := &CSR{n: n, out: make(side, numBlocks(n)), in: make(side, numBlocks(n))}
	// Each block's ptr[i+1] holds row i's first slot and serves as its
	// cursor, so the scatter leaves it at the row's end.
	for b := range g.out {
		lo, hi := blockSpan(b, n)
		ptr := new(blockPtr)
		size := uint64(0)
		for i := range blockRows {
			ptr[i+1] = size
			if lo+i < hi {
				size += deg[lo+i]
			}
		}
		g.out[b] = rowBlock{ptr, make([]uint32, size)}
	}
	start := uint64(0)
	for v, end := range ends {
		for _, u := range src[start:end] {
			blk := &g.out[u>>blockShift]
			cur := &blk.ptr[u&blockMask+1]
			blk.adj[*cur] = uint32(v)
			*cur++
		}
		start = end
	}
	for b := range g.out {
		g.out[b].adj = dropRepeats(g.out[b])
		g.m += len(g.out[b].adj)
	}
	g.fillIn()
	return g
}

// bucketSources is FromEdges' counting pass and first scatter. It returns
// each source's out-degree, the end of each target's bucket (target v's
// bucket is src[ends[v-1]:ends[v]], from 0 for v = 0) and src, the edges'
// sources grouped by target in list order; duplicates count throughout.
// The bucket starts serve as the scatter's cursors, which leaves them at
// the bucket ends.
func bucketSources(n int, list *[]Edge) (deg, ends []uint64, src []uint32) {
	edges := *list
	deg, ends = make([]uint64, n), make([]uint64, n)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			panic(fmtEdgeRange(e, n))
		}
		deg[e.U]++
		ends[e.V]++
	}
	next := uint64(0)
	for v, c := range ends {
		ends[v], next = next, next+c
	}
	src = make([]uint32, len(edges))
	for _, e := range edges {
		src[ends[e.V]] = e.U
		ends[e.V]++
	}
	return deg, ends, src
}

// dropRepeats packs a block's sorted rows left without their repeated
// entries, rewriting its ptr to match, and returns the block's adjacency
// cut to the packed length.
func dropRepeats(blk rowBlock) []uint32 {
	ptr, adj := blk.ptr, blk.adj
	w, lo := uint64(0), uint64(0)
	for i := range blockRows {
		hi := ptr[i+1]
		for _, v := range adj[lo:hi] {
			if w == ptr[i] || v != adj[w-1] {
				adj[w] = v
				w++
			}
		}
		ptr[i+1] = w
		lo = hi
	}
	return adj[:w]
}

func sortUnique(a []uint32) []uint32 {
	slices.Sort(a)
	return slices.Compact(a)
}
