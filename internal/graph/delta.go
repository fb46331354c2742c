package graph

import (
	"fmt"
	"slices"
)

// This file implements the incremental snapshot builder: given the previous
// CSR and the rows dirtied since it was built, the next CSR is produced by
// rewriting only the touched adjacency rows and block-copying every clean
// run between them. The paper's batch-update model (§3.4) makes this the
// common case — a batch of |Δt| ≪ |E| edges touches at most 2·|Δt| rows, so
// the merge is a handful of row rebuilds plus a near-memcpy of the rest,
// where the cold build pays a scatter over all m edges.

// deltaDirtyRowFraction bounds the fraction of rows that may be dirty before
// Snapshot falls back to a cold build: per-row merging has bookkeeping the
// straight-line cold builder doesn't, so it stops paying once a large share
// of the graph changed.
const deltaDirtyRowFraction = 4

func (d *Dynamic) deltaWorthwhile() bool {
	return len(d.outDirty)+len(d.inTouched) <= d.n/deltaDirtyRowFraction
}

// deltaSnapshot builds the next CSR from d.base plus the recorded dirty
// rows. Both adjacency sides are produced by mergeRows; the out side takes
// its dirty rows straight from the mutable adjacency, the in side
// reconstructs each touched in-row by probing the touched sources.
func (d *Dynamic) deltaSnapshot() *CSR {
	base := d.base
	g := &CSR{n: d.n}

	// The two sides read disjoint base arrays and write disjoint result
	// arrays, so they merge concurrently — the block copies are the bulk of
	// the work and this halves the wall-clock of every delta snapshot,
	// including the one a warm restart pays to land the replayed WAL tail.
	done := make(chan struct{})
	go func() {
		defer close(done)
		dirtyOut := make([]uint32, 0, len(d.outDirty))
		for u := range d.outDirty {
			dirtyOut = append(dirtyOut, u)
		}
		slices.Sort(dirtyOut)
		g.outPtr, g.outAdj = mergeRows(d.n, d.m, base.outPtr, base.outAdj, dirtyOut,
			d.Out)
	}()

	dirtyIn := make([]uint32, 0, len(d.inTouched))
	for v := range d.inTouched {
		dirtyIn = append(dirtyIn, v)
	}
	slices.Sort(dirtyIn)
	var scratch []uint32
	g.inPtr, g.inAdj = mergeRows(d.n, d.m, base.inPtr, base.inAdj, dirtyIn,
		func(v uint32) []uint32 {
			scratch = d.newInRow(v, scratch[:0])
			return scratch
		})
	<-done
	return g
}

// mergeRows assembles one CSR side of m total edges: rows listed in dirty
// (sorted ascending) are replaced by dirtyRow(u), all other rows are copied
// from the base side in maximal contiguous blocks. A base with fewer than n
// rows (the universe grew since it was built) reads as if padded with empty
// rows. dirtyRow may return a slice that is invalidated by the next call;
// contents are copied before the next row is requested.
func mergeRows(n, m int, basePtr []uint64, baseAdj []uint32, dirty []uint32, dirtyRow func(u uint32) []uint32) ([]uint64, []uint32) {
	ptr := make([]uint64, n+1)
	adj := make([]uint32, m)
	cur := uint64(0)
	prev := 0
	emitClean := func(hi int) {
		top := max(prev, min(hi, len(basePtr)-1)) // rows past the base are empty
		if prev < top {
			lo64, hi64 := basePtr[prev], basePtr[top]
			copy(adj[cur:], baseAdj[lo64:hi64])
			if cur == lo64 {
				copy(ptr[prev:top], basePtr[prev:top])
			} else {
				shift := int64(cur) - int64(lo64)
				for v := prev; v < top; v++ {
					ptr[v] = uint64(int64(basePtr[v]) + shift)
				}
			}
			cur += hi64 - lo64
		}
		for v := top; v < hi; v++ {
			ptr[v] = cur
		}
	}
	for _, u := range dirty {
		emitClean(int(u))
		ptr[u] = cur
		row := dirtyRow(u)
		copy(adj[cur:], row)
		cur += uint64(len(row))
		prev = int(u) + 1
	}
	emitClean(n)
	ptr[n] = cur
	if cur != uint64(m) {
		panic(fmt.Sprintf("graph: delta merge produced %d edges, want %d (dirty tracking out of sync)", cur, m))
	}
	return ptr, adj
}

// newInRow reconstructs the in-row of v after the batch: v first iff the
// self-loop exists now (the CSR's order), then the merge of two sorted lists
// that never hold v — the sources in base.In(v) past its leading self-loop,
// each still an in-neighbour unless touched, and the touched sources other
// than v, each an in-neighbour iff the edge (u,v) exists now. The touched
// list is deduplicated in place (it is discarded afterwards).
func (d *Dynamic) newInRow(v uint32, row []uint32) []uint32 {
	touched := sortUnique(d.inTouched[v])
	if i, ok := slices.BinarySearch(touched, v); ok {
		touched = slices.Delete(touched, i, i+1)
	}
	var old []uint32
	if int(v) < d.base.n {
		old = d.base.In(v)
	}
	if len(old) > 0 && old[0] == v {
		old = old[1:]
	}
	if d.HasEdge(v, v) {
		row = append(row, v)
	}
	i, j := 0, 0
	for i < len(old) && j < len(touched) {
		switch u, t := old[i], touched[j]; {
		case u < t:
			row = append(row, u)
			i++
		case u > t:
			if d.HasEdge(t, v) {
				row = append(row, t)
			}
			j++
		default:
			if d.HasEdge(t, v) {
				row = append(row, t)
			}
			i++
			j++
		}
	}
	row = append(row, old[i:]...)
	for ; j < len(touched); j++ {
		if d.HasEdge(touched[j], v) {
			row = append(row, touched[j])
		}
	}
	return row
}
