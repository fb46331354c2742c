package graph

import (
	"fmt"
	"maps"
	"slices"
)

// This file implements the incremental snapshot builder: given the previous
// CSR and the rows dirtied since it was built, the next CSR copies the
// previous one's two block tables and rebuilds only the blocks holding a
// dirty row; every other block is shared, not copied. The paper's
// batch-update model (§3.4) makes this the common case — a batch of
// |Δt| ≪ |E| edges touches at most 2·|Δt| rows, so a snapshot costs a
// handful of block rebuilds plus two O(n/64) table copies, and a retained
// version holds only what its batch changed.

// deltaDirtyRowFraction bounds the fraction of rows that may be dirty before
// Snapshot falls back to a cold build: per-row merging has bookkeeping the
// straight-line cold builder doesn't, so it stops paying once a large share
// of the graph changed.
const deltaDirtyRowFraction = 4

func (d *Dynamic) deltaWorthwhile() bool {
	return len(d.outDirty)+len(d.inTouched) <= d.n/deltaDirtyRowFraction
}

// deltaSnapshot builds the next CSR from d.base plus the recorded dirty
// rows. Each side starts as the base's table grown to d.n and has its dirty
// blocks rebuilt by rebuildBlocks; the out side takes its dirty rows
// straight from the overlay, the in side reconstructs each touched in-row
// by probing the touched sources.
func (d *Dynamic) deltaSnapshot() *CSR {
	base := d.base
	g := &CSR{n: d.n, m: d.m}

	// The two sides read disjoint base tables and write disjoint results, so
	// they are rebuilt concurrently — this halves the wall-clock of a large
	// delta, such as the one a warm restart pays to land the replayed WAL
	// tail.
	var outEdges, inEdges int
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.out, outEdges = rebuildBlocks(base.out.grown(d.n), slices.Sorted(maps.Keys(d.outDirty)),
			func(u uint32, dst []uint32) []uint32 { return append(dst, d.Out(u)...) })
	}()
	g.in, inEdges = rebuildBlocks(base.in.grown(d.n), slices.Sorted(maps.Keys(d.inTouched)), d.newInRow)
	<-done
	if base.m+outEdges != d.m || base.m+inEdges != d.m {
		panic(fmt.Sprintf("graph: delta snapshot holds %d out and %d in edges, want %d (dirty tracking out of sync)",
			base.m+outEdges, base.m+inEdges, d.m))
	}
	return g
}

// rebuildBlocks replaces every block of table s that holds a row of dirty
// (ascending) by a block of its own: dirtyRow(v, dst) appends each dirty
// row, and every other row is copied from the block it replaces. It
// returns s with the change in its edge count.
func rebuildBlocks(s side, dirty []uint32, dirtyRow func(v uint32, dst []uint32) []uint32) (side, int) {
	var buf []uint32
	change := 0
	for len(dirty) > 0 {
		b := dirty[0] >> blockShift
		old, ptr := s[b], new(blockPtr)
		buf = buf[:0]
		for i := uint32(0); i < blockRows; {
			if len(dirty) > 0 && dirty[0] == b<<blockShift+i {
				buf = dirtyRow(dirty[0], buf)
				dirty = dirty[1:]
				i++
				ptr[i] = uint64(len(buf))
				continue
			}
			// Copy the clean run up to the block's next dirty row at once.
			j := uint32(blockRows)
			if len(dirty) > 0 && dirty[0]>>blockShift == b {
				j = dirty[0] & blockMask
			}
			shift := uint64(len(buf)) - old.ptr[i] // modular: old.ptr may start high
			buf = append(buf, old.adj[old.ptr[i]:old.ptr[j]]...)
			for ; i < j; i++ {
				ptr[i+1] = old.ptr[i+1] + shift
			}
		}
		s[b] = rowBlock{ptr, make([]uint32, len(buf))}
		copy(s[b].adj, buf)
		change += s[b].edges() - old.edges()
	}
	return s, change
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
