package dfpr

import "sort"

// Query-side kernels behind the View API: the two Delta strategies. The
// public entry points live in view.go; this file holds the frontier walk
// and the full-scan fallback.

// deltaFrontier computes the movement set between lo and hi (lo.seq <
// hi.seq, same engine) by replaying the dirty-row frontier of the batch
// chain: seed with every endpoint of every batch edge in (lo.seq, hi.seq],
// then expand along hi's out-edges wherever the two vectors actually
// differ. The chain is read off the views themselves: hi's own when it was
// published right after lo, otherwise hi's plus that of every view published
// in between, found in the engine's view ring. ok is false when one of those
// has left the ring or carries no chain (a rebuild published it), in which
// case the caller must fall back to a full scan.
func deltaFrontier(lo, hi *View, eps float64) ([]Movement, bool) {
	var seeds []uint32
	for v := hi; ; {
		if v.chain == nil {
			return nil, false
		}
		for _, l := range v.chain {
			for _, e := range l.Update.Del {
				seeds = append(seeds, e.U, e.V)
			}
			for _, e := range l.Update.Ins {
				seeds = append(seeds, e.U, e.V)
			}
		}
		if v.chainFrom <= lo.seq {
			break // on lo.seq exactly: each chain starts at a published view, and lo is one
		}
		var err error
		if v, err = hi.eng.ViewAt(v.chainFrom); err != nil {
			return nil, false
		}
	}
	g := hi.ver.G
	seen := make(map[uint32]struct{}, 2*len(seeds))
	queue := make([]uint32, 0, len(seeds))
	push := func(u uint32) {
		if _, dup := seen[u]; !dup {
			seen[u] = struct{}{}
			queue = append(queue, u)
		}
	}
	for _, u := range seeds {
		push(u)
	}
	var moved []Movement
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		d := hi.ranks[u] - lo.ranks[u]
		if d == 0 {
			continue
		}
		if d > eps || -d > eps {
			moved = append(moved, Movement{V: u, From: lo.ranks[u], To: hi.ranks[u]})
		}
		// A moved rank changes u's contribution to every out-neighbour.
		for _, w := range g.Out(u) {
			push(w)
		}
	}
	sortMovements(moved)
	return moved, true
}

// deltaScan is the O(|V|) fallback: compare every slot.
func deltaScan(lo, hi *View, eps float64) []Movement {
	var moved []Movement
	for u := range lo.ranks {
		d := hi.ranks[u] - lo.ranks[u]
		if d > eps || -d > eps {
			moved = append(moved, Movement{V: uint32(u), From: lo.ranks[u], To: hi.ranks[u]})
		}
	}
	return moved // already in vertex order
}

// deltaScanGrown is deltaScan across views of different vertex counts: the
// shorter vector is treated as padded with zeros (a vertex that did not
// exist had no rank), so growth shows up as From 0 movements. Caller
// reports From as the caller's old view, which may be either side.
func deltaScanGrown(lo, hi *View, eps float64) []Movement {
	n := max(len(lo.ranks), len(hi.ranks))
	at := func(r []float64, u int) float64 {
		if u < len(r) {
			return r[u]
		}
		return 0
	}
	var moved []Movement
	for u := 0; u < n; u++ {
		from, to := at(lo.ranks, u), at(hi.ranks, u)
		d := to - from
		if d > eps || -d > eps {
			moved = append(moved, Movement{V: uint32(u), From: from, To: to})
		}
	}
	return moved // already in vertex order
}

// sortMovements orders by vertex id (the frontier walk emits movements in
// traversal order, not vertex order).
func sortMovements(m []Movement) {
	sort.Slice(m, func(a, b int) bool { return m[a].V < m[b].V })
}
