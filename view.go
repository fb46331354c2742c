package dfpr

import (
	"iter"
	"sync"

	"dfpr/internal/keymap"
	"dfpr/internal/snapshot"
	"dfpr/internal/topk"
)

// View is an immutable, zero-copy read handle over one published rank
// version: the rank vector, the graph snapshot it was converged on, and a
// lazily built top-k ordering, all pinned to the version the View was taken
// at. Views are what the read path serves from — a million concurrent
// readers of the same version share one vector and one top-k cache instead
// of copying O(|V|) state per request.
//
// A View never changes after it is published: ScoreOf, TopK, Neighbors
// and Scores always answer for the same version, no matter how many
// batches the engine applies meanwhile. Take a fresh Engine.View() to
// observe newer ranks. Views are safe for concurrent use and need no
// explicit release — holding one keeps its version's data alive (the graph
// snapshot and rank vector are strongly referenced) even after the engine's
// retention window has trimmed past it; dropping the last reference frees
// it with ordinary garbage collection.
type View struct {
	seq   uint64
	ranks []float64         // shared immutable rank vector
	ver   *snapshot.Version // graph snapshot at seq
	// keys is the engine's key space (nil on dense-ID engines). The view's
	// vertex count doubles as the key space's length at its version — ids
	// are handed out densely and the universe only grows — so the keyed
	// reads in keys.go resolve exactly the keys that existed at seq with
	// the same bounds check the dense reads perform.
	keys *keymap.Map

	// topk is the lazily built descending order shared by every reader of
	// this version: the first TopK(k) runs one partial selection, later
	// calls (any k up to the cached prefix) only copy k entries out.
	topkMu    sync.Mutex
	topkOrder []uint32
}

// Ranked is one entry of a top-k query: a vertex and its score.
type Ranked struct {
	V     uint32
	Score float64
}

// Movement is one vertex's rank change between two views — see View.Delta.
type Movement struct {
	V        uint32
	From, To float64
}

// Seq returns the version this view is pinned to: both the graph version
// and the rank version, which coincide for every published view.
func (v *View) Seq() uint64 { return v.seq }

// N returns the vertex count of the view's graph.
func (v *View) N() int { return len(v.ranks) }

// M returns the directed edge count of the view's graph (self-loops
// included — every vertex carries one, the paper's dead-end elimination).
func (v *View) M() int { return v.ver.G.M() }

// ScoreOf returns the PageRank score of u at this version, and whether u is
// a valid vertex. It is one bounds check and one load — zero allocations,
// no locks — the shape of a point lookup under read-heavy traffic.
//
//dfpr:hotpath
func (v *View) ScoreOf(u uint32) (float64, bool) {
	if int(u) >= len(v.ranks) {
		return 0, false
	}
	return v.ranks[u], true
}

// TopK returns the k highest-ranked vertices at this version, highest
// first, ties broken toward the lower vertex id. The underlying descending
// order is built lazily on first use with a partial selection (O(|V|·log k))
// and cached on the view, shared by every reader of the version; subsequent
// calls allocate only the returned O(k) slice. k beyond |V| is clamped.
func (v *View) TopK(k int) []Ranked {
	if k <= 0 {
		return nil
	}
	if k > len(v.ranks) {
		k = len(v.ranks)
	}
	return v.AppendTopK(make([]Ranked, 0, k), k)
}

// AppendTopK is TopK appending into dst, for callers recycling buffers on a
// hot serving path: with cap(dst) ≥ k (and the order cache warm) it
// performs zero allocations.
//
//dfpr:hotpath
func (v *View) AppendTopK(dst []Ranked, k int) []Ranked {
	if k <= 0 {
		return dst
	}
	if k > len(v.ranks) {
		k = len(v.ranks)
	}
	ord := v.order(k)
	for _, u := range ord[:k] {
		dst = append(dst, Ranked{V: u, Score: v.ranks[u]})
	}
	return dst
}

// order returns the cached descending order, at least k entries long. The
// cached prefix grows geometrically so a reader sweeping k upward re-selects
// O(log |V|) times, not once per k.
func (v *View) order(k int) []uint32 {
	v.topkMu.Lock()
	defer v.topkMu.Unlock()
	if len(v.topkOrder) >= k {
		return v.topkOrder
	}
	grow := max(k, 2*len(v.topkOrder))
	if grow > len(v.ranks) {
		grow = len(v.ranks)
	}
	v.topkOrder = topk.Select(v.ranks, grow)
	return v.topkOrder
}

// Neighbors returns the sorted out-neighbours of u in the view's graph
// version, or nil for an out-of-range vertex. The slice aliases the
// immutable snapshot's storage — zero-copy — and must not be modified.
// Every vertex carries a self-loop (dead-end elimination, paper §5.1.3).
func (v *View) Neighbors(u uint32) []uint32 {
	if int(u) >= v.ver.G.N() {
		return nil
	}
	return v.ver.G.Out(u)
}

// InNeighbors returns the sorted in-neighbours of u, with the same aliasing
// contract as Neighbors.
func (v *View) InNeighbors(u uint32) []uint32 {
	if int(u) >= v.ver.G.N() {
		return nil
	}
	return v.ver.G.In(u)
}

// Scores returns an iterator over (vertex, score) pairs in vertex order,
// for range-over-func loops:
//
//	for u, score := range view.Scores() { ... }
//
// It reads the shared vector directly and allocates nothing.
func (v *View) Scores() iter.Seq2[uint32, float64] {
	return func(yield func(uint32, float64) bool) {
		for u, s := range v.ranks {
			if !yield(uint32(u), s) {
				return
			}
		}
	}
}

// Delta returns every vertex whose rank differs between old and v, as
// movements From (old's score) To (v's), in vertex order. The two views may
// be passed in either order and may come from different engines; old == nil
// or old == v yields nil.
//
// Delta is one O(|V|) pass over the two rank vectors. Under DF-LF at the
// shipped frontier tolerance a refresh moves most vertices, so no walk
// confined to the batch's neighbourhood would visit fewer (DESIGN §5).
// Views of different vertex counts (the universe grew in between) compare
// as if the shorter vector were padded with zeros: a vertex absent from
// old reports From 0, one absent from v reports To 0.
func (v *View) Delta(old *View) []Movement {
	if old == nil || old == v {
		return nil
	}
	at := func(r []float64, u int) float64 {
		if u < len(r) {
			return r[u]
		}
		return 0
	}
	var moved []Movement
	for u := range max(len(old.ranks), len(v.ranks)) {
		if from, to := at(old.ranks, u), at(v.ranks, u); from != to {
			moved = append(moved, Movement{V: uint32(u), From: from, To: to})
		}
	}
	return moved
}
