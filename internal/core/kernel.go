package core

import (
	"cmp"
	"slices"

	"dfpr/internal/avec"
	"dfpr/internal/graph"
)

// The engines keep a contribution cache alongside the rank vector:
//
//	contrib[u] = α · rank[u] / outdeg(u)
//
// maintained at every rank store. The per-edge work of the pull kernel then
// drops from two memory reads and two multiplies (rank[u] and inv[u]) to a
// single read and an add — on large graphs the kernel is memory-bound, so
// halving the loads per edge is the dominant win. The uncached synchronous
// kernel is kept below as the seed form: Reference iterates it as the
// independent yardstick every engine is checked against.

// rankOfCached computes the PageRank update for vertex v (Eq. 1) as a pure
// gather over the plain contribution cache — the synchronous (Jacobi) kernel
// used by the barrier-based variants, where the read vectors are immutable
// during an iteration.
//
//dfpr:hotpath
func rankOfCached(g *graph.CSR, contrib []float64, base float64, v uint32) float64 {
	r := base
	for _, u := range g.In(v) {
		r += contrib[u]
	}
	return r
}

// rankOfCachedAtomic computes the PageRank update for vertex v as a gather
// over the shared atomic contribution cache — the asynchronous
// (Gauss–Seidel) kernel used by the lock-free variants, where neighbours'
// contributions may be updated concurrently by other workers.
//
// It solves v's own equation rather than iterating it. With a self-loop,
// r_v = b + α·r_v/d_v + Σ_{u∈in(v), u≠v} contrib[u], so
// r_v = (b + Σ_{u≠v} contrib[u]) · dinv with dinv = 1/(1 − α/d_v), and dinv
// = 1 for a vertex without one (kernelFactors). The fixed point is the
// plain update's; only the iteration differs: a dead end, whose one
// out-edge is its self-loop, lands on its fixed point in the first pass
// after its in-neighbours settle instead of contracting by α per pass. A
// self-loop is the first entry of v's in-row (graph.CSR), so the gather
// drops it with one test per row and reads the rest whole, rather than
// loading contrib[v] and subtracting it: a concurrent store between the
// two loads would leave a term that cancels nothing.
//
//dfpr:hotpath
func rankOfCachedAtomic(g *graph.CSR, contrib *avec.F64, base, dinv float64, v uint32) float64 {
	in := g.In(v)
	if len(in) > 0 && in[0] == v {
		in = in[1:]
	}
	c := *contrib // see avec.F64.Load
	r := base
	for _, u := range in {
		r += c.Load(int(u))
	}
	return r * dinv
}

// rankOfSeed is the uncached synchronous kernel (two reads and a multiply
// per edge) the contribution cache replaces.
//
//dfpr:hotpath
func rankOfSeed(g *graph.CSR, inv, ranks []float64, alpha, base float64, v uint32) float64 {
	r := base
	for _, u := range g.In(v) {
		r += alpha * ranks[u] * inv[u]
	}
	return r
}

// marker abstracts the initial-marking step of the dynamic variants: given a
// batch-edge source vertex u, mark whatever the variant considers initially
// affected. The DF marker touches out-neighbours of u in G^{t-1} ∪ G^t; the
// DT marker additionally walks everything reachable from them in G^t.
//
// Neither holds G^{t-1}. An edge of G^{t-1} that G^t lacks is a deletion
// (Input.Del), so out_{G^{t-1}}(u) ∪ out_{G^t}(u) is out_{G^t}(u) plus the
// targets of u's deletions, looked up in del (Del sorted by source, see
// batchEdges). A vertex in both halves is visited twice; marking is
// idempotent, so that changes nothing.
type marker interface {
	markFrom(u uint32)
}

// dfMarker implements Dynamic Frontier initial marking (Algorithms 1–2,
// "mark initial affected"): out(u) in both snapshots becomes affected; in
// lock-free runs the same vertices are flagged not-converged.
type dfMarker struct {
	g   *graph.CSR
	del []graph.Edge // Input.Del sorted by source
	va  *avec.Flags
	rc  *avec.Flags // nil in barrier-based runs
}

// markFrom flags v not-converged before adding it to VA, and only while v is
// not in VA yet. Once v is in VA, whoever put it there has flagged it (the
// phase-2 expansion sets RC right after VA), and the survivors may since
// have converged it. A helper whose walk ends after the survivors' last
// all-clear check and that crash-stops at its first chunk would otherwise
// leave an RC bit nobody clears, and the run would report a converged
// vector as unconverged.
func (m *dfMarker) markFrom(u uint32) {
	mark := func(v uint32) {
		if m.rc != nil && !m.va.Get(int(v)) {
			m.rc.Set(int(v))
		}
		m.va.Set(int(v))
	}
	for _, v := range m.g.Out(u) {
		mark(v)
	}
	for _, e := range deletionsOf(m.del, u) {
		mark(e.V)
	}
}

// dtMarker implements Dynamic Traversal initial marking (Algorithms 7–8):
// everything reachable in G^t from out(u) of either snapshot is affected.
// Each worker owns one dtMarker so the DFS scratch stack is unshared.
type dtMarker struct {
	g     *graph.CSR
	del   []graph.Edge // Input.Del sorted by source
	va    *avec.Flags
	rc    *avec.Flags // nil in barrier-based runs
	stack []uint32
}

func (m *dtMarker) markFrom(u uint32) {
	visit := func(v uint32) bool {
		newly := m.va.Set(int(v))
		if newly && m.rc != nil {
			m.rc.Set(int(v))
		}
		return newly
	}
	for _, v := range m.g.Out(u) {
		m.stack = markReachable(m.g, v, visit, m.stack)
	}
	for _, e := range deletionsOf(m.del, u) {
		m.stack = markReachable(m.g, e.V, visit, m.stack)
	}
}

// newMarker returns the variant's marker over the run's graph and sorted
// deletions, or nil for a variant that marks nothing (static, ND).
func newMarker(vr variant, g *graph.CSR, del []graph.Edge, va, rc *avec.Flags) marker {
	switch vr {
	case vDF:
		return &dfMarker{g: g, del: del, va: va, rc: rc}
	case vDT:
		return &dtMarker{g: g, del: del, va: va, rc: rc}
	}
	return nil
}

// batchEdges returns the run's batch as one slice, Δ⁻ then Δ⁺, that the
// marking phase hands out by source, and its Δ⁻ prefix sorted by source
// for deletionsOf. The caller's slices are not modified.
func batchEdges(in Input) (edges, del []graph.Edge) {
	del = append(make([]graph.Edge, 0, len(in.Del)+len(in.Ins)), in.Del...)
	slices.SortFunc(del, func(a, b graph.Edge) int { return cmp.Compare(a.U, b.U) })
	return append(del, in.Ins...), del
}

// deletionsOf returns u's edges in del, which is sorted by source.
func deletionsOf(del []graph.Edge, u uint32) []graph.Edge {
	i, _ := slices.BinarySearchFunc(del, u, func(e graph.Edge, u uint32) int { return cmp.Compare(e.U, u) })
	j := i
	for j < len(del) && del[j].U == u {
		j++
	}
	return del[i:j]
}

// markReachable marks start and everything reachable from it along
// out-edges of g, depth first (the paper permits either order, §3.5.2).
// visit must atomically mark a vertex and report whether it was newly
// marked (avec.Flags.Set); the walk descends only through newly marked
// vertices, so concurrent walks from different sources cooperate instead of
// duplicating work: whichever marks a vertex first descends through it, the
// others prune. stack is a scratch buffer reused across calls; the
// (possibly grown) buffer is returned.
func markReachable(g *graph.CSR, start uint32, visit func(v uint32) bool, stack []uint32) []uint32 {
	stack = stack[:0]
	if !visit(start) {
		return stack
	}
	stack = append(stack, start)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Out(v) {
			if visit(w) {
				stack = append(stack, w)
			}
		}
	}
	return stack
}

// atomicMaxU64 raises *p to at least x.
func atomicMaxU64(c *avec.Counter, x uint64) {
	for {
		old := c.Load()
		if old >= x {
			return
		}
		if c.CompareAndSwap(old, x) {
			return
		}
	}
}
