// Package graph provides the dynamic-graph substrate the PageRank algorithms
// run on: immutable CSR snapshots with both out- and in-adjacency, a mutable
// Dynamic edge store that produces those snapshots, and batch-update
// application following the paper's model (§3.4): a dynamic graph is a
// sequence of snapshots G^{t-1}, G^t separated by a batch Δt = Δt⁻ ∪ Δt⁺ of
// edge deletions and insertions. The vertex universe may grow between
// snapshots (Dynamic.Grow); vertices are never removed.
//
// Dead-end elimination: the paper removes dead ends (vertices with no
// out-links) by adding a self-loop to every vertex (§5.1.3). EnsureSelfLoops
// applies that transform; the PageRank kernels assume it has been applied and
// therefore never need a global teleport-correction pass.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Edge is a directed edge from U to V. Vertex ids are 32-bit, matching the
// paper's configuration (§5.1.2).
type Edge struct {
	U, V uint32
}

// CSR is an immutable directed graph snapshot in Compressed Sparse Row form,
// carrying both the out-adjacency (for frontier expansion) and the
// in-adjacency (for pull-style rank computation).
//
// Adjacency lists are deduplicated. Out-rows are sorted by neighbour id. An
// in-row In(v) starts with v itself when v has a self-loop, and its other
// sources follow in ascending order: the lock-free kernel then tells the
// self term from the rest with one test per row (core.rankOfCachedAtomic).
type CSR struct {
	n      int
	outPtr []uint64
	outAdj []uint32
	inPtr  []uint64
	inAdj  []uint32
}

// N returns the number of vertices.
func (g *CSR) N() int { return g.n }

// M returns the number of directed edges (self-loops included).
func (g *CSR) M() int { return len(g.outAdj) }

// OutDeg returns the out-degree of v.
func (g *CSR) OutDeg(v uint32) int {
	return int(g.outPtr[v+1] - g.outPtr[v])
}

// InDeg returns the in-degree of v.
func (g *CSR) InDeg(v uint32) int {
	return int(g.inPtr[v+1] - g.inPtr[v])
}

// Out returns the sorted out-neighbours of v. The returned slice aliases the
// snapshot's storage and must not be modified.
func (g *CSR) Out(v uint32) []uint32 {
	return g.outAdj[g.outPtr[v]:g.outPtr[v+1]]
}

// In returns the in-neighbours of v: v itself first if (v,v) is an edge,
// then the other sources in ascending order. The returned slice aliases the
// snapshot's storage and must not be modified.
func (g *CSR) In(v uint32) []uint32 {
	return g.inAdj[g.inPtr[v]:g.inPtr[v+1]]
}

// HasEdge reports whether the directed edge (u,v) exists.
func (g *CSR) HasEdge(u, v uint32) bool {
	_, ok := slices.BinarySearch(g.Out(u), v)
	return ok
}

// Edges appends every directed edge to dst and returns it, in (U,V) sorted
// order.
func (g *CSR) Edges(dst []Edge) []Edge {
	if cap(dst) < g.M() {
		dst = make([]Edge, 0, g.M())
	}
	dst = dst[:0]
	for u := uint32(0); int(u) < g.n; u++ {
		for _, v := range g.Out(u) {
			dst = append(dst, Edge{u, v})
		}
	}
	return dst
}

// AvgOutDeg returns the average out-degree.
func (g *CSR) AvgOutDeg() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.M()) / float64(g.n)
}

// DeadEnds returns the number of vertices with out-degree zero. After
// EnsureSelfLoops this is always zero.
func (g *CSR) DeadEnds() int {
	c := 0
	for v := uint32(0); int(v) < g.n; v++ {
		if g.OutDeg(v) == 0 {
			c++
		}
	}
	return c
}

// Validate checks structural invariants (monotone offsets, sorted unique
// out-rows, in-rows in the order CSR documents, ids in range, in/out
// edge-count agreement). It is used by tests and returns a descriptive
// error on the first violation.
func (g *CSR) Validate() error {
	if len(g.outPtr) != g.n+1 || len(g.inPtr) != g.n+1 {
		return fmt.Errorf("graph: offset array length mismatch (n=%d out=%d in=%d)", g.n, len(g.outPtr), len(g.inPtr))
	}
	if len(g.outAdj) != len(g.inAdj) {
		return fmt.Errorf("graph: out edges (%d) != in edges (%d)", len(g.outAdj), len(g.inAdj))
	}
	if err := validateSide("out", g.n, g.outPtr, g.outAdj, false); err != nil {
		return err
	}
	return validateSide("in", g.n, g.inPtr, g.inAdj, true)
}

// validateSide checks one CSR side's structural invariants: offsets spanning
// the adjacency monotonically, every neighbour in range, every row sorted
// and duplicate-free. With selfFirst (the in side) row v may lead with v,
// and holds v nowhere else. Rows are independent once the span check has
// passed, so large graphs are validated in parallel chunks — this is a
// per-element branchy walk that sits on the warm-restart critical path via
// DecodeContainer.
func validateSide(name string, n int, ptr []uint64, adj []uint32, selfFirst bool) error {
	if ptr[0] != 0 || ptr[n] != uint64(len(adj)) {
		return fmt.Errorf("graph: %s offsets do not span adjacency", name)
	}
	workers := buildWorkers(len(adj))
	errs := make([]error, workers)
	parallelRanges(uniformCuts(n, workers), func(w, lo, hi int) {
		errs[w] = validateRows(name, n, lo, hi, ptr, adj, selfFirst)
	})
	return errors.Join(errs...)
}

// validateRows checks rows [lo, hi) of one CSR side (see validateSide). The
// monotonicity check at v compares ptr[v] to ptr[v+1], so chunk boundaries
// need no overlap.
func validateRows(name string, n, lo, hi int, ptr []uint64, adj []uint32, selfFirst bool) error {
	for v := lo; v < hi; v++ {
		if ptr[v] > ptr[v+1] || ptr[v+1] > uint64(len(adj)) {
			return fmt.Errorf("graph: %s offsets not monotone within the adjacency at %d", name, v)
		}
		row := adj[ptr[v]:ptr[v+1]]
		if selfFirst && len(row) > 0 && row[0] == uint32(v) {
			row = row[1:]
		}
		for i, w := range row {
			if int(w) >= n {
				return fmt.Errorf("graph: %s neighbour %d of %d out of range", name, w, v)
			}
			if selfFirst && w == uint32(v) {
				return fmt.Errorf("graph: %s adjacency of %d holds its self-loop past the first slot", name, v)
			}
			if i > 0 && row[i-1] >= w {
				return fmt.Errorf("graph: %s adjacency of %d not sorted/unique", name, v)
			}
		}
	}
	return nil
}

func fmtEdgeRange(e Edge, n int) string {
	return fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n)
}

// Dynamic is a mutable directed graph used to generate snapshot sequences.
// Mutation is not safe for concurrent use (the paper interleaves updates and
// computation via read-only snapshots, §3.4 — Snapshot provides exactly
// that).
//
// Dynamic is an overlay on the last CSR it built, its base: adj[u] holds a
// sorted out-row only while u owns it, and a nil entry reads base.Out(u).
// A row is owned once it has changed since base was built (AddEdge and
// DelEdge copy the base row on their first real change to it, and never
// write into base), and every row is owned while there is no base (a graph
// built by NewDynamic and AddEdge). Snapshot releases the owned rows once
// the new CSR holds them, so between snapshots the graph costs its row
// headers plus the rows of the round in progress: the newest CSR is the one
// copy of the graph.
//
// Snapshot rebuilds only the touched rows of the next CSR and block-copies
// everything else (see delta.go). With the paper's batch fractions
// (10⁻⁷–10⁻³ of |E|) almost every row is untouched between snapshots, which
// turns snapshot construction from the dominant cost of the dynamic
// pipeline into a near-memcpy.
type Dynamic struct {
	n   int
	adj [][]uint32
	m   int

	// base is the snapshot the overlay and the dirty sets are relative to;
	// nil means no snapshot has been built yet and the next Snapshot takes
	// the cold path.
	base *CSR
	// outDirty holds sources whose out-row changed since base: the owned
	// rows, while base is set.
	outDirty map[uint32]struct{}
	// inTouched maps each target whose in-row may have changed to the
	// sources whose edge (u,v) membership was toggled. The new in-row is
	// recovered by merging base.In(v) with a membership probe per touched
	// source, which is insensitive to insert/delete/reinsert churn.
	inTouched map[uint32][]uint32

	// looped is the prefix [0, looped) of vertices EnsureSelfLoops has
	// looped; lostLoops holds those of them whose self-loop DelEdge has
	// removed since. Together they make the next call O(change), not O(n).
	looped    int
	lostLoops []uint32
}

// NewDynamic returns an empty dynamic graph with n vertices.
func NewDynamic(n int) *Dynamic {
	return &Dynamic{n: n, adj: make([][]uint32, n)}
}

// DynamicFromCSR returns a dynamic graph holding the same edges as g, with
// g as its base: it copies no adjacency and owns no row, and a Snapshot
// after a small number of mutations takes the delta-merge path at once.
func DynamicFromCSR(g *CSR) *Dynamic {
	return &Dynamic{n: g.N(), adj: make([][]uint32, g.N()), m: g.M(), base: g}
}

// N returns the number of vertices.
func (d *Dynamic) N() int { return d.n }

// M returns the number of directed edges.
func (d *Dynamic) M() int { return d.m }

// HasEdge reports whether edge (u,v) exists.
func (d *Dynamic) HasEdge(u, v uint32) bool {
	_, ok := slices.BinarySearch(d.Out(u), v)
	return ok
}

// OutDeg returns the out-degree of u.
func (d *Dynamic) OutDeg(u uint32) int { return len(d.Out(u)) }

// owned reports whether u's row lives in adj (see Dynamic). A row past the
// base reads as empty, so it counts as owned.
func (d *Dynamic) owned(u uint32) bool {
	return d.adj[u] != nil || d.base == nil || int(u) >= d.base.n
}

// Out returns the sorted out-neighbours of u: the owned row, or else the
// base's. The slice aliases internal or snapshot storage; callers must not
// modify it or retain it across mutations.
func (d *Dynamic) Out(u uint32) []uint32 {
	if d.owned(u) {
		return d.adj[u]
	}
	return slices.Clip(d.base.Out(u))
}

// AddEdge inserts edge (u,v), reporting whether it was absent.
func (d *Dynamic) AddEdge(u, v uint32) bool {
	row := d.Out(u)
	i, ok := slices.BinarySearch(row, v)
	if ok {
		return false
	}
	// Out clips a base row, so the insert copies it out of the base.
	d.adj[u] = slices.Insert(row, i, v)
	d.m++
	d.touch(u, v)
	return true
}

// DelEdge removes edge (u,v), reporting whether it was present. Endpoints
// beyond the universe are a no-op, not a panic: the open-universe write
// path drops such deletions (the edge cannot exist) instead of growing.
func (d *Dynamic) DelEdge(u, v uint32) bool {
	if int(u) >= d.n || int(v) >= d.n {
		return false
	}
	row := d.Out(u)
	i, ok := slices.BinarySearch(row, v)
	if !ok {
		return false
	}
	if !d.owned(u) {
		row = slices.Clone(row)
	}
	d.adj[u] = slices.Delete(row, i, i+1) // non-nil even when empty: still owned
	d.m--
	d.touch(u, v)
	if u == v && int(u) < d.looped {
		d.lostLoops = append(d.lostLoops, u)
	}
	return true
}

// touch records that edge (u,v) membership changed since the base snapshot.
// Only real mutations reach here, so idempotent calls like EnsureSelfLoops
// on an already-looped graph never dirty anything.
func (d *Dynamic) touch(u, v uint32) {
	if d.base == nil {
		return
	}
	if d.outDirty == nil {
		d.outDirty = make(map[uint32]struct{})
		d.inTouched = make(map[uint32][]uint32)
	}
	d.outDirty[u] = struct{}{}
	d.inTouched[v] = append(d.inTouched[v], u)
}

// Grow extends the vertex universe to n vertices; the added vertices are
// isolated until edges (or the self-loops EnsureSelfLoops adds) arrive.
// Growing to a smaller or equal n is a no-op — the universe is append-only,
// matching the key space (vertices are never removed, only disconnected).
//
// Growth costs amortized O(added vertices): the row headers grow by
// append's geometric rule, and the base CSR is left as it is — the next
// delta merge reads its missing rows as empty, so a Snapshot after a small
// batch on a grown graph still takes the delta-merge path.
func (d *Dynamic) Grow(n int) {
	if n <= d.n {
		return
	}
	d.adj = append(d.adj, make([][]uint32, n-d.n)...)
	d.n = n
}

// Apply removes every edge in del and inserts every edge in ins, in that
// order (matching Δt⁻ then Δt⁺). Edges already absent/present are ignored,
// mirroring set semantics.
func (d *Dynamic) Apply(del, ins []Edge) {
	for _, e := range del {
		d.DelEdge(e.U, e.V)
	}
	for _, e := range ins {
		d.AddEdge(e.U, e.V)
	}
}

// EnsureSelfLoops adds a self-loop to every vertex (idempotent). This is the
// paper's dead-end elimination (§5.1.3): every vertex gains out-degree ≥ 1 so
// the global teleport contribution of dangling vertices never needs
// recomputation.
//
// A call loops only the vertices added since the previous call and those
// whose self-loop DelEdge removed, so it costs O(new vertices + deleted
// loops); the first call on a constructed or cloned graph costs O(n).
func (d *Dynamic) EnsureSelfLoops() {
	for _, v := range d.lostLoops {
		d.AddEdge(v, v)
	}
	d.lostLoops = d.lostLoops[:0]
	for v := uint32(d.looped); int(v) < d.n; v++ {
		d.AddEdge(v, v)
	}
	d.looped = d.n
}

// Snapshot builds an immutable CSR of the current graph, choosing the
// cheapest construction automatically: if nothing changed since the last
// snapshot, that snapshot is returned as-is (CSRs are immutable, sharing is
// safe); if few rows changed, the new CSR is delta-merged from the last one
// (touched rows rebuilt, everything else block-copied); otherwise a full
// parallel cold build runs. The new CSR becomes the base, and the rows it
// holds are released.
func (d *Dynamic) Snapshot() *CSR {
	if d.base == nil || !d.deltaWorthwhile() {
		return d.SnapshotFull()
	}
	if d.base.n == d.n && len(d.outDirty) == 0 && len(d.inTouched) == 0 {
		return d.base
	}
	g := d.deltaSnapshot()
	for u := range d.outDirty {
		d.adj[u] = nil
	}
	d.base = g
	d.outDirty, d.inTouched = nil, nil
	return g
}

// SnapshotFull builds an immutable CSR with the cold (full-rebuild) path
// regardless of dirty-row state, makes it the base and releases every owned
// row. It exists for benchmarking the delta-merge against the rebuild it
// replaces; Snapshot is what callers should use.
func (d *Dynamic) SnapshotFull() *CSR {
	g := buildCSR(d.n, func(u int) []uint32 { return d.Out(uint32(u)) })
	clear(d.adj)
	d.base = g
	d.outDirty, d.inTouched = nil, nil
	return g
}

// Clone returns an independent deep copy that owns every row, read through
// Out; d is only read. The clone starts cold: it shares no base or
// snapshot-tracking state with d, so its first Snapshot is a full build.
func (d *Dynamic) Clone() *Dynamic {
	c := NewDynamic(d.n)
	for u := range c.adj {
		c.adj[u] = slices.Clone(d.Out(uint32(u)))
	}
	c.m = d.m
	return c
}

// WithN returns a view of g extended (or identical) to n vertices; the
// added vertices are isolated. Used when comparing snapshots across vertex
// additions: the old snapshot is padded so both sides index the same vertex
// space. Adjacency storage is shared with g; offset arrays are copied.
func (g *CSR) WithN(n int) *CSR {
	if n <= g.n {
		return g
	}
	out := &CSR{n: n, outAdj: g.outAdj, inAdj: g.inAdj}
	out.outPtr = make([]uint64, n+1)
	out.inPtr = make([]uint64, n+1)
	copy(out.outPtr, g.outPtr)
	copy(out.inPtr, g.inPtr)
	for v := g.n + 1; v <= n; v++ {
		out.outPtr[v] = g.outPtr[g.n]
		out.inPtr[v] = g.inPtr[g.n]
	}
	return out
}

// UnionOut calls fn for every vertex in out_{g1}(u) ∪ out_{g2}(u), visiting
// each neighbour exactly once. It is the (G^{t-1} ∪ G^t).out(u) iteration in
// the DF initial-marking phase (Algorithms 1 and 2).
func UnionOut(g1, g2 *CSR, u uint32, fn func(v uint32)) {
	a, b := g1.Out(u), g2.Out(u)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			fn(a[i])
			i++
		case a[i] > b[j]:
			fn(b[j])
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		fn(a[i])
	}
	for ; j < len(b); j++ {
		fn(b[j])
	}
}
