// Package graph provides the dynamic-graph substrate the PageRank algorithms
// run on: immutable CSR snapshots with both out- and in-adjacency, a mutable
// Dynamic edge store that produces those snapshots, and batch-update
// application following the paper's model (§3.4): a dynamic graph is a
// sequence of snapshots G^{t-1}, G^t separated by a batch Δt = Δt⁻ ∪ Δt⁺ of
// edge deletions and insertions. The vertex universe may grow between
// snapshots (Dynamic.Grow); vertices are never removed. Every edge of
// G^{t-1} missing from G^t is in Δt⁻, so an algorithm needs only G^t and
// the batch, never two snapshots side by side.
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
// Each side is a table of row blocks (see rowBlock), so a snapshot built
// from the one before it shares every block its batch did not touch (see
// delta.go): a retained version costs its dirty blocks, not a graph.
//
// Adjacency lists are deduplicated. Out-rows are sorted by neighbour id. An
// in-row In(v) starts with v itself when v has a self-loop, and its other
// sources follow in ascending order: the lock-free kernel then tells the
// self term from the rest with one test per row (core.rankOfCachedAtomic).
type CSR struct {
	n, m    int
	out, in side
}

// blockShift sets the rows per block, 64: a 10-edit batch on RMAT 2^16×16
// then costs a version 0.029 of a CSR, the least of 16, 64, 256 and 1 024
// rows (DESIGN §12), and a row read pays one more indirection than a flat
// array.
const (
	blockShift = 6
	blockRows  = 1 << blockShift
	blockMask  = blockRows - 1
)

// blockPtr holds a block's row offsets: row i is adj[ptr[i]:ptr[i+1]]. A
// fixed length lets a row read index it without bounds checks. Rows past
// the universe (the tail of the last block) repeat the final offset, so
// they read as empty and ptr[blockRows]-ptr[0] is always the edge count.
type blockPtr = [blockRows + 1]uint64

// rowBlock holds blockRows consecutive rows of one CSR side. A heap-built
// block owns both arrays and its ptr starts at 0; a block decoded zero-copy
// from a container has a window of the mapped offsets as ptr and the whole
// mapped blob as adj. Blocks are never written once built, so snapshots
// share them freely.
type rowBlock struct {
	ptr *blockPtr
	adj []uint32
}

// edges returns the number of adjacency entries the block's rows span.
func (b *rowBlock) edges() int { return int(b.ptr[blockRows] - b.ptr[0]) }

// side is one adjacency direction of a CSR: block b holds rows
// [b·blockRows, b·blockRows+blockRows) of the universe, clipped to n.
type side []rowBlock

// numBlocks returns the number of blocks n rows take.
func numBlocks(n int) int { return (n + blockMask) >> blockShift }

// blockSpan returns the rows [lo, hi) block b holds in a universe of n.
func blockSpan(b, n int) (lo, hi int) {
	return b << blockShift, min(b<<blockShift+blockRows, n)
}

// emptyBlock is every block with no edges that no build wrote (padding past
// a grown universe); it is never written.
var emptyBlock = rowBlock{ptr: new(blockPtr), adj: []uint32{}}

// grown returns a new table for a universe grown to n rows: it shares every
// block (the last one's missing rows already read as empty) and adds
// emptyBlock as often as needed, so growth costs O(n/blockRows) whatever
// the edge count.
func (s side) grown(n int) side {
	t := make(side, numBlocks(n))
	for b := copy(t, s); b < len(t); b++ {
		t[b] = emptyBlock
	}
	return t
}

// N returns the number of vertices.
func (g *CSR) N() int { return g.n }

// M returns the number of directed edges (self-loops included).
func (g *CSR) M() int { return g.m }

// OutDeg returns the out-degree of v.
func (g *CSR) OutDeg(v uint32) int {
	b, i := &g.out[v>>blockShift], v&blockMask
	return int(b.ptr[i+1] - b.ptr[i])
}

// InDeg returns the in-degree of v.
func (g *CSR) InDeg(v uint32) int {
	b, i := &g.in[v>>blockShift], v&blockMask
	return int(b.ptr[i+1] - b.ptr[i])
}

// Out returns the sorted out-neighbours of v. The returned slice aliases the
// snapshot's storage and must not be modified.
func (g *CSR) Out(v uint32) []uint32 {
	b, i := &g.out[v>>blockShift], v&blockMask
	return b.adj[b.ptr[i]:b.ptr[i+1]]
}

// In returns the in-neighbours of v: v itself first if (v,v) is an edge,
// then the other sources in ascending order. The returned slice aliases the
// snapshot's storage and must not be modified.
func (g *CSR) In(v uint32) []uint32 {
	b, i := &g.in[v>>blockShift], v&blockMask
	return b.adj[b.ptr[i]:b.ptr[i+1]]
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

// Validate checks structural invariants (a block per 64 rows, offsets
// monotone within its adjacency, empty rows past the universe; sorted unique
// out-rows, in-rows in the order CSR documents, ids in range, M edges on
// each side). It is used by tests and returns a descriptive error on the
// first violation.
func (g *CSR) Validate() error {
	if nb := numBlocks(g.n); len(g.out) != nb || len(g.in) != nb {
		return fmt.Errorf("graph: block table length mismatch (n=%d out=%d in=%d)", g.n, len(g.out), len(g.in))
	}
	if err := validateSide("out", g.n, g.m, g.out, false); err != nil {
		return err
	}
	return validateSide("in", g.n, g.m, g.in, true)
}

// validateSide checks one CSR side's structural invariants: every block's
// offsets monotone within its adjacency, every neighbour in range, every
// row sorted and duplicate-free, m edges in all. With selfFirst (the in
// side) row v may lead with v, and holds v nowhere else. Blocks are
// independent, so large graphs are validated in parallel chunks — this is a
// per-element branchy walk that sits on the warm-restart critical path via
// DecodeContainer.
func validateSide(name string, n, m int, s side, selfFirst bool) error {
	workers := buildWorkers(m)
	errs := make([]error, workers)
	parallelRanges(uniformCuts(len(s), workers), func(w, lo, hi int) {
		for b := lo; b < hi && errs[w] == nil; b++ {
			errs[w] = validateBlock(name, n, b, &s[b], selfFirst)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	total := 0
	for b := range s {
		total += s[b].edges()
	}
	if total != m {
		return fmt.Errorf("graph: %s rows hold %d edges, want %d", name, total, m)
	}
	return nil
}

// validateBlock checks block b of one CSR side (see validateSide); its
// rows past the universe must be empty.
func validateBlock(name string, n, b int, blk *rowBlock, selfFirst bool) error {
	lo, hi := blockSpan(b, n)
	ptr, adj := blk.ptr, blk.adj
	for i := range blockRows {
		v := lo + i
		p0, p1 := ptr[i], ptr[i+1]
		if p0 > p1 || p1 > uint64(len(adj)) || (v >= hi && p0 != p1) {
			return fmt.Errorf("graph: %s offsets not monotone within the adjacency at %d", name, v)
		}
		row := adj[p0:p1]
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
// headers plus the rows of the round in progress: the newest CSR holds the
// one copy of each row, and every older CSR shares with it the blocks no
// batch since has touched.
//
// Snapshot rebuilds only the blocks holding a touched row and shares every
// other block with the base (see delta.go). With the paper's batch
// fractions (10⁻⁷–10⁻³ of |E|) almost every block is untouched between
// snapshots, which turns snapshot construction from the dominant cost of
// the dynamic pipeline into a copy of two block tables.
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
// (blocks holding a touched row rebuilt, every other block shared);
// otherwise a full parallel cold build runs. The new CSR becomes the base,
// and the rows it holds are released.
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
