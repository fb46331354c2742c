// Package batch implements the paper's batch-update generation (§5.1.4):
//
//   - For static graphs: random batches with an equal mix of edge deletions
//     (existing edges picked uniformly) and insertions (non-connected vertex
//     pairs picked uniformly), sized as a fraction of |E|, with no vertex
//     additions or removals.
//   - For temporal graphs: load the first 90% of the event stream as the
//     initial graph, then replay the remaining events in fixed-size batches
//     of 1e-4·|Eᵀ| or 1e-3·|Eᵀ| insertions.
//   - For the stability experiment (§5.2.3): pure-deletion batches whose
//     exact reversal is the matching insertion batch.
//
// Self-loops are structural (dead-end elimination) and are never selected
// for deletion.
package batch

import (
	"math/rand"
	"slices"
	"time"

	"dfpr/internal/gen"
	"dfpr/internal/graph"
)

// Update is one batch update Δt: deletions applied before insertions.
type Update struct {
	Del, Ins []graph.Edge
	// N is the vertex universe the graph must cover after this update: a
	// batch may mention vertices beyond the current universe, and the store
	// grows to max(current, N, 1+max mentioned id) before applying the
	// edges. Zero means "no growth requested" (the pre-PR5 closed-universe
	// batches). The universe only grows — the paper's model has no vertex
	// removal, and neither does the key space built on top of it.
	N int
}

// Size returns the total number of edge updates in the batch.
func (u Update) Size() int { return len(u.Del) + len(u.Ins) }

// Inverse returns the update that undoes u (insert what was deleted, delete
// what was inserted). Applying u then u.Inverse() restores the edge set.
// Growth is not undone — the universe is append-only — so N carries over:
// vertices added by u stay, disconnected, exactly as the store would leave
// them.
func (u Update) Inverse() Update {
	return Update{Del: u.Ins, Ins: u.Del, N: u.N}
}

// Merge folds a sequence of updates — applied in order, each update's
// deletions before its insertions — into one equivalent update: for every
// touched edge the last operation wins, so the merged batch leaves the edge
// set exactly where the sequence would have. Duplicates and del/ins churn on
// the same edge collapse to a single entry, which is what makes coalesced
// ingest cheap: the delta-merge snapshot cost scales with the merged batch,
// not with the number of submissions that produced it.
//
// Edges keep their first-touch order, so merging is deterministic for a
// deterministic input sequence. The merged Del list may name edges absent
// from the pre-batch graph (inserted then deleted within the span) and the
// Ins list edges already present; both are no-ops for the set-semantics
// Dynamic store, and for the Dynamic Frontier marking they only widen the
// initially affected set, never narrow it. Merge is a Merger fed ups.
func Merge(ups ...Update) Update {
	total := 0
	for _, up := range ups {
		total += up.Size()
	}
	m := Merger{lastDel: make(map[graph.Edge]bool, total), order: make([]graph.Edge, 0, total)}
	for _, up := range ups {
		m.Add(up, time.Time{})
	}
	return m.Update()
}

// Merger accumulates updates into the one Merge would return for them,
// one update at a time, so a span of k batches over p distinct edges costs
// p entries however large k grows. It also counts the span's raw edits
// (max(Size, 1) per update: a pure-growth update still moved every rank)
// and keeps the oldest time it was given. The zero Merger is empty and
// ready to use.
type Merger struct {
	order   []graph.Edge        // first-touch order
	lastDel map[graph.Edge]bool // last op per edge: true for a deletion
	n       int
	edits   int
	oldest  time.Time
}

// Add folds up, published at at (zero when untimed), into the span.
func (m *Merger) Add(up Update, at time.Time) {
	for _, e := range up.Del {
		m.note(e, true)
	}
	for _, e := range up.Ins {
		m.note(e, false)
	}
	m.n = max(m.n, up.N)
	m.edits += max(up.Size(), 1)
	if m.oldest.IsZero() {
		m.oldest = at
	}
}

func (m *Merger) note(e graph.Edge, del bool) {
	if m.lastDel == nil {
		m.lastDel = make(map[graph.Edge]bool)
	}
	if _, seen := m.lastDel[e]; !seen {
		m.order = append(m.order, e)
	}
	m.lastDel[e] = del
}

// Absorb folds later, a span that follows m's, into m: the result is what
// Adding m's updates and then later's would have built.
func (m *Merger) Absorb(later *Merger) {
	for _, e := range later.order {
		m.note(e, later.lastDel[e])
	}
	m.n = max(m.n, later.n)
	m.edits += later.edits
	if m.oldest.IsZero() {
		m.oldest = later.oldest
	}
}

// Edits returns how many raw edits the span's updates carried.
func (m *Merger) Edits() int { return m.edits }

// Oldest returns the first non-zero time the span was given.
func (m *Merger) Oldest() time.Time { return m.oldest }

// Update returns the span as one update, in first-touch order.
func (m *Merger) Update() Update {
	out := Update{N: m.n}
	for _, e := range m.order {
		if m.lastDel[e] {
			out.Del = append(out.Del, e)
		} else {
			out.Ins = append(out.Ins, e)
		}
	}
	return out
}

// Universe returns the vertex count the graph must have after applying u on
// a graph of cur vertices: the largest of cur, the requested N, and one past
// the highest endpoint any INSERTED edge mentions. It is how the
// open-universe write path sizes growth — an inserted edge naming a
// never-seen vertex grows the graph instead of erroring. Deletions never
// grow: an edge touching a vertex beyond the universe cannot exist, so the
// store drops it (mirroring the keyed path's resolve-and-drop) rather than
// materialising a vertex range just to not-delete from it.
func (u Update) Universe(cur int) int {
	n := cur
	if u.N > n {
		n = u.N
	}
	for _, e := range u.Ins {
		n = coverEdge(n, e)
	}
	return n
}

// ClampDel returns the update's deletions restricted to a universe of n
// vertices — the edges that could possibly exist. The returned slice is u.Del
// itself when nothing is out of range (the overwhelmingly common case).
// Store.Apply stores the clamped list in the published Version so the
// Dynamic Frontier marking, which walks out-rows of every batch-edge source,
// never indexes past the snapshot.
func (u Update) ClampDel(n int) []graph.Edge {
	for i, e := range u.Del {
		if int(e.U) >= n || int(e.V) >= n {
			out := make([]graph.Edge, i, len(u.Del))
			copy(out, u.Del[:i])
			for _, e := range u.Del[i:] {
				if int(e.U) < n && int(e.V) < n {
					out = append(out, e)
				}
			}
			return out
		}
	}
	return u.Del
}

func coverEdge(n int, e graph.Edge) int {
	if int(e.U) >= n {
		n = int(e.U) + 1
	}
	if int(e.V) >= n {
		n = int(e.V) + 1
	}
	return n
}

// Random generates a mixed batch of the given total size on d: size/2
// deletions of existing (non-self-loop) edges chosen uniformly, and
// size - size/2 insertions of currently non-connected pairs chosen
// uniformly. The graph is not modified.
func Random(d *graph.Dynamic, size int, seed int64) Update {
	rng := rand.New(rand.NewSource(seed))
	nDel := size / 2
	nIns := size - nDel
	return Update{
		Del: sampleDeletions(d, nDel, rng),
		Ins: sampleInsertions(d, nIns, rng),
	}
}

// Deletions generates a pure-deletion batch of the given size (§5.2.3
// stability runs delete a batch and later re-insert exactly those edges).
func Deletions(d *graph.Dynamic, size int, seed int64) Update {
	rng := rand.New(rand.NewSource(seed))
	return Update{Del: sampleDeletions(d, size, rng)}
}

// sampleDeletions draws k distinct non-self-loop edges of d, uniformly
// without replacement, in O(n + k log n) time and O(n + k) space: edges
// are numbered row by row (cum holds each row's first number), Floyd's
// algorithm picks k numbers, and a binary search over cum finds each one's
// row. The picks are kept in draw order, so a seed fixes the output.
func sampleDeletions(d *graph.Dynamic, k int, rng *rand.Rand) []graph.Edge {
	n := d.N()
	cum := make([]int, n+1)
	for u := range n {
		row := d.Out(uint32(u))
		cum[u+1] = cum[u] + len(row)
		if _, loop := slices.BinarySearch(row, uint32(u)); loop {
			cum[u+1]--
		}
	}
	total := cum[n]
	k = min(k, total)
	chosen := make(map[int]struct{}, k)
	out := make([]graph.Edge, 0, k)
	for j := total - k; j < total; j++ {
		e := rng.Intn(j + 1)
		if _, dup := chosen[e]; dup {
			e = j
		}
		chosen[e] = struct{}{}
		u, _ := slices.BinarySearch(cum, e+1) // the row holding edge e
		u--
		row := d.Out(uint32(u))
		i := e - cum[u]
		if loop, ok := slices.BinarySearch(row, uint32(u)); ok && loop <= i {
			i++
		}
		out = append(out, graph.Edge{U: uint32(u), V: row[i]})
	}
	return out
}

func sampleInsertions(d *graph.Dynamic, k int, rng *rand.Rand) []graph.Edge {
	n := d.N()
	if n < 2 {
		return nil
	}
	out := make([]graph.Edge, 0, k)
	seen := make(map[graph.Edge]struct{}, k)
	// Rejection sampling; on sparse graphs almost every pick is fresh. The
	// attempt cap guards against pathological near-complete graphs.
	for attempts := 0; len(out) < k && attempts < 20*k+100; attempts++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v || d.HasEdge(u, v) {
			continue
		}
		e := graph.Edge{U: u, V: v}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	return out
}

// Transition applies the update to d and returns the G^t snapshot every
// dynamic algorithm takes with the batch; d is left holding G^t. G^{t-1} is
// not needed: every edge it has and G^t lacks is in up.Del, which is what
// core.Input asks of a batch. Self-loops are re-ensured after the update,
// matching §5.1.4 ("along with each batch update, we add self-loops to all
// vertices").
func Transition(d *graph.Dynamic, up Update) *graph.CSR {
	d.Grow(up.Universe(d.N()))
	d.Apply(up.Del, up.Ins)
	d.EnsureSelfLoops()
	return d.Snapshot()
}

// Replay drives the temporal-graph experiment setup of §5.1.4: the first
// preload fraction (paper: 0.9) of the event stream forms the initial
// graph; the remaining events are handed out as fixed-size insertion
// batches until the stream is exhausted.
type Replay struct {
	stream []gen.TemporalEdge
	pos    int
	d      *graph.Dynamic
}

// NewReplay builds the preloaded initial graph over n vertices and positions
// the cursor at the first unloaded event.
func NewReplay(stream []gen.TemporalEdge, n int, preload float64) *Replay {
	if preload <= 0 || preload >= 1 {
		preload = 0.9
	}
	cut := int(float64(len(stream)) * preload)
	d := graph.NewDynamic(n)
	for _, te := range stream[:cut] {
		d.AddEdge(te.E.U, te.E.V)
	}
	d.EnsureSelfLoops()
	return &Replay{stream: stream, pos: cut, d: d}
}

// Graph returns the replay's current dynamic graph (mutated by NextBatch).
func (r *Replay) Graph() *graph.Dynamic { return r.d }

// NextBatch consumes up to size events and returns them as an insertion
// batch together with the snapshot after it, advancing the underlying
// graph. ok is false when the stream is exhausted.
func (r *Replay) NextBatch(size int) (up Update, g *graph.CSR, ok bool) {
	if r.pos >= len(r.stream) || size <= 0 {
		return Update{}, nil, false
	}
	end := r.pos + size
	if end > len(r.stream) {
		end = len(r.stream)
	}
	ins := make([]graph.Edge, 0, end-r.pos)
	for _, te := range r.stream[r.pos:end] {
		ins = append(ins, te.E)
	}
	r.pos = end
	up = Update{Ins: ins}
	return up, Transition(r.d, up), true
}
