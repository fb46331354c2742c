// Package gen provides seeded synthetic graph generators standing in for
// the paper's datasets (§5.1.3, Tables 1–2). The real collections
// (SuiteSparse, SNAP) are not redistributable inside this offline
// reproduction, so each *class* of graph the paper evaluates has a generator
// reproducing its structural character at configurable scale:
//
//   - Web graphs (indochina-2004 … sk-2005): RMAT/Kronecker-style recursive
//     quadrant sampling — heavy-tailed in/out degrees, community structure,
//     average degree ≈ 9–39.
//   - Social networks (com-LiveJournal, com-Orkut): preferential attachment
//     with undirected (symmetric) edges and high average degree.
//   - Road networks (asia_osm, europe_osm): 2-D lattice with random
//     diagonal shortcuts — near-planar, symmetric, average degree ≈ 3.
//   - Protein k-mer graphs (kmer_A2a, kmer_V1r): long low-degree chains
//     with sparse branching, average degree ≈ 3.
//   - Temporal networks (wiki-talk-temporal, sx-stackoverflow): timestamped
//     insertion streams with duplicate edges and power-law actor activity.
//
// All generators are deterministic under a fixed seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"dfpr/internal/graph"
)

// Class labels the structural families from the paper's dataset tables.
type Class int

// Graph classes per Table 2 plus the temporal class of Table 1.
const (
	Web Class = iota
	Social
	Road
	KMer
	Temporal
)

// String returns the class name as used in the paper's tables.
func (c Class) String() string {
	switch c {
	case Web:
		return "web"
	case Social:
		return "social"
	case Road:
		return "road"
	case KMer:
		return "kmer"
	case Temporal:
		return "temporal"
	default:
		return "unknown"
	}
}

// RMAT generates a directed RMAT graph with n = 2^scale vertices and
// roughly edgeFactor·n edges (before deduplication), using the classic
// (a,b,c,d) = (0.57, 0.19, 0.19, 0.05) quadrant probabilities that yield
// web-graph-like skew. Like RoadGrid and KMerChain it draws its edge list
// first and builds the graph with one counting sort (graph.FromEdges drops
// the duplicates), never a sorted insert per edge.
//
// Each level draws one uniform r and picks the quadrant by comparing it
// with the cumulative thresholds a, a+b and a+b+c (constant expressions, so
// they round once, at compile time). The quadrant's two bits come from
// those comparisons rather than a four-way branch, which the CPU would
// mispredict at almost every level: u's bit is r ≥ a+b (quadrants c and
// d), and v's bit is the parity of the three comparisons (quadrants b and
// d).
func RMAT(scale, edgeFactor int, seed int64) *graph.Dynamic {
	n := 1 << uint(scale)
	rng := rand.New(rand.NewSource(seed))
	const a, b, c = 0.57, 0.19, 0.19
	m := edgeFactor * n
	edges := make([]graph.Edge, 0, m)
	for range m {
		var u, v uint32
		for level := scale - 1; level >= 0; level-- {
			r := rng.Float64()
			ab := bit(r >= a+b)
			u |= ab << level
			v |= (bit(r >= a) ^ ab ^ bit(r >= a+b+c)) << level
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.DynamicFromCSR(graph.FromEdges(n, edges))
}

// bit is 1 if x holds and 0 otherwise; the compiler lowers it to a flag
// set, not a branch.
func bit(x bool) uint32 {
	if x {
		return 1
	}
	return 0
}

// both appends the edge u–v in both directions.
func both(edges []graph.Edge, u, v uint32) []graph.Edge {
	return append(edges, graph.Edge{U: u, V: v}, graph.Edge{U: v, V: u})
}

// PreferentialAttachment generates a social-network-like graph: vertices
// arrive one at a time and connect with deg undirected edges to existing
// vertices chosen proportionally to current degree (Barabási–Albert). Both
// edge directions are added, matching the paper's treatment of undirected
// inputs (§5.1.3). It inserts edge by edge, because whether a draw added a
// new edge decides the later draws.
func PreferentialAttachment(n, deg int, seed int64) *graph.Dynamic {
	if deg < 1 {
		deg = 1
	}
	rng := rand.New(rand.NewSource(seed))
	d := graph.NewDynamic(n)
	// targets holds one entry per edge endpoint, so uniform sampling from it
	// is degree-proportional sampling.
	targets := make([]uint32, 0, 2*n*deg)
	seedN := deg + 1
	if seedN > n {
		seedN = n
	}
	for u := 0; u < seedN; u++ {
		for v := 0; v < u; v++ {
			d.AddEdge(uint32(u), uint32(v))
			d.AddEdge(uint32(v), uint32(u))
			targets = append(targets, uint32(u), uint32(v))
		}
	}
	for u := seedN; u < n; u++ {
		for k := 0; k < deg; k++ {
			var v uint32
			if len(targets) == 0 {
				v = uint32(rng.Intn(u))
			} else {
				v = targets[rng.Intn(len(targets))]
			}
			if v == uint32(u) {
				continue
			}
			if d.AddEdge(uint32(u), v) {
				d.AddEdge(v, uint32(u))
				targets = append(targets, uint32(u), v)
			}
		}
	}
	return d
}

// RoadGrid generates a road-network-like graph: a rows×cols 2-D lattice
// with symmetric edges between orthogonal neighbours plus a sprinkle of
// random shortcut edges (fraction `shortcut` of vertices get one), giving
// the ~3.1 average degree and huge diameter of the OSM graphs.
func RoadGrid(rows, cols int, shortcut float64, seed int64) *graph.Dynamic {
	n := rows * cols
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, 4*n)
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = both(edges, id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				edges = both(edges, id(r, c), id(r+1, c))
			}
		}
	}
	for i := 0; i < int(shortcut*float64(n)); i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u != v {
			edges = both(edges, u, v)
		}
	}
	return graph.DynamicFromCSR(graph.FromEdges(n, edges))
}

// KMerChain generates a protein-k-mer-like graph: many long symmetric
// chains (paths) whose ends occasionally branch or join, yielding average
// degree ≈ 3 and enormous effective diameter like the GenBank graphs.
func KMerChain(n int, branchEvery int, seed int64) *graph.Dynamic {
	if branchEvery < 2 {
		branchEvery = 2
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, 2*n+2*n/branchEvery)
	for v := 0; v+1 < n; v++ {
		edges = both(edges, uint32(v), uint32(v+1))
		if v%branchEvery == 0 && v > 0 {
			w := uint32(rng.Intn(n))
			if w != uint32(v) {
				edges = both(edges, uint32(v), w)
			}
		}
	}
	return graph.DynamicFromCSR(graph.FromEdges(n, edges))
}

// TemporalEdge is one event of a temporal network: a directed edge with a
// timestamp. Duplicate (U,V) pairs occur, as in the SNAP temporal datasets
// (|Eᵀ| counts duplicates, |E| does not).
type TemporalEdge struct {
	E  graph.Edge
	At int64
}

// TemporalStream generates a timestamped interaction stream with n actors
// and events total events. Sources are drawn from a Zipf-like activity
// distribution (a few hyper-active actors, a long tail) and targets mix
// repeat interactions with fresh uniform picks — reproducing the
// duplicate-heavy, skewed structure of wiki-talk-temporal and
// sx-stackoverflow.
func TemporalStream(n, events int, seed int64) []TemporalEdge {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	out := make([]TemporalEdge, 0, events)
	recent := make([]graph.Edge, 0, 1024)
	for t := 0; t < events; t++ {
		var e graph.Edge
		if len(recent) > 0 && rng.Float64() < 0.3 {
			// Repeat interaction: re-emit a recent edge (creates the
			// |Eᵀ| ≫ |E| duplicate ratio of Table 1).
			e = recent[rng.Intn(len(recent))]
		} else {
			u := uint32(zipf.Uint64())
			v := uint32(rng.Intn(n))
			if u == v {
				v = (v + 1) % uint32(n)
			}
			e = graph.Edge{U: u, V: v}
		}
		out = append(out, TemporalEdge{E: e, At: int64(t)})
		if len(recent) < cap(recent) {
			recent = append(recent, e)
		} else {
			recent[rng.Intn(len(recent))] = e
		}
	}
	return out
}

// Spec names one synthetic dataset: which paper graph it stands in for, the
// generator class, and its scale parameters.
type Spec struct {
	// Name is the paper's dataset name this spec substitutes for.
	Name string
	// Class selects the generator family.
	Class Class
	// Scale knobs (interpretation depends on Class; see Build).
	N, Deg int
	Seed   int64
}

// Build materialises the spec as a dynamic graph with self-loops applied
// (dead-end elimination, §5.1.3).
func (s Spec) Build() *graph.Dynamic {
	var d *graph.Dynamic
	switch s.Class {
	case Web:
		scale := int(math.Ceil(math.Log2(float64(s.N))))
		d = RMAT(scale, s.Deg, s.Seed)
	case Social:
		d = PreferentialAttachment(s.N, s.Deg, s.Seed)
	case Road:
		side := int(math.Sqrt(float64(s.N)))
		if side < 2 {
			side = 2
		}
		d = RoadGrid(side, side, 0.05, s.Seed)
	case KMer:
		d = KMerChain(s.N, 16, s.Seed)
	default:
		panic(fmt.Sprintf("gen: class %v has no static builder", s.Class))
	}
	d.EnsureSelfLoops()
	return d
}

// SuiteSparse12 returns the 12 Table 2 stand-ins at a scale factor: scale=1
// targets roughly 2^15–2^17 vertices per graph (fast enough for tests and
// benches); larger factors multiply vertex counts. Relative proportions
// between the graphs follow the paper's table.
func SuiteSparse12(scale float64) []Spec {
	if scale <= 0 {
		scale = 1
	}
	sz := func(base int) int {
		n := int(float64(base) * scale)
		if n < 64 {
			n = 64
		}
		return n
	}
	return []Spec{
		{Name: "indochina-2004", Class: Web, N: sz(16 << 10), Deg: 27, Seed: 101},
		{Name: "arabic-2005", Class: Web, N: sz(24 << 10), Deg: 29, Seed: 102},
		{Name: "uk-2005", Class: Web, N: sz(32 << 10), Deg: 24, Seed: 103},
		{Name: "webbase-2001", Class: Web, N: sz(48 << 10), Deg: 9, Seed: 104},
		{Name: "it-2004", Class: Web, N: sz(32 << 10), Deg: 28, Seed: 105},
		{Name: "sk-2005", Class: Web, N: sz(40 << 10), Deg: 39, Seed: 106},
		{Name: "com-LiveJournal", Class: Social, N: sz(24 << 10), Deg: 9, Seed: 107},
		{Name: "com-Orkut", Class: Social, N: sz(16 << 10), Deg: 38, Seed: 108},
		{Name: "asia_osm", Class: Road, N: sz(32 << 10), Deg: 3, Seed: 109},
		{Name: "europe_osm", Class: Road, N: sz(48 << 10), Deg: 3, Seed: 110},
		{Name: "kmer_A2a", Class: KMer, N: sz(48 << 10), Deg: 3, Seed: 111},
		{Name: "kmer_V1r", Class: KMer, N: sz(56 << 10), Deg: 3, Seed: 112},
	}
}

// TemporalSpec names one Table 1 temporal stand-in.
type TemporalSpec struct {
	Name   string
	N      int
	Events int
	Seed   int64
}

// Temporal2 returns the two Table 1 stand-ins at a scale factor (scale=1 ≈
// 2^15–2^16 actors).
func Temporal2(scale float64) []TemporalSpec {
	if scale <= 0 {
		scale = 1
	}
	sz := func(base int) int {
		n := int(float64(base) * scale)
		if n < 64 {
			n = 64
		}
		return n
	}
	return []TemporalSpec{
		{Name: "wiki-talk-temporal", N: sz(16 << 10), Events: sz(110 << 10), Seed: 201},
		{Name: "sx-stackoverflow", N: sz(36 << 10), Events: sz(880 << 10), Seed: 202},
	}
}

// Build materialises the temporal spec as an event stream.
func (s TemporalSpec) Build() []TemporalEdge {
	return TemporalStream(s.N, s.Events, s.Seed)
}
