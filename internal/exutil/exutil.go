// Package exutil bridges the internal graph types the generators and IO
// readers produce to the public dfpr edge form. It exists for the binaries
// and examples, which consume the library exclusively through the public
// Engine API but still build their inputs with internal substrates
// (gen, gio, batch).
package exutil

import (
	"os"
	"strings"

	"dfpr"
	"dfpr/internal/gio"
	"dfpr/internal/graph"
)

// Flatten lists a dynamic graph's edges in the public form, returning the
// vertex count alongside them — the pair dfpr.New takes.
func Flatten(d *graph.Dynamic) (int, []dfpr.Edge) {
	edges := make([]dfpr.Edge, 0, d.M())
	for u := uint32(0); int(u) < d.N(); u++ {
		for _, v := range d.Out(u) {
			edges = append(edges, dfpr.Edge{U: u, V: v})
		}
	}
	return d.N(), edges
}

// Convert maps internal edges (e.g. one side of a batch.Update) to the
// public form.
func Convert(edges []graph.Edge) []dfpr.Edge {
	out := make([]dfpr.Edge, len(edges))
	for i, e := range edges {
		out[i] = dfpr.Edge{U: e.U, V: e.V}
	}
	return out
}

// LInf returns the L∞ distance between the rank vectors of two views,
// iterating both in place — no copies. It panics on vertex-count mismatch,
// which is always an example bug. The examples use it to pin an
// incremental engine against a reference engine without leaving the
// view-based read path.
func LInf(a, b *dfpr.View) float64 {
	if a.N() != b.N() {
		panic("exutil: LInf between views of different vertex counts")
	}
	var m float64
	for u, s := range a.Scores() {
		t, _ := b.ScoreOf(u)
		if d := s - t; d > m {
			m = d
		} else if -d > m {
			m = -d
		}
	}
	return m
}

// LoadGraph reads a graph file — MatrixMarket when the name ends in .mtx,
// a SNAP-style edge list otherwise — and flattens it to the pair dfpr.New
// takes. Shared by the binaries (prrank, prserve).
func LoadGraph(path string) (int, []dfpr.Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	var d *graph.Dynamic
	if strings.HasSuffix(path, ".mtx") {
		d, err = gio.ReadMatrixMarket(f)
	} else {
		d, err = gio.ReadEdgeList(f)
	}
	if err != nil {
		return 0, nil, err
	}
	n, edges := Flatten(d)
	return n, edges, nil
}

// GraphSource describes a loaded graph input: the pair dfpr.New takes plus
// where it came from, so binaries can log and export layout-aware metrics.
type GraphSource struct {
	N     int
	Edges []dfpr.Edge
	// Layout is "text" (edge list / MatrixMarket) or "csr" (binary CSR
	// container, prgen -csr).
	Layout    string
	FileBytes int64 // on-disk size of the input file
}

// LoadGraphSource loads a graph in any supported on-disk format. Binary CSR
// containers (recognised by the DFPRCSR1 magic, regardless of file name)
// are memory-mapped and decoded zero-parse; everything else goes through
// the text readers. The returned edges are detached from any mapping — the
// caller owns them outright.
func LoadGraphSource(path string) (*GraphSource, error) {
	isContainer, size, err := sniffContainer(path)
	if err != nil {
		return nil, err
	}
	if !isContainer {
		n, edges, err := LoadGraph(path)
		if err != nil {
			return nil, err
		}
		return &GraphSource{N: n, Edges: edges, Layout: "text", FileBytes: size}, nil
	}
	m, err := gio.LoadCSRMapped(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	g := m.CSR()
	src := &GraphSource{N: g.N(), Layout: "csr", FileBytes: int64(m.FileBytes())}
	src.Edges = make([]dfpr.Edge, 0, g.M())
	for u := uint32(0); int(u) < g.N(); u++ {
		for _, v := range g.Out(u) {
			src.Edges = append(src.Edges, dfpr.Edge{U: u, V: v})
		}
	}
	return src, nil
}

// sniffContainer reports whether the file leads with the binary CSR
// container magic, plus its size.
func sniffContainer(path string) (bool, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false, 0, err
	}
	var hdr [8]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return false, st.Size(), nil // too short to be a container: treat as text
	}
	return graph.IsContainer(hdr[:]), st.Size(), nil
}

// LoadKeyEdges reads a keyed edge list (gio.ScanKeyedEdges format:
// whitespace-free string keys, one "fromKey toKey" pair per line, '#'/'%'
// comments) into the public KeyEdge form, leaving the interning to the
// engine the edges are submitted to — the key space belongs to the engine,
// not the loader. Shared by the binaries' -keyed modes.
func LoadKeyEdges(path string) ([]dfpr.KeyEdge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []dfpr.KeyEdge
	err = gio.ScanKeyedEdges(f, func(from, to string) error {
		out = append(out, dfpr.KeyEdge{From: from, To: to})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// KeyEdges maps dense edges to the keyed form under a naming function —
// how the binaries synthesise a keyed workload from a generated graph.
func KeyEdges(edges []dfpr.Edge, name func(uint32) string) []dfpr.KeyEdge {
	out := make([]dfpr.KeyEdge, len(edges))
	for i, e := range edges {
		out[i] = dfpr.KeyEdge{From: name(e.U), To: name(e.V)}
	}
	return out
}
