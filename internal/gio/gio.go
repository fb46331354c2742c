// Package gio reads and writes the on-disk graph formats the paper's
// datasets ship in, so the tools can consume real SuiteSparse / SNAP files
// when they are available in addition to the built-in synthetic stand-ins:
//
//   - MatrixMarket coordinate format (.mtx) — SuiteSparse's native format.
//     `pattern` matrices read each nonzero as an edge; `general` numeric
//     matrices ignore the value column; `symmetric` matrices emit both
//     directions, matching the paper's treatment of undirected graphs.
//   - Plain edge lists — SNAP's format: one "u v" pair per line, `#`
//     comments. Vertex ids are used as-is (0-based); 1-based files work
//     too, at the cost of one unused vertex 0.
//   - Temporal edge lists — "u v t" triples, as in the SNAP temporal
//     datasets (wiki-talk-temporal, sx-stackoverflow).
package gio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dfpr/internal/graph"
	"dfpr/internal/keymap"
)

// ReadMatrixMarket parses a MatrixMarket coordinate stream into a dynamic
// graph. Only sparse ("coordinate") matrices are supported; array format is
// rejected. Entries are 1-based per the format and converted to 0-based
// vertex ids. The declared dimension is capped at DefaultMaxVertices, so a
// bogus size line fails fast instead of demanding a graph-sized allocation.
func ReadMatrixMarket(r io.Reader) (*graph.Dynamic, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("gio: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("gio: not a MatrixMarket header: %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("gio: unsupported MatrixMarket format %q (want coordinate)", header[2])
	}
	symmetric := false
	for _, q := range header[3:] {
		switch q {
		case "symmetric", "skew-symmetric", "hermitian":
			symmetric = true
		}
	}

	// Skip comments, find the size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscanf(line, "%d %d %d", &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("gio: bad size line %q: %v", line, err)
		}
		break
	}
	n := rows
	if cols > n {
		n = cols
	}
	if n > DefaultMaxVertices {
		return nil, fmt.Errorf("gio: MatrixMarket declares %d vertices, beyond the cap of %d (gio.DefaultMaxVertices)", n, DefaultMaxVertices)
	}
	var edges []graph.Edge
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("gio: bad entry line %q", line)
		}
		u, err1 := strconv.Atoi(f[0])
		v, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || u < 1 || v < 1 || u > n || v > n {
			return nil, fmt.Errorf("gio: bad entry %q (1-based indices in [1,%d])", line, n)
		}
		read++
		edges = append(edges, graph.Edge{U: uint32(u - 1), V: uint32(v - 1)})
		if symmetric && u != v {
			edges = append(edges, graph.Edge{U: uint32(v - 1), V: uint32(u - 1)})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read < nnz {
		return nil, fmt.Errorf("gio: expected %d entries, found %d", nnz, read)
	}
	return graph.DynamicFromCSR(graph.FromEdges(n, edges)), nil
}

// WriteMatrixMarket writes the graph as a general pattern coordinate matrix.
func WriteMatrixMarket(w io.Writer, d *graph.Dynamic) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate pattern general")
	fmt.Fprintf(bw, "%d %d %d\n", d.N(), d.N(), d.M())
	for u := uint32(0); int(u) < d.N(); u++ {
		for _, v := range d.Out(u) {
			fmt.Fprintf(bw, "%d %d\n", u+1, v+1)
		}
	}
	return bw.Flush()
}

// DefaultMaxVertices caps how many vertices the dense readers will size a
// graph to (max id + 1 for edge lists, the declared dimension for
// MatrixMarket). The cap exists because the dense formats treat ids as
// array indices: a single stray sparse id like "4000000000 1" would demand
// a multi-gigabyte allocation before a single edge lands. Files with
// sparse or non-numeric ids belong to ReadKeyedEdgeList, which interns ids
// as strings and sizes the graph by distinct keys instead.
//
// The value deliberately matches the engine-side dfpr.DefaultMaxVertices
// (the WithMaxVertices default) — the same invariant guarded at the two
// entry points dense ids come in through; raise both together. They are
// separate constants only because the import direction (this internal
// package cannot be imported by the root for its constant, nor vice versa
// without widening the root's dependencies) keeps them apart.
const DefaultMaxVertices = 1 << 27

// ReadEdgeList parses a SNAP-style edge list ("u v" per line, '#' or '%'
// comments). The vertex count is max id + 1, capped at DefaultMaxVertices:
// ids at or above the cap fail fast — before any graph-sized allocation
// happens — with an error pointing at ReadKeyedEdgeList, the loader for
// files whose ids are sparse.
func ReadEdgeList(r io.Reader) (*graph.Dynamic, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []graph.Edge
	maxID := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("gio: bad edge line %q", line)
		}
		u, err1 := strconv.Atoi(f[0])
		v, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, fmt.Errorf("gio: bad edge line %q", line)
		}
		if u >= DefaultMaxVertices || v >= DefaultMaxVertices {
			return nil, fmt.Errorf(
				"gio: edge %q names vertex id beyond the cap of %d: dense ids index arrays, so a sparse id would allocate the whole range — load sparse/string ids with ReadKeyedEdgeList",
				line, DefaultMaxVertices)
		}
		edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return graph.DynamicFromCSR(graph.FromEdges(maxID+1, edges)), nil
}

// ScanKeyedEdges parses an edge list whose endpoints are arbitrary
// whitespace-free string keys ("alice bob" per line, '#'/'%' comments),
// calling fn for each pair in file order. It is the single definition of
// the keyed edge-list format, shared by ReadKeyedEdgeList and the tools'
// loaders (exutil.LoadKeyEdges) so the format cannot drift between them.
func ScanKeyedEdges(r io.Reader, fn func(from, to string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return fmt.Errorf("gio: bad keyed edge line %q (want 'fromKey toKey')", line)
		}
		if err := fn(f[0], f[1]); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ReadKeyedEdgeList reads the keyed edge-list format (see ScanKeyedEdges),
// interning each key into km (dense first-mention ids) and returning the
// dense edges. The graph this sizes grows with distinct keys, never with id
// magnitude — the loader for real-world files whose ids are sparse, hashed,
// or not numbers at all. Passing the engine's own interner (or replaying
// the edges through dfpr.SubmitKeyed) keeps file keys and live submissions
// in one key space.
func ReadKeyedEdgeList(r io.Reader, km *keymap.Map) ([]graph.Edge, error) {
	var edges []graph.Edge
	err := ScanKeyedEdges(r, func(from, to string) error {
		edges = append(edges, graph.Edge{U: km.Intern(from), V: km.Intern(to)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	km.Sync() // every loaded key resolves lock-free from here on
	return edges, nil
}

// WriteKeyedEdgeList writes one "fromKey toKey" pair per line, resolving
// ids through km. Ids without a key are written as "~<id>" — a stable
// round-trippable spelling (it re-interns as that literal key) for vertices
// that were only ever named densely.
func WriteKeyedEdgeList(w io.Writer, d *graph.Dynamic, km *keymap.Map) error {
	bw := bufio.NewWriter(w)
	name := func(id uint32) string {
		if k, ok := km.KeyOf(id); ok {
			return k
		}
		return fmt.Sprintf("~%d", id)
	}
	for u := uint32(0); int(u) < d.N(); u++ {
		for _, v := range d.Out(u) {
			fmt.Fprintf(bw, "%s %s\n", name(u), name(v))
		}
	}
	return bw.Flush()
}

// WriteEdgeList writes one "u v" pair per line.
func WriteEdgeList(w io.Writer, d *graph.Dynamic) error {
	bw := bufio.NewWriter(w)
	for u := uint32(0); int(u) < d.N(); u++ {
		for _, v := range d.Out(u) {
			fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	}
	return bw.Flush()
}

// ReadBatch parses a batch-update file: "+ u v" inserts, "- u v" deletes.
func ReadBatch(r io.Reader) (del, ins []graph.Edge, err error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, nil, fmt.Errorf("gio: bad batch line %q (want '+|- u v')", line)
		}
		u, err1 := strconv.Atoi(f[1])
		v, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, nil, fmt.Errorf("gio: bad batch line %q", line)
		}
		e := graph.Edge{U: uint32(u), V: uint32(v)}
		switch f[0] {
		case "+":
			ins = append(ins, e)
		case "-":
			del = append(del, e)
		default:
			return nil, nil, fmt.Errorf("gio: bad batch op %q", f[0])
		}
	}
	return del, ins, sc.Err()
}
