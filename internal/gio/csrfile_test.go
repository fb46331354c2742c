package gio

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfpr/internal/graph"
)

func testGraph(t *testing.T, n, m int, seed int64) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := graph.NewDynamic(n)
	for i := 0; i < m; i++ {
		d.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	d.EnsureSelfLoops()
	return d.Snapshot()
}

func graphsEqual(a, b *graph.CSR) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := uint32(0); int(v) < a.N(); v++ {
		ao, bo := a.Out(v), b.Out(v)
		if len(ao) != len(bo) {
			return false
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
	}
	return true
}

func TestCSRFileRoundTrip(t *testing.T) {
	g := testGraph(t, 500, 3000, 1)
	t.Run("plain", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "g.csr")
		if err := WriteCSRFile(path, g); err != nil {
			t.Fatal(err)
		}
		m, err := LoadCSRMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if !graphsEqual(g, m.CSR()) {
			t.Fatal("mapped graph differs from written snapshot")
		}
		if m.FileBytes() <= 0 {
			t.Error("FileBytes not positive")
		}
	})
}

// TestMappedMatchesParsedText is the load-path equivalence bar: the same
// graph written as a text edge list and as a binary container must load to
// identical snapshots.
func TestMappedMatchesParsedText(t *testing.T) {
	g := testGraph(t, 300, 2000, 2)
	dir := t.TempDir()

	var sb strings.Builder
	edges := g.Edges(nil)
	for _, e := range edges {
		fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
	}
	parsed, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	// The edge list loses trailing isolated vertices; align sizes.
	parsedG := graph.FromEdges(g.N(), parsed.Snapshot().Edges(nil))

	path := filepath.Join(dir, "g.csr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := LoadCSRMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !graphsEqual(parsedG, m.CSR()) {
		t.Error("mapped snapshot differs from text-parsed snapshot")
	}
}

func TestLoadCSRMappedRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.csr")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCSRMapped(path); err == nil {
		t.Error("LoadCSRMapped accepted a text edge list")
	}
	if _, err := LoadCSRMapped(filepath.Join(dir, "missing.csr")); err == nil {
		t.Error("LoadCSRMapped accepted a missing file")
	}
	// A container from an older prgen -compress (flag bit 0 set) is refused
	// with the way out, not decoded as garbage.
	old := testGraph(t, 50, 200, 3).AppendContainer(nil)
	old[12] |= 1
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCSRMapped(path); err == nil || !strings.Contains(err.Error(), "regenerate with `prgen -csr`") {
		t.Errorf("compressed-flag container: err = %v, want the regenerate message", err)
	}
}

func TestMappedCSRCloseIsIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := WriteCSRFile(path, testGraph(t, 50, 200, 4)); err != nil {
		t.Fatal(err)
	}
	m, err := LoadCSRMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
}
