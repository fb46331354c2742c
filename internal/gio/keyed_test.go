package gio

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"dfpr/internal/keymap"
)

// TestReadEdgeListSparseIDCap: a single sparse id must fail fast with a
// helpful error instead of attempting a multi-GB allocation.
func TestReadEdgeListSparseIDCap(t *testing.T) {
	_, err := ReadEdgeList(strings.NewReader("0 1\n4000000000 1\n"))
	if err == nil {
		t.Fatal("sparse id accepted")
	}
	if !strings.Contains(err.Error(), "ReadKeyedEdgeList") {
		t.Errorf("cap error does not point at the keyed loader: %v", err)
	}
	// The cap is exclusive: an id equal to it fails as well, and ids below
	// it size the graph by max id + 1.
	if _, err := ReadEdgeList(strings.NewReader("0 " + strconv.Itoa(DefaultMaxVertices) + "\n")); err == nil {
		t.Error("id at the cap accepted")
	}
	d, err := ReadEdgeList(strings.NewReader("0 9\n"))
	if err != nil || d.N() != 10 {
		t.Fatalf("in-cap read: %v (N=%v)", err, d)
	}
}

func TestMatrixMarketDimensionCap(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern general\n4000000000 4000000000 1\n1 2\n"
	if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
		t.Fatal("oversized MatrixMarket dimension accepted")
	}
}

// TestKeyedEdgeListRoundTrip: string keys intern densely in first-mention
// order, survive a write/read cycle, and comments are skipped.
func TestKeyedEdgeListRoundTrip(t *testing.T) {
	in := "# interactions\nalice bob\nbob carol\n% more\nalice carol\n"
	km := keymap.New()
	edges, err := ReadKeyedEdgeList(strings.NewReader(in), km)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 || km.Len() != 3 {
		t.Fatalf("edges %v, keys %d", edges, km.Len())
	}
	if id, _ := km.Resolve("alice"); id != 0 {
		t.Errorf("alice id %d, want 0 (first mention)", id)
	}
	if edges[1].U != 1 || edges[1].V != 2 {
		t.Errorf("bob→carol = %v", edges[1])
	}

	// Write back through a dynamic graph and re-read into a fresh interner.
	d, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n0 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteKeyedEdgeList(&buf, d, km); err != nil {
		t.Fatal(err)
	}
	km2 := keymap.New()
	edges2, err := ReadKeyedEdgeList(&buf, km2)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges2) != 3 || km2.Len() != 3 {
		t.Fatalf("round-trip: edges %v, keys %d", edges2, km2.Len())
	}
	if k, _ := km2.KeyOf(0); k != "alice" {
		t.Errorf("round-trip lost key order: id 0 = %q", k)
	}
}

// TestKeyedEdgeListBad: malformed lines error rather than silently skipping.
func TestKeyedEdgeListBad(t *testing.T) {
	if _, err := ReadKeyedEdgeList(strings.NewReader("solo\n"), keymap.New()); err == nil {
		t.Fatal("one-field line accepted")
	}
}
