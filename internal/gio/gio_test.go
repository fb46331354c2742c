package gio

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dfpr/internal/gen"
	"dfpr/internal/graph"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	d := gen.RMAT(6, 4, 1)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Snapshot().Edges(nil), back.Snapshot().Edges(nil)) {
		t.Error("MatrixMarket round trip changed the edge set")
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% a comment
3 3 2
2 1
3 2
`
	d, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}, {U: 2, V: 1}}
	if got := d.Snapshot().Edges(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("edges = %v, want %v", got, want)
	}
}

func TestMatrixMarketWithValues(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 2
1 2 3.5
2 1 -1.0
`
	d, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != 2 || !d.HasEdge(0, 1) || !d.HasEdge(1, 0) {
		t.Errorf("numeric mtx parsed wrong: m=%d", d.M())
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"not mm":      "hello world\n1 1 1\n",
		"array fmt":   "%%MatrixMarket matrix array real general\n2 2\n1.0\n",
		"bad size":    "%%MatrixMarket matrix coordinate pattern general\nfoo bar baz\n",
		"short":       "%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 2\n",
		"zero index":  "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
		"over index":  "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
		"junk entry":  "%%MatrixMarket matrix coordinate pattern general\n2 2 1\nx y\n",
		"bare header": "%%MatrixMarket matrix\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	d := gen.RMAT(6, 4, 2)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex counts may differ (trailing isolated vertices are not
	// representable in an edge list) but the edge sets must match.
	if !reflect.DeepEqual(d.Snapshot().Edges(nil), back.Snapshot().Edges(nil)) {
		t.Error("edge list round trip changed the edge set")
	}
}

func TestEdgeListCommentsAndErrors(t *testing.T) {
	d, err := ReadEdgeList(strings.NewReader("# comment\n% also comment\n0 1\n\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != 2 || d.N() != 3 {
		t.Errorf("n=%d m=%d", d.N(), d.M())
	}
	for _, bad := range []string{"0\n", "a b\n", "-1 2\n"} {
		if _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	del := []graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}}
	ins := []graph.Edge{{U: 5, V: 6}}
	d2, i2, err := ReadBatch(strings.NewReader("# prgen -batch\n- 1 2\n+ 5 6\n\n- 3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(del, d2) || !reflect.DeepEqual(ins, i2) {
		t.Errorf("batch round trip: del=%v ins=%v", d2, i2)
	}
}

func TestBatchErrors(t *testing.T) {
	for _, bad := range []string{"* 1 2\n", "+ 1\n", "+ a b\n"} {
		if _, _, err := ReadBatch(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestReadersMatchAddEdgeReference feeds both text readers unsorted edges
// with duplicates and self-loops and checks the graph against one built
// with Dynamic.AddEdge from the same pairs.
func TestReadersMatchAddEdgeReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		var el, mm strings.Builder
		pairs := 3 * n
		fmt.Fprintf(&mm, "%%%%MatrixMarket matrix coordinate pattern symmetric\n%d %d %d\n", n, n, pairs)
		ref, sym := graph.NewDynamic(n), graph.NewDynamic(n)
		for range pairs {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if rng.Intn(8) == 0 {
				v = u
			}
			fmt.Fprintf(&el, "%d %d\n", u, v)
			fmt.Fprintf(&mm, "%d %d\n", u+1, v+1)
			ref.AddEdge(u, v)
			sym.AddEdge(u, v)
			sym.AddEdge(v, u)
		}
		fmt.Fprintf(&el, "%d %d\n", n-1, n-1) // pins the vertex count at n
		ref.AddEdge(uint32(n-1), uint32(n-1))

		d, err := ReadEdgeList(strings.NewReader(el.String()))
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "edge list", d, ref)
		if d, err = ReadMatrixMarket(strings.NewReader(mm.String())); err != nil {
			t.Fatal(err)
		}
		sameRows(t, "symmetric MatrixMarket", d, sym)
	}
}

func sameRows(t *testing.T, name string, got, want *graph.Dynamic) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: n=%d m=%d, reference n=%d m=%d", name, got.N(), got.M(), want.N(), want.M())
	}
	for u := uint32(0); int(u) < want.N(); u++ {
		if !slices.Equal(got.Out(u), want.Out(u)) {
			t.Fatalf("%s: row %d = %v, reference %v", name, u, got.Out(u), want.Out(u))
		}
	}
}
