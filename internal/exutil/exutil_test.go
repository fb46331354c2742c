package exutil

import (
	"os"
	"path/filepath"
	"testing"

	"dfpr/internal/gio"
	"dfpr/internal/graph"
)

// TestLoadGraphSourceAllLayouts pins that the same graph loads identically
// from a text edge list and a CSR container, and that the source metadata
// identifies each layout.
func TestLoadGraphSourceAllLayouts(t *testing.T) {
	dir := t.TempDir()
	d := graph.NewDynamic(6)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {4, 4}, {5, 0}} {
		d.AddEdge(e[0], e[1])
	}
	d.EnsureSelfLoops()
	g := d.Snapshot()

	text := filepath.Join(dir, "g.el")
	var lines []byte
	for u := uint32(0); int(u) < g.N(); u++ {
		for _, v := range g.Out(u) {
			lines = append(lines, []byte(itoa(u)+" "+itoa(v)+"\n")...)
		}
	}
	if err := os.WriteFile(text, lines, 0o644); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "g.csr")
	if err := gio.WriteCSRFile(plain, g); err != nil {
		t.Fatal(err)
	}

	want, err := LoadGraphSource(text)
	if err != nil {
		t.Fatal(err)
	}
	if want.Layout != "text" || want.FileBytes != int64(len(lines)) {
		t.Fatalf("text source: %+v", want)
	}
	src, err := LoadGraphSource(plain)
	if err != nil {
		t.Fatal(err)
	}
	if src.Layout != "csr" {
		t.Errorf("layout %q, want csr", src.Layout)
	}
	if src.N != g.N() || len(src.Edges) != g.M() {
		t.Errorf("%d vertices %d edges, want %d/%d", src.N, len(src.Edges), g.N(), g.M())
	}
	if src.FileBytes <= 0 {
		t.Errorf("file size not recorded: %+v", src)
	}
	for i, e := range src.Edges {
		w := want.Edges[i]
		if e.U != w.U || e.V != w.V {
			t.Fatalf("edge %d = %v, text loader got %v", i, e, w)
		}
	}
}

func itoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b [10]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
