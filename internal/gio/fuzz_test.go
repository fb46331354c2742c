package gio

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dfpr/internal/graph"
	"dfpr/internal/keymap"
)

// FuzzScanKeyedEdges: any byte string is either rejected or scans to key
// pairs that, written back one "from to" line each, scan to the same pairs
// — never a panic, and a line longer than the 1 MiB scanner buffer is an
// error rather than a growing allocation.
func FuzzScanKeyedEdges(f *testing.F) {
	km := keymap.New()
	for _, k := range []string{"alice", "bob", "βγδ"} {
		km.Intern(k)
	}
	d := graph.NewDynamic(4) // id 3 has no key: written as "~3"
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {3, 0}} {
		d.AddEdge(e[0], e[1])
	}
	var buf bytes.Buffer
	if err := WriteKeyedEdgeList(&buf, d, km); err != nil {
		f.Fatal(err)
	}
	seed := append([]byte("# follows\n"), buf.Bytes()...)
	flipped := bytes.Clone(seed)
	flipped[len(seed)-7] ^= 0x20 // the last line's separator: one field left
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(flipped)
	scan := func(b []byte) (pairs [][2]string, err error) {
		err = ScanKeyedEdges(bytes.NewReader(b), func(from, to string) error {
			pairs = append(pairs, [2]string{from, to})
			return nil
		})
		return pairs, err
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		pairs, err := scan(b)
		if err != nil {
			return
		}
		var out strings.Builder
		for _, p := range pairs {
			fmt.Fprintf(&out, "%s %s\n", p[0], p[1])
		}
		if back, err := scan([]byte(out.String())); err != nil || !slices.Equal(back, pairs) {
			t.Fatalf("%d scanned pairs re-scan as %d (err=%v)", len(pairs), len(back), err)
		}
	})
}
