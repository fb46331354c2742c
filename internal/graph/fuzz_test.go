package graph_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"dfpr/internal/graph"
)

// containerHeader is the DFPRCSR1 header length; the offset arrays follow.
const containerHeader = 64

// editInRows returns a copy of container b with edit applied to every
// in-row, read straight from the bytes. b must be well-formed.
func editInRows(b []byte, edit func(v uint32, row []uint32)) []byte {
	le := binary.LittleEndian
	out := bytes.Clone(b)
	n := int(le.Uint64(b[16:]))
	ptr := out[containerHeader+8*(n+1):]
	blob := out[containerHeader+16*(n+1)+int(le.Uint64(b[40:])):]
	for v := 0; v < n; v++ {
		lo, hi := int(le.Uint64(ptr[8*v:])), int(le.Uint64(ptr[8*v+8:]))
		row := make([]uint32, hi-lo)
		for i := range row {
			row[i] = le.Uint32(blob[4*(lo+i):])
		}
		edit(uint32(v), row)
		for i, u := range row {
			le.PutUint32(blob[4*(lo+i):], u)
		}
	}
	return out
}

// FuzzDecodeContainer: any byte string either fails to decode or yields a
// graph that validates and re-encodes to the same payload — or, for a
// container in the old ascending in-row layout, to that payload with each
// self-loop moved to the front of its in-row, which then round-trips byte
// for byte. Never a panic, never an array sized by a header field the input
// does not back. Both decode modes run: the copying one (checkpoints) and
// the aliasing one (mmap'd graph files), and neither writes the input.
func FuzzDecodeContainer(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	edges := make([]graph.Edge, 14)
	for i := range edges {
		edges[i] = graph.Edge{U: uint32(rng.Intn(6)), V: uint32(rng.Intn(6))}
	}
	seed := graph.FromEdges(6, edges).AppendContainer(nil)
	flipped := bytes.Clone(seed)
	flipped[containerHeader+8] ^= 0x10 // outPtr[1]
	// The in-row layout of containers written before in-rows led with their
	// self-loop.
	old := editInRows(seed, func(_ uint32, row []uint32) { slices.Sort(row) })
	if bytes.Equal(old, seed) {
		f.Fatal("old-layout seed has no self-loop past the front of its in-row")
	}
	for _, alias := range []bool{false, true} {
		f.Add(seed, alias)
		f.Add(seed[:len(seed)/2], alias)
		f.Add(flipped, alias)
		f.Add(old, alias)
	}
	f.Fuzz(func(t *testing.T, b []byte, alias bool) {
		in := bytes.Clone(b)
		g, err := graph.DecodeContainer(b, alias)
		if !bytes.Equal(b, in) {
			t.Fatal("DecodeContainer wrote its input")
		}
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded container does not validate: %v", err)
		}
		// The header's reserved word is not the graph's; everything after is.
		out := g.AppendContainer(nil)
		if len(out) != len(b) {
			t.Fatalf("decoded container re-encodes to %d bytes (input %d bytes)", len(out), len(b))
		}
		if bytes.Equal(out[containerHeader:], b[containerHeader:]) {
			return
		}
		relaid := editInRows(b, func(v uint32, row []uint32) {
			if i := slices.Index(row, v); i > 0 {
				copy(row[1:i+1], row[:i])
				row[0] = v
			}
		})
		if !bytes.Equal(out[containerHeader:], relaid[containerHeader:]) {
			t.Fatal("decoded container re-encodes to a payload that is neither the input nor its self-first relayout")
		}
		g2, err := graph.DecodeContainer(out, alias)
		if err != nil {
			t.Fatalf("relaid container does not decode: %v", err)
		}
		if !bytes.Equal(g2.AppendContainer(nil), out) {
			t.Fatal("relaid container does not round-trip byte for byte")
		}
	})
}
