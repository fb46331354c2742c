package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecodeContainer: any byte string either fails to decode or yields a
// graph that validates and re-encodes to the same payload — never a panic,
// never an array sized by a header field the input does not back. Both
// decode modes run: the copying one (checkpoints) and the aliasing one
// (mmap'd graph files).
func FuzzDecodeContainer(f *testing.F) {
	seed := randomCSR(rand.New(rand.NewSource(7)), 6, 14).AppendContainer(nil)
	flipped := bytes.Clone(seed)
	flipped[containerHeader+8] ^= 0x10 // outPtr[1]
	for _, alias := range []bool{false, true} {
		f.Add(seed, alias)
		f.Add(seed[:len(seed)/2], alias)
		f.Add(flipped, alias)
	}
	f.Fuzz(func(t *testing.T, b []byte, alias bool) {
		g, err := DecodeContainer(b, alias)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded container does not validate: %v", err)
		}
		// The header's reserved word is not the graph's; everything after is.
		if out := g.AppendContainer(nil); len(out) != len(b) || !bytes.Equal(out[containerHeader:], b[containerHeader:]) {
			t.Fatalf("decoded container re-encodes to %d bytes with a different payload (input %d bytes)", len(out), len(b))
		}
	})
}
