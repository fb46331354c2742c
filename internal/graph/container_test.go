package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func randomCSR(rng *rand.Rand, n, m int) *CSR {
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
	}
	return FromEdges(n, edges)
}

func csrSame(a, b *CSR) bool {
	if a.n != b.n || a.m != b.m {
		return false
	}
	for v := uint32(0); int(v) < a.n; v++ {
		if !slices.Equal(a.Out(v), b.Out(v)) || !slices.Equal(a.In(v), b.In(v)) {
			return false
		}
	}
	return true
}

func TestContainerPlainRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{1, 0}, {5, 8}, {300, 2000}, {1 << 15, 1 << 15}} {
		g := randomCSR(rng, dims[0], dims[1])
		b := g.AppendContainer(nil)
		if len(b) != g.ContainerSize() {
			t.Fatalf("n=%d: encoded %d bytes, ContainerSize says %d", dims[0], len(b), g.ContainerSize())
		}
		if !IsContainer(b) {
			t.Fatal("container does not sniff as container")
		}
		for _, alias := range []bool{false, true} {
			got, err := DecodeContainer(b, alias)
			if err != nil {
				t.Fatalf("n=%d alias=%v: %v", dims[0], alias, err)
			}
			if !csrSame(g, got) {
				t.Fatalf("n=%d alias=%v: round trip mismatch", dims[0], alias)
			}
			mustValid(t, got)
		}
	}
	if !bytes.Equal(containerMagic[:], []byte("DFPRCSR1")) {
		t.Error("magic drifted from documented value")
	}

	// The byte layout is a compatibility contract: checkpoints and prgen -csr
	// files written by earlier builds must keep loading. This is the
	// container PR 20's AppendContainer produced for the 3-vertex graph below.
	golden, err := hex.DecodeString(strings.Join([]string{
		"4446505243535231010000000000000003000000000000000400000000000000",
		"0400000000000000100000000000000010000000000000000000000000000000",
		"0000000000000000020000000000000003000000000000000400000000000000",
		"0000000000000000010000000000000002000000000000000400000000000000",
		"0100000002000000020000000000000002000000000000000000000001000000",
	}, ""))
	if err != nil {
		t.Fatal(err)
	}
	g := FromEdges(3, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 0}})
	if b := g.AppendContainer(nil); !bytes.Equal(b, golden) {
		t.Errorf("container bytes moved:\n got %x\nwant %x", b, golden)
	}
	if got, err := DecodeContainer(golden, false); err != nil || !csrSame(g, got) {
		t.Errorf("golden container does not decode back: err=%v", err)
	}
}

// TestDecodeCSRAcceptsAllFormats pins the checkpoint decode call
// (DecodeContainer with alias=false) on the one surviving format: the graph
// comes back equal and owns its arrays, so the payload buffer can be reused.
func TestDecodeCSRAcceptsAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomCSR(rng, 100, 700)
	payload := g.AppendContainer(nil)
	got, err := DecodeContainer(payload, false)
	if err != nil {
		t.Fatal(err)
	}
	clear(payload)
	if !csrSame(g, got) {
		t.Fatal("decode mismatch, or the copying decode aliased its payload")
	}
}

func TestDecodeContainerRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomCSR(rng, 50, 300)
	base := g.AppendContainer(nil)

	mutate := func(b []byte, f func([]byte)) []byte {
		m := append([]byte(nil), b...)
		f(m)
		return m
	}
	cases := map[string][]byte{
		"bad magic":     mutate(base, func(b []byte) { b[0] = 'X' }),
		"bad version":   mutate(base, func(b []byte) { b[8] = 99 }),
		"truncated":     base[:len(base)-4],
		"padded":        append(append([]byte(nil), base...), 0),
		"huge n":        mutate(base, func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 1<<40) }),
		"edge mismatch": mutate(base, func(b []byte) { binary.LittleEndian.PutUint64(b[24:], 1) }),
		"adjacency out of range": mutate(base, func(b []byte) {
			binary.LittleEndian.PutUint32(b[containerHeader+16*(g.n+1):], 1<<20)
		}),
		"unknown flag bit":    mutate(base, func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 2) }),
		"compressed flag bit": mutate(base, func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 1) }),
	}
	for name, b := range cases {
		if _, err := DecodeContainer(b, false); err == nil {
			t.Errorf("%s: DecodeContainer accepted corrupt payload", name)
		}
	}
	// A file from an older prgen -compress must say what to do about it.
	if _, err := DecodeContainer(cases["compressed flag bit"], false); err == nil || !strings.Contains(err.Error(), "regenerate with `prgen -csr`") {
		t.Errorf("compressed flag bit: err = %v, want the regenerate message", err)
	}
}

func TestDecodeContainerAliasSharesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomCSR(rng, 64, 400)
	b := g.AppendContainer(nil)
	got, err := DecodeContainer(b, true)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the buffer must show through the aliased view (LE hosts;
	// on BE hosts the decode copies and this is vacuously skipped).
	if !leHost {
		t.Skip("big-endian host decodes by copying")
	}
	outAdj := got.out[0].adj // the whole mapped out-adjacency blob
	if len(outAdj) == 0 {
		t.Fatal("test graph has no edges")
	}
	adjOff := containerHeader + 16*(g.n+1)
	want := outAdj[0] + 1
	binary.LittleEndian.PutUint32(b[adjOff:], want)
	if outAdj[0] != want {
		t.Error("alias decode copied the adjacency array")
	}
}
