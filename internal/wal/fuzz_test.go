package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"dfpr/internal/graph"
)

// The WAL's two decoders sit behind a CRC-32C, so a mutated input almost
// never reaches the structural parser on its own. Each target therefore
// takes a reseal flag: when set, the harness rewrites the checksum field to
// match the mutated bytes first — the checksum-colliding corruption the
// structural checks exist for.

// variants returns b, a truncated b and a bit-flipped b: the seed corpus of
// one encoder's output.
func variants(b []byte, flipAt int) [][]byte {
	flipped := bytes.Clone(b)
	flipped[flipAt] ^= 0x20
	return [][]byte{b, b[:len(b)*2/3], flipped}
}

// FuzzParseRecord: a byte string is a torn tail, corrupt, or a record that
// re-encodes to exactly the bytes consumed — never a panic, never a slice
// sized beyond the payload.
func FuzzParseRecord(f *testing.F) {
	rec := &Record{Seq: 42, N: 1000, Del: []graph.Edge{{U: 1, V: 2}}, Ins: []graph.Edge{{U: 3, V: 4}, {U: 5, V: 6}},
		KeyBase: 7, Keys: []string{"alpha", "", "βγδ"}}
	for _, b := range variants(appendRecord(nil, rec), frameHeader+21) { // the key count
		f.Add(b, false)
		f.Add(b, true)
	}
	f.Fuzz(func(t *testing.T, b []byte, reseal bool) {
		if reseal && len(b) >= frameHeader {
			if n := int(binary.LittleEndian.Uint32(b)); n <= len(b)-frameHeader {
				b = bytes.Clone(b)
				binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[frameHeader:frameHeader+n], crcTable))
			}
		}
		r, n, err := parseRecord(b)
		if err != nil {
			return
		}
		if out := appendRecord(nil, &r); !bytes.Equal(out, b[:n]) {
			t.Fatalf("record parsed from %d bytes re-encodes to %d different ones: %+v", n, len(out), r)
		}
	})
}

// FuzzDecodeCheckpoint: a byte string is corrupt or a state whose graph
// validates and which re-encodes to the input (the container's reserved
// header word aside, hence the decode-again comparison) — never a panic,
// never a rank or key table sized beyond the body.
func FuzzDecodeCheckpoint(f *testing.F) {
	d := graph.NewDynamic(5)
	for u := uint32(0); u < 5; u++ {
		d.AddEdge(u, (u+1)%5)
	}
	d.EnsureSelfLoops()
	st := &State{Seq: 17, Graph: d.Snapshot(), Ranks: []float64{.1, .2, .3, .2, .2}, Keys: []string{"a", "bb", "", "d", "e"}}
	enc := encodeCheckpoint(st)
	rankCount := 8 + 4 + 8 + 4 + st.Graph.ContainerSize() + 1
	for _, b := range variants(enc, rankCount+7) { // count += 1<<61: 8·count wraps to 40
		f.Add(b, false)
		f.Add(b, true)
	}
	f.Add(encodeCheckpoint(&State{Graph: st.Graph}), false) // rank-less, key-less
	f.Fuzz(func(t *testing.T, b []byte, reseal bool) {
		if reseal && len(b) >= 12 {
			b = bytes.Clone(b)
			binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(b[12:], crcTable))
		}
		st, err := decodeCheckpoint(b)
		if err != nil {
			return
		}
		if err := st.Graph.Validate(); err != nil {
			t.Fatalf("decoded checkpoint's graph does not validate: %v", err)
		}
		out := encodeCheckpoint(st)
		if len(out) != len(b) {
			t.Fatalf("checkpoint decoded from %d bytes re-encodes to %d", len(b), len(out))
		}
		if _, err := decodeCheckpoint(out); err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
	})
}

// FuzzRecover: whatever bytes sit in the segment behind checkpoint 0, Open
// recovers a contiguous run of records from seq 1 and leaves a log that
// continues from it — a fresh reader delivers every recovered record and
// the next one appended — never a panic, never an error.
func FuzzRecover(f *testing.F) {
	var seg []byte
	for seq := uint64(1); seq <= 3; seq++ {
		seg = appendRecord(seg, testRecord(seq))
	}
	for _, b := range variants(seg, len(seg)/2) {
		f.Add(b)
	}
	f.Add(appendRecord(appendRecord(nil, testRecord(1)), testRecord(3))) // a gap
	d := graph.NewDynamic(5)
	for u := uint32(0); u < 5; u++ {
		d.AddEdge(u, (u+1)%5)
	}
	d.EnsureSelfLoops()
	ckpt := encodeCheckpoint(&State{Graph: d.Snapshot()})
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ckptName(0)), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir, Options{Mode: SyncNone})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		for i, r := range rec.Tail {
			if r.Seq != uint64(i+1) {
				t.Fatalf("tail record %d has seq %d", i, r.Seq)
			}
		}
		next := uint64(len(rec.Tail)) + 1
		if err := l.Append(testRecord(next)); err != nil {
			t.Fatalf("Append %d: %v", next, err)
		}
		got := readAll(t, l.SegmentReader(0))
		if len(got) != int(next) || got[len(got)-1] != next {
			t.Fatalf("reader after recovery delivered %v, want 1..%d", got, next)
		}
	})
}
