package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"dfpr/internal/graph"
)

// State is the full engine state a checkpoint captures: the CSR snapshot at
// version Seq, the rank vector converged on it (nil when no ranks had been
// published yet), and the key space prefix covering the snapshot's universe
// (nil on dense-ID engines).
type State struct {
	Seq   uint64
	Graph *graph.CSR
	Ranks []float64
	Keys  []string
}

// Checkpoint file layout: 8-byte magic, u32 CRC-32C of everything after the
// checksum field, then the body: u64 seq, u32 container length, the graph's
// DFPRCSR1 container, a rank flag byte (then u64 count and the ranks as
// float64 bits), u32 key count and each key as u32 length plus bytes. Files
// are written to a temp name, fsynced, renamed into place and the directory
// fsynced — a checkpoint either exists completely or not at all, and a bad
// checksum falls back to the previous file.
var ckptMagic = [8]byte{'D', 'F', 'P', 'R', 'C', 'K', 'P', '1'}

// ckptBuffer is the write buffer a checkpoint streams through: a checkpoint
// smaller than it reaches the file in one Write.
const ckptBuffer = 64 << 10

// StateSize returns the length of st in the on-disk checkpoint format.
func StateSize(st *State) int64 {
	size := int64(8+4+8+4+1+4) + int64(st.Graph.ContainerSize())
	if st.Ranks != nil {
		size += 8 + 8*int64(len(st.Ranks))
	}
	for _, k := range st.Keys {
		size += 4 + int64(len(k))
	}
	return size
}

// WriteState streams st to w in the on-disk checkpoint format, in two
// passes over the state: the first feeds the body to a CRC-32C hash for the
// checksum at offset 8, the second writes the file. Neither pass holds a
// copy of the graph, so writing a checkpoint costs two ckptBuffer buffers
// whatever its size. Checkpoint files and the feed's bootstrap are written
// here.
func WriteState(w io.Writer, st *State) error {
	h := crc32.New(crcTable)
	if err := writeCheckpointBody(h, st); err != nil {
		return err
	}
	var head [12]byte
	copy(head[:], ckptMagic[:])
	binary.LittleEndian.PutUint32(head[8:], h.Sum32())
	bw := bufio.NewWriterSize(w, ckptBuffer)
	bw.Write(head[:])
	return writeCheckpointBody(bw, st)
}

// writeCheckpointBody writes the body of st's checkpoint to w through a
// ckptBuffer buffer (w itself when it already is one) and flushes it.
func writeCheckpointBody(w io.Writer, st *State) error {
	bw := bufio.NewWriterSize(w, ckptBuffer)
	var b [8]byte
	u32 := func(x uint32) { bw.Write(binary.LittleEndian.AppendUint32(b[:0], x)) }
	u64 := func(x uint64) { bw.Write(binary.LittleEndian.AppendUint64(b[:0], x)) }
	u64(st.Seq)
	u32(uint32(st.Graph.ContainerSize()))
	if err := st.Graph.WriteContainer(bw); err != nil {
		return err
	}
	if st.Ranks != nil {
		bw.WriteByte(1)
		u64(uint64(len(st.Ranks)))
		for _, r := range st.Ranks {
			u64(math.Float64bits(r))
		}
	} else {
		bw.WriteByte(0)
	}
	u32(uint32(len(st.Keys)))
	for _, k := range st.Keys {
		u32(uint32(len(k)))
		bw.WriteString(k)
	}
	return bw.Flush() // a bufio.Writer keeps its first error and returns it here
}

func decodeCheckpoint(b []byte) (*State, error) {
	le := binary.LittleEndian
	if len(b) < 12 || [8]byte(b[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	body := b[12:]
	if crc32.Checksum(body, crcTable) != le.Uint32(b[8:]) {
		return nil, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}
	st := &State{}
	if len(body) < 12 {
		return nil, fmt.Errorf("%w: truncated checkpoint", ErrCorrupt)
	}
	st.Seq = le.Uint64(body)
	gl := int(le.Uint32(body[8:]))
	off := 12
	if gl < 0 || off+gl > len(body) {
		return nil, fmt.Errorf("%w: checkpoint graph overruns body", ErrCorrupt)
	}
	g, err := graph.DecodeContainer(body[off:off+gl], false)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	st.Graph = g
	off += gl
	if off >= len(body) {
		return nil, fmt.Errorf("%w: truncated checkpoint rank header", ErrCorrupt)
	}
	hasRanks := body[off] == 1
	off++
	if hasRanks {
		if off+8 > len(body) {
			return nil, fmt.Errorf("%w: truncated checkpoint rank count", ErrCorrupt)
		}
		n := int(le.Uint64(body[off:]))
		off += 8
		if n < 0 || n > (len(body)-off)/8 {
			return nil, fmt.Errorf("%w: checkpoint ranks overrun body", ErrCorrupt)
		}
		st.Ranks = make([]float64, n)
		for i := range st.Ranks {
			st.Ranks[i] = math.Float64frombits(le.Uint64(body[off:]))
			off += 8
		}
	}
	if off+4 > len(body) {
		return nil, fmt.Errorf("%w: truncated checkpoint key count", ErrCorrupt)
	}
	nKeys := int(le.Uint32(body[off:]))
	off += 4
	if nKeys > 0 {
		st.Keys = make([]string, 0, min(nKeys, len(body)/4))
		for i := 0; i < nKeys; i++ {
			if off+4 > len(body) {
				return nil, fmt.Errorf("%w: checkpoint key table overruns body", ErrCorrupt)
			}
			kl := int(le.Uint32(body[off:]))
			off += 4
			if kl < 0 || off+kl > len(body) {
				return nil, fmt.Errorf("%w: checkpoint key overruns body", ErrCorrupt)
			}
			st.Keys = append(st.Keys, string(body[off:off+kl]))
			off += kl
		}
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing checkpoint bytes", ErrCorrupt, len(body)-off)
	}
	return st, nil
}
