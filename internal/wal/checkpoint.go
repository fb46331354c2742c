package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
// checksum field, then the body. Files are written to a temp name, fsynced,
// renamed into place and the directory fsynced — a checkpoint either exists
// completely or not at all, and a bad checksum falls back to the previous
// file.
var ckptMagic = [8]byte{'D', 'F', 'P', 'R', 'C', 'K', 'P', '1'}

func encodeCheckpoint(st *State) []byte {
	le := binary.LittleEndian
	// Sized exactly, so the appends below never grow the buffer.
	size := 8 + 4 + 8 + 4 + st.Graph.ContainerSize() + 1 + 4
	if st.Ranks != nil {
		size += 8 + 8*len(st.Ranks)
	}
	for _, k := range st.Keys {
		size += 4 + len(k)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, ckptMagic[:]...)
	dst = append(dst, 0, 0, 0, 0) // checksum placeholder
	body := len(dst)
	dst = le.AppendUint64(dst, st.Seq)
	// The container goes straight into dst (ContainerSize is exact): a
	// checkpoint holds one copy of the graph's bytes, not two.
	dst = le.AppendUint32(dst, uint32(st.Graph.ContainerSize()))
	dst = st.Graph.AppendContainer(dst)
	if st.Ranks != nil {
		dst = append(dst, 1)
		dst = le.AppendUint64(dst, uint64(len(st.Ranks)))
		for _, r := range st.Ranks {
			dst = le.AppendUint64(dst, math.Float64bits(r))
		}
	} else {
		dst = append(dst, 0)
	}
	dst = le.AppendUint32(dst, uint32(len(st.Keys)))
	for _, k := range st.Keys {
		dst = le.AppendUint32(dst, uint32(len(k)))
		dst = append(dst, k...)
	}
	le.PutUint32(dst[8:], crc32.Checksum(dst[body:], crcTable))
	return dst
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
