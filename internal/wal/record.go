// Package wal is the engine's durability layer: a write-ahead log of
// published batch rounds plus periodic checkpoints of the full engine state
// (CSR snapshot, rank vector, key space), so a restart recovers by loading
// the latest valid checkpoint and replaying only the log tail behind it.
//
// The contract the engine builds on:
//
//   - Log-before-publish: a round's record is appended (in publication
//     order) before the version becomes visible to readers, so every state
//     a reader ever observed is reconstructible from checkpoint + tail.
//   - Torn-tail rule: recovery replays from the checkpoint through the
//     SegmentReader the replication feed uses, treats the first invalid
//     record — short, checksum mismatch, or out-of-sequence — as the end
//     of the log, truncates there, and continues. A crash mid-append is
//     therefore never fatal; at most the final unacknowledged round is
//     lost. A checkpoint whose tail was pruned is refused, not truncated to.
//   - Degradation over wedging: once the disk persistently fails, the log
//     goes sticky-degraded — appends turn into cheap error returns, the
//     engine keeps applying in memory and serving reads, and the condition
//     is surfaced through Stats rather than blocking the ingest loop.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"dfpr/internal/graph"
)

// Record is one logged ingest round: the merged batch that produced graph
// version Seq, the universe size N after it applied, and the string keys
// interned for ids [KeyBase, KeyBase+len(Keys)) when the round first made
// them durable (keyed engines only).
type Record struct {
	Seq     uint64
	N       uint64
	Del     []graph.Edge
	Ins     []graph.Edge
	KeyBase uint32
	Keys    []string
}

// Framing: u32 payload length, u32 CRC-32C of the payload, payload. The
// length is bounded so a corrupt length field cannot ask recovery to
// allocate gigabytes before the checksum gets a chance to reject it.
const (
	frameHeader  = 8
	recMagic     = 0xd1 // payload leading byte, catches frame/payload confusion
	maxRecordLen = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errShortRecord marks a record whose frame or payload extends past the end
// of the segment — a torn tail.
var errShortRecord = errors.New("wal: truncated record")

// ErrCorrupt marks a record whose checksum or structure is invalid.
var ErrCorrupt = errors.New("wal: corrupt record")

// appendRecord frames and appends one record.
func appendRecord(dst []byte, r *Record) []byte {
	le := binary.LittleEndian
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame placeholder
	body := len(dst)
	dst = append(dst, recMagic)
	dst = le.AppendUint64(dst, r.Seq)
	dst = le.AppendUint64(dst, r.N)
	dst = le.AppendUint32(dst, r.KeyBase)
	dst = le.AppendUint32(dst, uint32(len(r.Keys)))
	for _, k := range r.Keys {
		dst = le.AppendUint32(dst, uint32(len(k)))
		dst = append(dst, k...)
	}
	dst = appendEdges(dst, r.Del)
	dst = appendEdges(dst, r.Ins)
	payload := dst[body:]
	le.PutUint32(dst[head:], uint32(len(payload)))
	le.PutUint32(dst[head+4:], crc32.Checksum(payload, crcTable))
	return dst
}

func appendEdges(dst []byte, es []graph.Edge) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(es)))
	for _, e := range es {
		dst = le.AppendUint32(dst, e.U)
		dst = le.AppendUint32(dst, e.V)
	}
	return dst
}

// parseRecord decodes the record framed at the start of b, returning the
// bytes it consumed. errShortRecord means b ends inside the record (torn
// tail); ErrCorrupt means the frame is complete but invalid.
func parseRecord(b []byte) (Record, int, error) {
	le := binary.LittleEndian
	if len(b) < frameHeader {
		return Record{}, 0, errShortRecord
	}
	n := int(le.Uint32(b))
	if n == 0 || n > maxRecordLen {
		return Record{}, 0, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	if len(b) < frameHeader+n {
		return Record{}, 0, errShortRecord
	}
	payload := b[frameHeader : frameHeader+n]
	if crc32.Checksum(payload, crcTable) != le.Uint32(b[4:]) {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r, err := parsePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return r, frameHeader + n, nil
}

func parsePayload(p []byte) (Record, error) {
	le := binary.LittleEndian
	var r Record
	if len(p) < 1+8+8+4+4 || p[0] != recMagic {
		return r, fmt.Errorf("%w: malformed payload", ErrCorrupt)
	}
	r.Seq = le.Uint64(p[1:])
	r.N = le.Uint64(p[9:])
	r.KeyBase = le.Uint32(p[17:])
	nKeys := int(le.Uint32(p[21:]))
	off := 25
	if nKeys > 0 {
		r.Keys = make([]string, 0, min(nKeys, len(p)/4))
		for i := 0; i < nKeys; i++ {
			if off+4 > len(p) {
				return r, fmt.Errorf("%w: key table overruns payload", ErrCorrupt)
			}
			kl := int(le.Uint32(p[off:]))
			off += 4
			if kl < 0 || off+kl > len(p) {
				return r, fmt.Errorf("%w: key length overruns payload", ErrCorrupt)
			}
			r.Keys = append(r.Keys, string(p[off:off+kl]))
			off += kl
		}
	}
	var err error
	if r.Del, off, err = parseEdges(p, off); err != nil {
		return r, err
	}
	if r.Ins, off, err = parseEdges(p, off); err != nil {
		return r, err
	}
	if off != len(p) {
		return r, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p)-off)
	}
	return r, nil
}

func parseEdges(p []byte, off int) ([]graph.Edge, int, error) {
	le := binary.LittleEndian
	if off+4 > len(p) {
		return nil, off, fmt.Errorf("%w: edge list overruns payload", ErrCorrupt)
	}
	n := int(le.Uint32(p[off:]))
	off += 4
	if n == 0 {
		return nil, off, nil
	}
	if off+8*n > len(p) {
		return nil, off, fmt.Errorf("%w: %d edges overrun payload", ErrCorrupt, n)
	}
	es := make([]graph.Edge, n)
	for i := range es {
		es[i] = graph.Edge{U: le.Uint32(p[off:]), V: le.Uint32(p[off+4:])}
		off += 8
	}
	return es, off, nil
}
