package wal

// Read side of the log: the one place records are read out of segment
// files. Recovery (wal.go) runs a SegmentReader from the checkpoint once, at
// open, and cuts the log where it stops; the replication feed runs one
// against a LIVE log, tailing the segment files of a writer that keeps
// appending, rotating and pruning underneath it. The contract that makes
// the live case safe is the same log-before-publish rule the engine already
// relies on: every acknowledged round is fully framed in a segment file
// before anyone can observe its version, so a reader that stops at the
// first incomplete frame never sees a record the writer did not commit.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ErrPruned reports that the log no longer retains the records right after
// the requested sequence: a checkpoint covered them and pruning removed the
// sealed segments. The caller must re-bootstrap from a checkpoint instead
// of tailing.
var ErrPruned = errors.New("wal: records pruned behind requested sequence")

// SegmentReader iterates committed records with Seq greater than a starting
// sequence, straight from the directory's segment files. Next never blocks:
// io.EOF means "caught up for now" — including at a torn tail, which by the
// torn-tail rule is indistinguishable from the end of the log — and the
// reader resumes where it stopped once more bytes land. Rotation is crossed
// transparently; pruning of a segment the reader still needs surfaces as
// ErrPruned. A SegmentReader is not safe for concurrent use.
type SegmentReader struct {
	l    *Log
	seq  uint64 // last sequence delivered (starts at the caller's "after")
	base uint64 // base of the segment being read
	off  int64  // bytes of that segment consumed into buf so far
	buf  []byte // read but not yet parsed bytes
	pos  bool   // positioned on a segment
	read int64  // frame bytes of the records delivered
}

// SegmentReader returns a reader delivering records with Seq > after.
func (l *Log) SegmentReader(after uint64) *SegmentReader {
	return &SegmentReader{l: l, seq: after}
}

// Seq returns the sequence of the last record delivered (or the starting
// point before the first).
func (r *SegmentReader) Seq() uint64 { return r.seq }

// Next returns the next committed record. io.EOF means the reader is caught
// up with the durable end of the log (or stopped at a torn tail); ErrPruned
// means the records it needs were pruned away; ErrCorrupt wraps structural
// damage in a sealed region.
func (r *SegmentReader) Next() (Record, error) {
	for {
		if !r.pos {
			if err := r.position(); err != nil {
				return Record{}, err
			}
		}
		if len(r.buf) > 0 {
			rec, n, err := parseRecord(r.buf)
			switch {
			case err == nil:
				if rec.Seq > r.seq+1 {
					// Checked before the frame is consumed, so off still ends
					// at the last good record: recovery truncates there.
					return Record{}, fmt.Errorf("%w: sequence gap %d -> %d in segment %d",
						ErrCorrupt, r.seq, rec.Seq, r.base)
				}
				r.buf = r.buf[n:]
				r.off += int64(n)
				if rec.Seq <= r.seq {
					continue // positioning overshoot: record already delivered
				}
				r.seq = rec.Seq
				r.read += int64(n)
				return rec, nil
			case errors.Is(err, errShortRecord):
				// Possibly a torn tail, possibly a frame still being written:
				// fall through and try to read more bytes.
			default:
				return Record{}, err
			}
		}
		n, err := r.refill()
		if err != nil {
			return Record{}, err
		}
		if n > 0 || !r.pos {
			// New bytes to parse, or the segment vanished under us (pruned
			// after we consumed it) and the reader must re-position; position
			// itself decides whether anything undelivered was lost.
			continue
		}
		// No new bytes in the current segment. Either the writer rotated past
		// it — the next segment's base equals the last record we saw — or we
		// are at the live end (or a torn tail) of the log.
		if moved, err := r.advanceSegment(); err != nil {
			return Record{}, err
		} else if moved {
			continue
		}
		return Record{}, io.EOF
	}
}

// position finds the segment holding record seq+1: the one with the largest
// base ≤ seq (a segment based at b holds records (b, next base]).
func (r *SegmentReader) position() error {
	_, segs, err := r.l.scan(false)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return io.EOF // nothing durable yet
	}
	i := sort.Search(len(segs), func(i int) bool { return segs[i] > r.seq })
	if i == 0 {
		// Every segment starts past seq: the records right after it lived in
		// segments a checkpoint already pruned.
		return ErrPruned
	}
	r.base, r.off, r.buf, r.pos = segs[i-1], 0, nil, true
	return nil
}

// refill reads newly appended bytes of the current segment.
func (r *SegmentReader) refill() (int, error) {
	name := filepath.Join(r.l.dir, segmentName(r.base))
	b, err := r.l.fs.ReadFileFrom(name, r.off+int64(len(r.buf)))
	if err != nil {
		if os.IsNotExist(err) {
			// The segment was pruned while we were on it. If we had already
			// consumed it fully this is just a checkpoint rotation passing by;
			// re-positioning reports ErrPruned only when undelivered records
			// went with it.
			r.pos, r.buf = false, nil
			return 0, nil
		}
		return 0, fmt.Errorf("wal: read %s: %w", name, err)
	}
	if len(r.buf) == 0 {
		r.buf = b // no copy: a recovery read holds one segment-sized buffer
	} else {
		r.buf = append(r.buf, b...)
	}
	return len(b), nil
}

// advanceSegment moves to the next segment when the current one was sealed
// by rotation. A sealed segment ends exactly at the rotation point, so the
// successor's base equals the last sequence we delivered; leftover bytes at
// that point are damage, not a tail.
func (r *SegmentReader) advanceSegment() (bool, error) {
	_, segs, err := r.l.scan(false)
	if err != nil {
		return false, err
	}
	i := sort.Search(len(segs), func(i int) bool { return segs[i] > r.base })
	if i == len(segs) {
		return false, nil // no successor: live end of the log
	}
	if segs[i] != r.seq {
		// A successor exists but we have not consumed up to its base yet; the
		// current segment must hold more bytes than the last read returned.
		// Report "no progress" and let the caller retry after the next read.
		return false, nil
	}
	if len(r.buf) > 0 {
		return false, fmt.Errorf("%w: %d trailing bytes in sealed segment %d",
			ErrCorrupt, len(r.buf), r.base)
	}
	r.base, r.off, r.buf = segs[i], 0, nil
	return true, nil
}

// AppendWait returns a channel closed at the next successful Append (or at
// Fence/Close, so waiters re-check state). Callers arm it before draining
// the reader to avoid missing a wakeup.
func (l *Log) AppendWait() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	return l.notify
}

// notifyLocked wakes AppendWait waiters; callers hold l.mu.
func (l *Log) notifyLocked() {
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
}

// Fence permanently degrades the log without touching the disk: every later
// Append returns cause. A deposed writer fences its log the moment it learns
// another node holds the lease, so it can keep serving reads from memory
// while never again writing to segment files the new writer now owns.
func (l *Log) Fence(cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err() == nil {
		_ = l.degradeLocked(cause)
	}
	l.notifyLocked()
}

// Floor returns the lowest sequence the log can still serve a tail from: a
// SegmentReader may start at any after ≥ Floor(). Readers behind the floor
// must bootstrap from a checkpoint.
func (l *Log) Floor() uint64 {
	if _, segs, err := l.scan(false); err == nil && len(segs) > 0 {
		return segs[0]
	}
	return l.seq.Load()
}

// LatestCheckpoint reads back the newest valid checkpoint in the directory —
// the bootstrap payload the replication feed hands a replica that is behind
// the floor. Unlike recovery it removes nothing; invalid files are skipped.
func (l *Log) LatestCheckpoint() (*State, error) {
	ckpts, _, err := l.scan(false)
	if err != nil {
		return nil, err
	}
	if st, _ := l.newestCheckpoint(ckpts, false); st != nil {
		return st, nil
	}
	return nil, fmt.Errorf("wal: %s holds no valid checkpoint", l.dir)
}

// Wire helpers: the replication feed ships records and checkpoints in
// exactly the on-disk encoding, CRC and all, so a replica validates frames
// with the same code recovery uses and the stream needs no second format.

// FrameHeaderLen is the size of the length+checksum header preceding every
// framed record.
const FrameHeaderLen = frameHeader

// FramePayloadLen returns the payload length declared by a frame header
// (the full frame is FrameHeaderLen+n bytes), validating its bound.
func FramePayloadLen(hdr []byte) (int, error) {
	if len(hdr) < frameHeader {
		return 0, fmt.Errorf("%w: frame header too short", ErrCorrupt)
	}
	n := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	if n == 0 || n > maxRecordLen {
		return 0, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	return n, nil
}

// EncodeRecord appends r to dst framed exactly as segment files store it.
func EncodeRecord(dst []byte, r *Record) []byte { return appendRecord(dst, r) }

// DecodeRecord parses one complete framed record from the start of b and
// returns the bytes consumed. An incomplete frame is an error here (the
// transport delivers whole frames); use a SegmentReader to tolerate tails.
func DecodeRecord(b []byte) (Record, int, error) {
	r, n, err := parseRecord(b)
	if errors.Is(err, errShortRecord) {
		return Record{}, 0, fmt.Errorf("%w: truncated frame", ErrCorrupt)
	}
	return r, n, err
}

// DecodeState decodes a checkpoint written by WriteState.
func DecodeState(b []byte) (*State, error) { return decodeCheckpoint(b) }
