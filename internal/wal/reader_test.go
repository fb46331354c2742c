package wal

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// readAll drains a SegmentReader to io.EOF, returning the delivered seqs.
func readAll(t *testing.T, r *SegmentReader) []uint64 {
	t.Helper()
	var seqs []uint64
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return seqs
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		seqs = append(seqs, rec.Seq)
	}
}

func wantSeqs(t *testing.T, got []uint64, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got seqs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got seqs %v, want %v", got, want)
		}
	}
}

func TestSegmentReaderTail(t *testing.T) {
	l, _ := openSeeded(t, t.TempDir(), Options{Mode: SyncNone})
	defer l.Close()
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	r := l.SegmentReader(0)
	wantSeqs(t, readAll(t, r), 1, 2, 3, 4, 5)
	// Caught up: repeated polls keep returning EOF without losing position.
	wantSeqs(t, readAll(t, r))
	// New appends resume exactly where the reader stopped.
	for seq := uint64(6); seq <= 7; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	wantSeqs(t, readAll(t, r), 6, 7)
	// A reader starting mid-log skips what its caller already has.
	wantSeqs(t, readAll(t, l.SegmentReader(4)), 5, 6, 7)
	if got := r.Seq(); got != 7 {
		t.Fatalf("Seq() = %d, want 7", got)
	}
}

func TestSegmentReaderTornTailStops(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone})
	defer l.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	// Simulate a torn write: a prefix of record 4's frame lands in the
	// segment. The reader must deliver 1..3 and then report EOF — a torn
	// tail is indistinguishable from the live end of the log.
	full := appendRecord(nil, testRecord(4))
	f, err := os.OpenFile(filepath.Join(dir, segmentName(0)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write(full[:len(full)-3]); err != nil {
		t.Fatalf("write torn frame: %v", err)
	}
	f.Close()
	r := l.SegmentReader(0)
	wantSeqs(t, readAll(t, r), 1, 2, 3)
	wantSeqs(t, readAll(t, r)) // still EOF: no progress past the torn frame
}

func TestSegmentReaderCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone})
	defer l.Close()
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// A complete frame with a flipped payload byte is corruption, not a tail.
	bad := appendRecord(nil, testRecord(2))
	bad[frameHeader+5] ^= 0xff
	f, err := os.OpenFile(filepath.Join(dir, segmentName(0)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write(bad); err != nil {
		t.Fatalf("write corrupt frame: %v", err)
	}
	f.Close()
	r := l.SegmentReader(0)
	if rec, err := r.Next(); err != nil || rec.Seq != 1 {
		t.Fatalf("Next = %v, %v; want record 1", rec.Seq, err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Next after corrupt frame = %v, want ErrCorrupt", err)
	}
}

func TestSegmentReaderRotationCrossing(t *testing.T) {
	// SegmentBytes=1 seals a segment after every record, so each read
	// crosses a rotation boundary.
	l, _ := openSeeded(t, t.TempDir(), Options{Mode: SyncNone, SegmentBytes: 1})
	defer l.Close()
	for seq := uint64(1); seq <= 6; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	wantSeqs(t, readAll(t, l.SegmentReader(0)), 1, 2, 3, 4, 5, 6)
	wantSeqs(t, readAll(t, l.SegmentReader(4)), 5, 6)
	// A reader that catches up mid-log keeps crossing boundaries created
	// after it went idle.
	r := l.SegmentReader(0)
	wantSeqs(t, readAll(t, r), 1, 2, 3, 4, 5, 6)
	for seq := uint64(7); seq <= 9; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	wantSeqs(t, readAll(t, r), 7, 8, 9)
}

func TestSegmentReaderPruned(t *testing.T) {
	l, _ := openSeeded(t, t.TempDir(), Options{Mode: SyncNone, SegmentBytes: 1})
	defer l.Close()
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	if err := l.WriteCheckpoint(&State{Seq: 5, Graph: testCSR(t, 8)}); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if _, err := l.SegmentReader(0).Next(); !errors.Is(err, ErrPruned) {
		t.Fatalf("Next behind pruned floor = %v, want ErrPruned", err)
	}
	if floor := l.Floor(); floor == 0 {
		t.Fatal("Floor() = 0 after pruning")
	}
	// At or above the floor, tailing still works.
	wantSeqs(t, readAll(t, l.SegmentReader(l.Floor())))
}

// TestFollowerLive tails a log that is still being appended to the way the
// replication feed does: arm AppendWait, drain the SegmentReader to io.EOF,
// then block on the wakeup. Arming before the drain is what makes it safe —
// an append landing between the drain and the wait has already closed the
// armed channel, so the follower never sleeps past a committed record.
func TestFollowerLive(t *testing.T) {
	l, _ := openSeeded(t, t.TempDir(), Options{Mode: SyncNone})
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r := l.SegmentReader(0)
	// next is the feed's arm-drain-wait step, one record at a time.
	next := func(ctx context.Context) (Record, error) {
		for {
			wake := l.AppendWait()
			rec, err := r.Next()
			if !errors.Is(err, io.EOF) {
				return rec, err
			}
			select {
			case <-ctx.Done():
				return Record{}, ctx.Err()
			case <-wake:
			}
		}
	}
	go func() {
		for seq := uint64(1); seq <= 20; seq++ {
			if err := l.Append(testRecord(seq)); err != nil {
				return
			}
			if seq%5 == 0 {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	for want := uint64(1); want <= 20; want++ {
		rec, err := next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if rec.Seq != want {
			t.Fatalf("got seq %d, want %d", rec.Seq, want)
		}
	}
	// Caught up: the wait blocks until the context ends.
	short, scancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer scancel()
	if _, err := next(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next at tail = %v, want deadline exceeded", err)
	}
	// An append between arming and draining is seen by the drain, and one
	// after the drain closes the armed channel: neither is missed.
	wake := l.AppendWait()
	if err := l.Append(testRecord(21)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
	default:
		t.Fatal("an append did not close the channel armed before it")
	}
	if rec, err := r.Next(); err != nil || rec.Seq != 21 {
		t.Fatalf("drain after wakeup = seq %d, %v; want 21", rec.Seq, err)
	}
}

func TestFollowerCrossesCheckpointRotation(t *testing.T) {
	l, _ := openSeeded(t, t.TempDir(), Options{Mode: SyncNone})
	defer l.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	r := l.SegmentReader(0)
	wantSeqs(t, readAll(t, r), 1, 2, 3)
	// WriteCheckpoint rotates the active segment; the idle reader must step
	// over the seal to the fresh segment when appends resume.
	if err := l.WriteCheckpoint(&State{Seq: 3, Graph: testCSR(t, 8)}); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := l.Append(testRecord(4)); err != nil {
		t.Fatalf("Append 4: %v", err)
	}
	wantSeqs(t, readAll(t, r), 4)
}

func TestFenceDegrades(t *testing.T) {
	l, _ := openSeeded(t, t.TempDir(), Options{Mode: SyncNone})
	defer l.Close()
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	cause := errors.New("deposed")
	l.Fence(cause)
	if !l.Degraded() {
		t.Fatal("log not degraded after Fence")
	}
	if err := l.Append(testRecord(2)); !errors.Is(err, cause) {
		t.Fatalf("Append after Fence = %v, want fence cause", err)
	}
	if st := l.Stats(); st.Seq != 1 {
		t.Fatalf("Stats.Seq = %d after fenced append, want 1", st.Seq)
	}
}

func TestLatestCheckpoint(t *testing.T) {
	l, _ := openSeeded(t, t.TempDir(), Options{Mode: SyncNone})
	defer l.Close()
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	st := &State{Seq: 4, Graph: testCSR(t, 8), Ranks: []float64{0.5, 0.5}}
	if err := l.WriteCheckpoint(st); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	got, err := l.LatestCheckpoint()
	if err != nil {
		t.Fatalf("LatestCheckpoint: %v", err)
	}
	if got.Seq != 4 || len(got.Ranks) != 2 || got.Ranks[0] != 0.5 {
		t.Fatalf("LatestCheckpoint = seq %d ranks %v", got.Seq, got.Ranks)
	}
}

func TestWireHelpersRoundtrip(t *testing.T) {
	in := testRecord(11)
	in.KeyBase = 2
	in.Keys = []string{"a", "b"}
	frame := EncodeRecord(nil, in)
	if n, err := FramePayloadLen(frame); err != nil || FrameHeaderLen+n != len(frame) {
		t.Fatalf("FramePayloadLen = %d, %v; frame is %d bytes", n, err, len(frame))
	}
	out, n, err := DecodeRecord(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("DecodeRecord: n=%d err=%v", n, err)
	}
	if out.Seq != in.Seq || len(out.Keys) != 2 || out.Keys[1] != "b" {
		t.Fatalf("DecodeRecord mismatch: %+v", out)
	}
	// A truncated frame is corruption at the wire layer, not a tail.
	if _, _, err := DecodeRecord(frame[:len(frame)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeRecord(truncated) = %v, want ErrCorrupt", err)
	}
	st := &State{Seq: 11, Graph: testCSR(t, 8), Keys: []string{"a", "b"}}
	var wire bytes.Buffer
	if err := WriteState(&wire, st); err != nil || int64(wire.Len()) != StateSize(st) {
		t.Fatalf("WriteState: %d bytes, %v; StateSize says %d", wire.Len(), err, StateSize(st))
	}
	dec, err := DecodeState(wire.Bytes())
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if dec.Seq != 11 || dec.Graph.N() != st.Graph.N() || len(dec.Keys) != 2 {
		t.Fatalf("DecodeState mismatch: seq %d", dec.Seq)
	}
}
