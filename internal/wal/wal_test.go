package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dfpr/internal/fault"
	"dfpr/internal/graph"
)

func testRecord(seq uint64) *Record {
	return &Record{
		Seq: seq,
		N:   seq + 10,
		Del: []graph.Edge{{U: uint32(seq), V: 1}},
		Ins: []graph.Edge{{U: 2, V: uint32(seq)}, {U: 3, V: 4}},
	}
}

func testCSR(t *testing.T, n int) *graph.CSR {
	t.Helper()
	d := graph.NewDynamic(n)
	for u := 0; u < n; u++ {
		d.AddEdge(uint32(u), uint32((u+1)%n))
		d.AddEdge(uint32(u), uint32((u*7+3)%n))
	}
	d.EnsureSelfLoops()
	return d.Snapshot()
}

func TestRecordRoundtrip(t *testing.T) {
	in := &Record{
		Seq:     42,
		N:       1000,
		Del:     []graph.Edge{{U: 1, V: 2}},
		Ins:     []graph.Edge{{U: 3, V: 4}, {U: 5, V: 6}},
		KeyBase: 7,
		Keys:    []string{"alpha", "", "βγδ"},
	}
	b := appendRecord(nil, in)
	out, n, err := parseRecord(b)
	if err != nil {
		t.Fatalf("parseRecord: %v", err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if out.Seq != in.Seq || out.N != in.N || out.KeyBase != in.KeyBase {
		t.Fatalf("header mismatch: %+v", out)
	}
	if len(out.Keys) != 3 || out.Keys[2] != "βγδ" || out.Keys[1] != "" {
		t.Fatalf("keys mismatch: %q", out.Keys)
	}
	if len(out.Del) != 1 || len(out.Ins) != 2 || out.Ins[1] != (graph.Edge{U: 5, V: 6}) {
		t.Fatalf("edges mismatch: %+v", out)
	}
}

func TestRecordTornAtEveryOffset(t *testing.T) {
	b := appendRecord(nil, testRecord(9))
	for cut := 0; cut < len(b); cut++ {
		_, _, err := parseRecord(b[:cut])
		if err == nil {
			t.Fatalf("cut at %d of %d parsed successfully", cut, len(b))
		}
	}
}

func TestRecordCorruptEveryByte(t *testing.T) {
	orig := appendRecord(nil, testRecord(3))
	for i := range orig {
		b := append([]byte(nil), orig...)
		b[i] ^= 0x5a
		rec, _, err := parseRecord(b)
		if err == nil && (rec.Seq != 3 || rec.N != 13) {
			t.Fatalf("flip at byte %d yielded wrong record without error: %+v", i, rec)
		}
		// Flips in the length field may read as "short" rather than corrupt;
		// any error is acceptable, silent wrong data is not. A flip that
		// still checksums correctly is impossible for single-byte flips with
		// CRC-32C.
		if err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	g := testCSR(t, 50)
	ranks := make([]float64, 50)
	for i := range ranks {
		ranks[i] = 1.0 / float64(50+i)
	}
	in := &State{Seq: 17, Graph: g, Ranks: ranks, Keys: []string{"a", "bb", "ccc"}}
	out, err := decodeCheckpoint(encodeCheckpoint(in))
	if err != nil {
		t.Fatalf("decodeCheckpoint: %v", err)
	}
	if out.Seq != 17 || out.Graph.N() != 50 || out.Graph.M() != g.M() {
		t.Fatalf("state mismatch: seq %d n %d", out.Seq, out.Graph.N())
	}
	for i := range ranks {
		if out.Ranks[i] != ranks[i] {
			t.Fatalf("rank %d mismatch", i)
		}
	}
	if len(out.Keys) != 3 || out.Keys[1] != "bb" {
		t.Fatalf("keys mismatch: %q", out.Keys)
	}

	// Rank-less checkpoints (pre-first-Rank) distinguish nil from empty.
	noRanks := &State{Seq: 0, Graph: testCSR(t, 3)}
	got, err := decodeCheckpoint(encodeCheckpoint(noRanks))
	if err != nil {
		t.Fatalf("decodeCheckpoint rank-less: %v", err)
	}
	if got.Ranks != nil {
		t.Fatalf("rank-less checkpoint decoded ranks %v", got.Ranks)
	}
}

// encodeCheckpoint is WriteState into memory: the file's bytes.
func encodeCheckpoint(st *State) []byte {
	var b bytes.Buffer
	if err := WriteState(&b, st); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// TestCheckpointStreams pins the writer's memory: a checkpoint streams
// through fixed buffers, so writing a 2 MB one allocates a few of them and
// no graph-sized byte slice, and the bytes written are exactly the
// StateSize the byte rule compares against.
func TestCheckpointStreams(t *testing.T) {
	const n = 50000
	st := &State{Seq: 9, Graph: testCSR(t, n), Ranks: make([]float64, n), Keys: []string{"a", "bb"}}
	size := StateSize(st)
	if size < 16*ckptBuffer {
		t.Fatalf("checkpoint of %d bytes is too small to tell streaming from buffering", size)
	}
	var cw countWriter
	if err := WriteState(&cw, st); err != nil {
		t.Fatal(err)
	}
	if cw.n != size || int64(len(encodeCheckpoint(st))) != size {
		t.Fatalf("wrote %d bytes, StateSize says %d", cw.n, size)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 4 {
		if err := WriteState(io.Discard, st); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := int64(after.TotalAlloc-before.TotalAlloc) / 4; per > 4*ckptBuffer {
		t.Errorf("writing a %d-byte checkpoint allocated %d bytes, want at most %d", size, per, 4*ckptBuffer)
	}
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	b := encodeCheckpoint(&State{Seq: 5, Graph: testCSR(t, 20)})
	for _, i := range []int{0, 8, 12, 20, len(b) / 2, len(b) - 1} {
		c := append([]byte(nil), b...)
		c[i] ^= 0xff
		if _, err := decodeCheckpoint(c); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
	if _, err := decodeCheckpoint(b[:len(b)-4]); err == nil {
		t.Fatal("truncated checkpoint went undetected")
	}
}

// openSeeded opens dir and writes the seed checkpoint a fresh engine would.
func openSeeded(t *testing.T, dir string, o Options) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !rec.HasState {
		if err := l.WriteCheckpoint(&State{Seq: 0, Graph: testCSR(t, 8)}); err != nil {
			t.Fatalf("seed checkpoint: %v", err)
		}
	}
	return l, rec
}

func TestLogAppendRecover(t *testing.T) {
	dir := t.TempDir()
	l, rec := openSeeded(t, dir, Options{Mode: SyncNone})
	if rec.HasState {
		t.Fatal("fresh dir reported state")
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec2, err := Open(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if !rec2.HasState || rec2.Checkpoint.Seq != 0 {
		t.Fatalf("recovered state: %+v", rec2)
	}
	if len(rec2.Tail) != 5 || rec2.Tail[4].Seq != 5 || rec2.Tail[0].N != 11 {
		t.Fatalf("tail: %d records", len(rec2.Tail))
	}
	if rec2.Truncated {
		t.Fatal("clean log reported truncation")
	}
	// Appends continue the sequence in the same segment.
	if err := l2.Append(testRecord(6)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if s := l2.Stats(); s.Seq != 6 {
		t.Fatalf("stats seq %d, want 6", s.Seq)
	}
}

// TestTornTailEveryOffset is the kill-mid-write simulation: the log is cut
// at EVERY byte offset of the final record, and recovery must come back
// with exactly the earlier records, truncating the torn tail.
func TestTornTailEveryOffset(t *testing.T) {
	base := t.TempDir()
	l, _ := openSeeded(t, base, Options{Mode: SyncNone})
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	sizeBefore := l.size
	if err := l.Append(testRecord(4)); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.Close()

	seg := filepath.Join(base, segmentName(0))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(base, ckptName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for cut := int(sizeBefore); cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ckptName(0)), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec, err := Open(dir, Options{Mode: SyncNone})
		if err != nil {
			t.Fatalf("cut %d: Open failed: %v", cut, err)
		}
		if len(rec.Tail) != 3 {
			t.Fatalf("cut %d: recovered %d records, want 3", cut, len(rec.Tail))
		}
		if cut > int(sizeBefore) && !rec.Truncated {
			t.Fatalf("cut %d: truncation not reported", cut)
		}
		// The torn bytes are gone from disk and the log continues cleanly.
		if err := l2.Append(testRecord(4)); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		l2.Close()
		l3, rec3, err := Open(dir, Options{Mode: SyncNone})
		if err != nil || len(rec3.Tail) != 4 {
			t.Fatalf("cut %d: re-recovery got %d records, err %v", cut, len(rec3.Tail), err)
		}
		l3.Close()
	}
}

func TestCorruptMidLogTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone})
	var offsets []int64
	for seq := uint64(1); seq <= 4; seq++ {
		offsets = append(offsets, l.size)
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seg := filepath.Join(dir, segmentName(0))
	b, _ := os.ReadFile(seg)
	b[offsets[2]+frameHeader+3] ^= 0xff // corrupt record 3's payload
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatalf("Open over corruption: %v", err)
	}
	defer l2.Close()
	if len(rec.Tail) != 2 || !rec.Truncated {
		t.Fatalf("recovered %d records (truncated %v), want 2 truncated", len(rec.Tail), rec.Truncated)
	}
	if fi, _ := os.Stat(seg); fi.Size() != offsets[2] {
		t.Fatalf("segment not truncated at corruption: %d != %d", fi.Size(), offsets[2])
	}
}

func TestRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone, SegmentBytes: 1}) // rotate every append
	for seq := uint64(1); seq <= 6; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := OSFS().ReadDir(dir)
	segsBefore := 0
	for _, n := range names {
		if _, ok := parseSeq(n, "wal-", ".log"); ok {
			segsBefore++
		}
	}
	if segsBefore < 5 {
		t.Fatalf("expected rotation to produce many segments, got %d", segsBefore)
	}
	// Checkpoint at 4 prunes sealed segments fully covered by it.
	if err := l.WriteCheckpoint(&State{Seq: 4, Graph: testCSR(t, 8)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, rec, err := Open(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatalf("reopen after prune: %v", err)
	}
	defer l2.Close()
	if rec.Checkpoint.Seq != 4 {
		t.Fatalf("checkpoint seq %d", rec.Checkpoint.Seq)
	}
	if len(rec.Tail) != 2 || rec.Tail[0].Seq != 5 {
		t.Fatalf("tail after prune: %+v", rec.Tail)
	}
	names, _ = OSFS().ReadDir(dir)
	segsAfter := 0
	for _, n := range names {
		if _, ok := parseSeq(n, "wal-", ".log"); ok {
			segsAfter++
		}
	}
	if segsAfter >= segsBefore {
		t.Fatalf("prune removed nothing: %d -> %d segments", segsBefore, segsAfter)
	}
}

func TestInvalidNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone})
	for seq := uint64(1); seq <= 3; seq++ {
		l.Append(testRecord(seq))
	}
	if err := l.WriteCheckpoint(&State{Seq: 2, Graph: testCSR(t, 8)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Corrupt the newest checkpoint; recovery must fall back to seq 0 and
	// remove the garbage file.
	name := filepath.Join(dir, ckptName(2))
	b, _ := os.ReadFile(name)
	b[len(b)/2] ^= 0xff
	os.WriteFile(name, b, 0o644)
	l2, rec, err := Open(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec.Checkpoint.Seq != 0 {
		t.Fatalf("fell back to checkpoint %d, want 0", rec.Checkpoint.Seq)
	}
	if len(rec.Tail) != 3 {
		t.Fatalf("tail %d records, want 3 (replay from 0)", len(rec.Tail))
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint file not removed")
	}
}

func TestSegmentsWithoutCheckpointRefuse(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), appendRecord(nil, testRecord(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Mode: SyncNone}); err == nil {
		t.Fatal("Open accepted segments with no checkpoint")
	}
}

func TestHasState(t *testing.T) {
	dir := t.TempDir()
	if ok, _ := HasState(dir, nil); ok {
		t.Fatal("empty dir has state")
	}
	if ok, _ := HasState(filepath.Join(dir, "absent"), nil); ok {
		t.Fatal("absent dir has state")
	}
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone})
	l.Close()
	if ok, _ := HasState(dir, nil); !ok {
		t.Fatal("seeded dir has no state")
	}
}

func TestShortWriteDegrades(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone})
	l.Close()
	fs := InjectFS(OSFS(), fault.NewIOInjector(fault.IOPlan{ShortWriteAt: 2}))
	l2, _, err := Open(dir, Options{Mode: SyncNone, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(testRecord(1)); err != nil {
		t.Fatalf("first append: %v", err)
	}
	err = l2.Append(testRecord(2))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("short write surfaced as %v", err)
	}
	if !l2.Degraded() {
		t.Fatal("log not degraded after short write")
	}
	// Sticky: later appends fail fast with the same cause.
	if err := l2.Append(testRecord(3)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append after degradation: %v", err)
	}
	if s := l2.Stats(); !s.Degraded || s.Err == nil {
		t.Fatalf("stats do not surface degradation: %+v", s)
	}
	l2.Close()

	// The half-written record is a torn tail: recovery keeps record 1.
	l3, rec, err := Open(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatalf("recovery after short write: %v", err)
	}
	defer l3.Close()
	if len(rec.Tail) != 1 || !rec.Truncated {
		t.Fatalf("recovered %d records (truncated %v), want 1 truncated", len(rec.Tail), rec.Truncated)
	}
}

func TestFsyncErrorDegrades(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone})
	l.Close()
	// Sync 1 is allowed (none happens before the appends); all fail from the
	// first, so the first SyncAlways append degrades.
	fs := InjectFS(OSFS(), fault.NewIOInjector(fault.IOPlan{FailSyncsFrom: 1}))
	l2, _, err := Open(dir, Options{Mode: SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(testRecord(1)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append under failing fsync: %v", err)
	}
	if !l2.Degraded() {
		t.Fatal("log not degraded after fsync failure")
	}
	l2.Close()
	// The record bytes DID reach the file (only the fsync failed in the
	// injected world); recovery picks them up — at-least-once, never lost
	// silently.
	l3, rec, err := Open(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(rec.Tail) != 1 {
		t.Fatalf("recovered %d records", len(rec.Tail))
	}
}

func TestCorruptWriteCaughtOnRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone})
	l.Close()
	fs := InjectFS(OSFS(), fault.NewIOInjector(fault.IOPlan{CorruptWriteAt: 2}))
	l2, _, err := Open(dir, Options{Mode: SyncNone, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l2.Append(testRecord(seq)); err != nil {
			t.Fatalf("append %d: %v", seq, err) // silent corruption: no error here
		}
	}
	l2.Close()
	l3, rec, err := Open(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatalf("recovery over silent corruption: %v", err)
	}
	defer l3.Close()
	if len(rec.Tail) != 1 || !rec.Truncated {
		t.Fatalf("recovered %d records (truncated %v), want 1 truncated at the corrupt record", len(rec.Tail), rec.Truncated)
	}
}

func TestCheckpointWriteFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone})
	l.Append(testRecord(1))
	// Fail every write from the next one: the checkpoint temp write fails.
	fs := InjectFS(OSFS(), fault.NewIOInjector(fault.IOPlan{FailWritesFrom: 1}))
	l.fs = fs
	err := l.WriteCheckpoint(&State{Seq: 1, Graph: testCSR(t, 8)})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("checkpoint under dead disk: %v", err)
	}
	if !l.Degraded() {
		t.Fatal("log not degraded after checkpoint failure")
	}
	l.Close()
	// The old checkpoint still anchors recovery.
	l2, rec, err := Open(dir, Options{Mode: SyncNone})
	if err != nil || rec.Checkpoint.Seq != 0 || len(rec.Tail) != 1 {
		t.Fatalf("recovery after failed checkpoint: ckpt %v tail %d err %v", rec.Checkpoint, len(rec.Tail), err)
	}
	l2.Close()
}

func TestStatsLastSync(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncAlways})
	defer l.Close()
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.LastSync.IsZero() {
		t.Fatal("SyncAlways append left LastSync zero")
	}
}

func TestRecoverLargeTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone})
	const n = 500
	for seq := uint64(1); seq <= n; seq++ {
		r := testRecord(seq)
		r.Keys = []string{fmt.Sprintf("key-%d", seq)}
		r.KeyBase = uint32(seq - 1)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, rec, err := Open(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Tail) != n {
		t.Fatalf("recovered %d of %d", len(rec.Tail), n)
	}
	if rec.Tail[n-1].Keys[0] != fmt.Sprintf("key-%d", n) {
		t.Fatalf("keys lost in replay: %q", rec.Tail[n-1].Keys)
	}
}

// segmentBytes reads every segment file in dir, keyed by name.
func segmentBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	segs := make(map[string][]byte, len(names))
	for _, n := range names {
		if segs[filepath.Base(n)], err = os.ReadFile(n); err != nil {
			t.Fatal(err)
		}
	}
	return segs
}

// TestFallbackCheckpointWithPrunedTailRefuses: once a checkpoint has pruned
// the segments behind it, the fallback checkpoint no longer has a tail to
// replay. Recovering from it would cut the surviving log down to nothing —
// acknowledged records lost without an error — so Open refuses and leaves
// every segment byte for byte as it was.
func TestFallbackCheckpointWithPrunedTailRefuses(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone, SegmentBytes: 1}) // rotate every append
	for seq := uint64(1); seq <= 6; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(&State{Seq: 4, Graph: testCSR(t, 8)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	name := filepath.Join(dir, ckptName(4))
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(name, b, 0o644); err != nil {
		t.Fatal(err)
	}
	before := segmentBytes(t, dir)
	l2, rec, err := Open(dir, Options{Mode: SyncNone})
	if err == nil {
		l2.Close()
		t.Fatalf("Open fell back to checkpoint %d over a pruned tail and recovered %d records",
			rec.Checkpoint.Seq, len(rec.Tail))
	}
	if !errors.Is(err, ErrPruned) {
		t.Fatalf("Open refused with %v, want ErrPruned", err)
	}
	after := segmentBytes(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refused Open left %d segments, want the %d it found", len(after), len(before))
	}
	for n, want := range before {
		if got, ok := after[n]; !ok || !bytes.Equal(got, want) {
			t.Fatalf("refused Open changed %s: %d bytes, want %d", n, len(got), len(want))
		}
	}
}

// TestRecoveryAfterGapStaysFollowable: a missing middle segment ends the
// log where the gap starts, and the log continues from there, so a reader
// following from the recovered tip receives the next record and a second
// recovery keeps it.
func TestRecoveryAfterGapStaysFollowable(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone, SegmentBytes: 1}) // rotate every append
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if err := os.Remove(filepath.Join(dir, segmentName(1))); err != nil { // record 2
		t.Fatal(err)
	}
	l2, rec, err := Open(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatalf("Open over a gap: %v", err)
	}
	if len(rec.Tail) != 1 || !rec.Truncated {
		t.Fatalf("recovered %d records (truncated %v), want 1 truncated", len(rec.Tail), rec.Truncated)
	}
	tip := l2.Stats().Seq
	if err := l2.Append(testRecord(tip + 1)); err != nil {
		t.Fatal(err)
	}
	wantSeqs(t, readAll(t, l2.SegmentReader(tip)), tip+1)
	l2.Close()
	l3, rec3, err := Open(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer l3.Close()
	if len(rec3.Tail) != 2 || rec3.Tail[1].Seq != tip+1 || rec3.Truncated {
		t.Fatalf("second recovery: %d records (truncated %v), want %d clean", len(rec3.Tail), rec3.Truncated, 2)
	}
}

// TestRecoveryIgnoresDamageBehindCheckpoint: a crash between a checkpoint's
// rename and its prune leaves segments the checkpoint already covers. Replay
// starts at the checkpoint, so damage in such a segment cannot cut the tail
// that follows it.
func TestRecoveryIgnoresDamageBehindCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _ := openSeeded(t, dir, Options{Mode: SyncNone, SegmentBytes: 1}) // rotate every append
	for seq := uint64(1); seq <= 6; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatal(err)
		}
	}
	covered := filepath.Join(dir, segmentName(3)) // record 4
	saved, err := os.ReadFile(covered)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(&State{Seq: 4, Graph: testCSR(t, 8)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := os.Stat(covered); !os.IsNotExist(err) {
		t.Fatalf("checkpoint 4 did not prune %s", covered)
	}
	saved[frameHeader+3] ^= 0xff
	if err := os.WriteFile(covered, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(dir, Options{Mode: SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if rec.Checkpoint.Seq != 4 || len(rec.Tail) != 2 || rec.Tail[0].Seq != 5 || rec.Tail[1].Seq != 6 || rec.Truncated {
		t.Fatalf("recovered checkpoint %d + %d records (truncated %v), want 4 + records 5, 6",
			rec.Checkpoint.Seq, len(rec.Tail), rec.Truncated)
	}
}
