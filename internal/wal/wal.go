package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncMode selects when appended records are fsynced.
type SyncMode int

const (
	// SyncBatched fsyncs from a background flusher every Interval — the
	// group-commit default that keeps fsync latency off the apply path. A
	// crash loses at most the last interval of acknowledged writes.
	SyncBatched SyncMode = iota
	// SyncAlways fsyncs inside every Append before it returns.
	SyncAlways
	// SyncNone never fsyncs on its own; only explicit Sync/Close flush. The
	// OS decides when data reaches media.
	SyncNone
)

// Options configure a Log.
type Options struct {
	// Mode and Interval set the fsync policy (Interval only for SyncBatched;
	// DefaultSyncInterval when zero).
	Mode     SyncMode
	Interval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (DefaultSegmentBytes when zero). Rotation is what makes pruning after
	// a checkpoint possible: only whole sealed segments are deleted.
	SegmentBytes int64
	// FS overrides the filesystem (fault injection); nil means the OS.
	FS FS
	// OnFsync, when set, is called with the duration of every successful
	// fsync of the record log — the engine's latency-histogram hook, kept as
	// a callback so the wal layer stays free of telemetry dependencies. It
	// runs under the log's append lock and must not call back into the Log.
	OnFsync func(time.Duration)
}

const (
	// DefaultSyncInterval is the SyncBatched flush cadence.
	DefaultSyncInterval = 50 * time.Millisecond
	// DefaultSegmentBytes is the segment rotation threshold.
	DefaultSegmentBytes = int64(64 << 20)
	// keepCheckpoints is how many newest checkpoint files survive pruning:
	// the latest plus one fallback in case the latest is found corrupt. The
	// fallback is usable only while its tail survives: once the latest's
	// prune has removed the segments between the two, recovery refuses the
	// fallback rather than truncate the log to it.
	keepCheckpoints = 2
)

// Recovered is what Open reconstructed from an existing directory.
type Recovered struct {
	// HasState reports whether a valid checkpoint was found; the remaining
	// fields are meaningful only when set.
	HasState bool
	// Checkpoint is the latest valid checkpoint's state.
	Checkpoint *State
	// Tail holds the log records with Seq > Checkpoint.Seq, in order, ending
	// at the first torn or invalid record (which was truncated away).
	Tail []Record
	// Truncated reports that a torn or corrupt tail was cut off.
	Truncated bool
}

// Stats is a point-in-time snapshot of the log's durability state.
type Stats struct {
	// Seq is the last record sequence appended (or recovered).
	Seq uint64
	// CheckpointSeq is the sequence of the latest durable checkpoint.
	CheckpointSeq uint64
	// LastSync is when an fsync last succeeded (zero before the first).
	LastSync time.Time
	// Degraded reports the sticky failure state; Err is its cause.
	Degraded bool
	Err      error
	// WALBytes and CheckpointBytes count the record and checkpoint file
	// bytes this Log has written since Open.
	WALBytes, CheckpointBytes int64
	// SinceCheckpoint is the record bytes logged past the newest checkpoint,
	// and CheckpointSize that checkpoint's file size: CheckpointDue compares
	// the two. Both are read back from the directory at Open.
	SinceCheckpoint, CheckpointSize int64
}

// Log is an append-only record log plus checkpoint store in one directory:
// segment files wal-<base>.log holding records (base, next base], and
// checkpoint files checkpoint-<seq>.ckpt. Append/Sync are safe for
// concurrent use with WriteCheckpoint and Stats.
type Log struct {
	dir  string
	fs   FS
	opts Options

	mu     sync.Mutex
	f      File
	base   uint64 // active segment's base sequence
	size   int64
	dirty  bool
	buf    []byte
	notify chan struct{} // closed on append to wake AppendWait followers

	ckptMu sync.Mutex // serialises WriteCheckpoint

	// Atomics so Stats and Degraded read them without the lock: Append and
	// the flusher hold mu across an fsync, and a liveness probe must not
	// wait on a disk flush. Writers hold mu.
	seq      atomic.Uint64         // last appended sequence
	cause    atomic.Pointer[error] // sticky degradation cause; nil while healthy
	ckptSeq  atomic.Uint64
	lastSync atomic.Int64 // unix nanos of the last successful fsync
	// Byte counts behind Stats and CheckpointDue.
	walBytes, ckptBytes atomic.Int64
	sinceCkpt, ckptSize atomic.Int64

	stop chan struct{}
	done chan struct{}
}

func segmentName(base uint64) string { return fmt.Sprintf("wal-%016x.log", base) }
func ckptName(seq uint64) string     { return fmt.Sprintf("checkpoint-%016x.ckpt", seq) }
func parseSeq(name, pre, suf string) (uint64, bool) {
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name[len(pre):len(name)-len(suf)], "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// scan lists the directory once: checkpoint seqs newest first, segment
// bases ascending. With dropTmp it also removes stale *.tmp files; only
// recovery passes it, because on a live log the temp file may belong to a
// checkpoint being written right now.
func (l *Log) scan(dropTmp bool) (ckpts, segs []uint64, err error) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: scan %s: %w", l.dir, err)
	}
	for _, n := range names {
		if seq, ok := parseSeq(n, "checkpoint-", ".ckpt"); ok {
			ckpts = append(ckpts, seq)
		} else if base, ok := parseSeq(n, "wal-", ".log"); ok {
			segs = append(segs, base)
		} else if dropTmp && strings.HasSuffix(n, ".tmp") {
			_ = l.fs.Remove(filepath.Join(l.dir, n))
		}
	}
	slices.Sort(ckpts)
	slices.Reverse(ckpts)
	slices.Sort(segs)
	return ckpts, segs, nil
}

// newestCheckpoint returns the first of ckpts (newest first) that reads
// back valid and its file size, nil when none does. With drop, every
// invalid file passed on the way is removed: a checkpoint that cannot be
// read back is garbage by definition (its replacement rule is "previous
// file still exists"), and left in place it would shadow the valid fallback
// at the next recovery.
func (l *Log) newestCheckpoint(ckpts []uint64, drop bool) (*State, int64) {
	for _, seq := range ckpts {
		name := filepath.Join(l.dir, ckptName(seq))
		if b, err := l.fs.ReadFile(name); err == nil {
			if st, derr := decodeCheckpoint(b); derr == nil && st.Seq == seq {
				return st, int64(len(b))
			}
		}
		if drop {
			_ = l.fs.Remove(name)
		}
	}
	return nil, 0
}

// HasState reports whether dir holds durable engine state (any checkpoint
// file), without opening the log.
func HasState(dir string, fs FS) (bool, error) {
	if fs == nil {
		fs = OSFS()
	}
	ckpts, _, err := (&Log{dir: dir, fs: fs}).scan(false)
	return err == nil && len(ckpts) > 0, nil // absent directory: no state
}

// Open opens (creating if needed) the durability directory, recovers the
// latest valid checkpoint and the log tail behind it per the torn-tail rule,
// and returns the log positioned to append the next record. The caller
// seeds a fresh directory by writing checkpoint 0 before the first Append.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	if opts.FS == nil {
		opts.FS = OSFS()
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultSyncInterval
	}
	l := &Log{dir: dir, fs: opts.FS, opts: opts}
	if err := l.fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create %s: %w", dir, err)
	}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	if l.opts.Mode == SyncBatched {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flusher()
	}
	return l, rec, nil
}

// recover loads the newest valid checkpoint (invalid ones and stale temp
// files are removed) and replays the log past it through a SegmentReader,
// the same reader the replication feed follows a live log with. The reader
// stops at the end of the log or at the first short, corrupt or
// out-of-sequence record, and where it stopped is where the log ends: the
// bytes past it are truncated, later segments are removed, and its segment
// becomes the active one. A torn tail is never an error. A checkpoint whose
// tail was pruned is: replaying from it would drop acknowledged records, so
// Open refuses and leaves every segment as it found it.
func (l *Log) recover() (*Recovered, error) {
	ckpts, segs, err := l.scan(true)
	if err != nil {
		return nil, err
	}
	rec := &Recovered{}
	if st, size := l.newestCheckpoint(ckpts, true); st != nil {
		rec.HasState, rec.Checkpoint = true, st
		l.ckptSeq.Store(st.Seq)
		l.ckptSize.Store(size)
	} else if len(segs) > 0 {
		// Log segments with no checkpoint to anchor them: replay has no base
		// state, which only a damaged directory produces (the engine writes
		// checkpoint 0 before the first append). Refuse rather than guess.
		return nil, fmt.Errorf("wal: %s holds log segments but no valid checkpoint", l.dir)
	}

	after := l.ckptSeq.Load()
	r := l.SegmentReader(after)
	for {
		x, err := r.Next()
		if err == nil {
			rec.Tail = append(rec.Tail, x)
			continue
		}
		if errors.Is(err, ErrPruned) {
			return nil, fmt.Errorf("wal: %s: refusing checkpoint %d: %w", l.dir, after, err)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, ErrCorrupt) {
			return nil, err
		}
		break
	}
	l.seq.Store(r.seq)
	l.sinceCkpt.Store(r.read)
	l.base, l.size = r.base, r.off
	if !r.pos {
		l.base = after // no segment yet: the first one starts at the checkpoint
	}
	if len(r.buf) > 0 {
		// Torn or corrupt tail: cut the segment at the last valid record.
		rec.Truncated = true
		name := filepath.Join(l.dir, segmentName(r.base))
		if err := l.fs.Truncate(name, r.off); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
		}
	}
	for _, later := range segs {
		if later > r.base {
			rec.Truncated = true
			_ = l.fs.Remove(filepath.Join(l.dir, segmentName(later)))
		}
	}
	return rec, l.openActive()
}

// openActive opens the active segment for appending (creating it fresh when
// the directory had none).
func (l *Log) openActive() error {
	f, err := l.fs.OpenAppend(filepath.Join(l.dir, segmentName(l.base)))
	if err != nil {
		return fmt.Errorf("wal: open active segment: %w", err)
	}
	l.f = f
	return nil
}

// Append logs one record. With SyncAlways the record is on stable storage
// when Append returns; otherwise the flusher (or an explicit Sync) makes it
// durable. Once the log has degraded, Append returns the sticky cause
// without touching the disk — the engine's cue to keep going in memory.
func (l *Log) Append(r *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.err(); err != nil {
		return err
	}
	if l.size >= l.opts.SegmentBytes && l.seq.Load() > l.base {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	l.buf = appendRecord(l.buf[:0], r)
	n, err := l.f.Write(l.buf)
	if err != nil {
		return l.degradeLocked(fmt.Errorf("append record %d: %w", r.Seq, err))
	}
	l.size += int64(n)
	l.walBytes.Add(int64(n))
	l.sinceCkpt.Add(int64(n))
	l.seq.Store(r.Seq)
	l.dirty = true
	l.notifyLocked()
	if l.opts.Mode == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// Sync flushes appended records to stable storage. A no-op when nothing is
// dirty.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.err(); err != nil {
		return err
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return l.degradeLocked(fmt.Errorf("fsync segment %d: %w", l.base, err))
	}
	l.dirty = false
	l.lastSync.Store(time.Now().UnixNano())
	if l.opts.OnFsync != nil {
		l.opts.OnFsync(time.Since(t0))
	}
	return nil
}

// rotateLocked seals the active segment (flushing it) and starts a fresh
// one based at the last appended sequence.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return l.degradeLocked(fmt.Errorf("seal segment %d: %w", l.base, err))
	}
	seq := l.seq.Load()
	f, err := l.fs.OpenAppend(filepath.Join(l.dir, segmentName(seq)))
	if err != nil {
		return l.degradeLocked(fmt.Errorf("rotate to segment %d: %w", seq, err))
	}
	l.f, l.base, l.size = f, seq, 0
	return nil
}

// degradeLocked enters the sticky failure state: the cause is recorded,
// every later Append/Sync returns it cheaply, and Stats reports Degraded.
func (l *Log) degradeLocked(err error) error {
	err = fmt.Errorf("wal: %w", err)
	l.cause.Store(&err)
	return err
}

// err returns the sticky degradation cause, nil while healthy.
func (l *Log) err() error {
	if cause := l.cause.Load(); cause != nil {
		return *cause
	}
	return nil
}

// Degraded reports the sticky failure state without taking the lock.
func (l *Log) Degraded() bool { return l.cause.Load() != nil }

// CheckpointDue reports whether a checkpoint should be written now: the
// record bytes logged past the newest checkpoint have reached that
// checkpoint's file size, and the log is healthy. Checkpointing at that
// point keeps the checkpoint bytes written at most the log's, and the tail
// a restart replays at most one checkpoint's worth of records: the cost of
// checkpoints follows the log, not the graph.
func (l *Log) CheckpointDue() bool {
	return !l.Degraded() && l.sinceCkpt.Load() >= l.ckptSize.Load()
}

// WriteCheckpoint makes st durable — streamed to a temp file, fsync,
// rename, directory fsync — then prunes: checkpoints beyond the newest two
// and every sealed segment whose records are all covered by st.Seq are
// removed, and the active segment is rotated so the next checkpoint can
// prune the rounds logged before this one. Concurrent Appends proceed
// during the (possibly large) checkpoint write; only the final rotation
// takes the append lock. A state older than the newest checkpoint is not
// written: it would bound no replay. The record bytes counted toward the
// next checkpoint start at this one's write, so a restart, which counts
// every record past st.Seq, may count the few logged between st's version
// and the write as well.
func (l *Log) WriteCheckpoint(st *State) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	if err := l.err(); err != nil {
		return err
	}
	if st.Seq < l.ckptSeq.Load() {
		return nil
	}
	since := l.sinceCkpt.Load()
	size := StateSize(st)
	tmp := filepath.Join(l.dir, fmt.Sprintf("checkpoint-%016x.tmp", st.Seq))
	final := filepath.Join(l.dir, ckptName(st.Seq))
	err := func() error {
		f, err := l.fs.Create(tmp)
		if err != nil {
			return err
		}
		if err := WriteState(f, st); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := l.fs.Rename(tmp, final); err != nil {
			return err
		}
		return l.fs.SyncDir(l.dir)
	}()
	if err != nil {
		_ = l.fs.Remove(tmp)
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.degradeLocked(fmt.Errorf("checkpoint %d: %w", st.Seq, err))
	}
	l.ckptSeq.Store(st.Seq)
	l.ckptBytes.Add(size)
	l.ckptSize.Store(size)
	l.sinceCkpt.Add(-since)

	l.mu.Lock()
	if l.err() == nil && l.seq.Load() > l.base {
		// Rotate so the rounds logged before this checkpoint sit in sealed
		// segments a FUTURE checkpoint can prune; errors here degrade but the
		// checkpoint itself already succeeded.
		_ = l.rotateLocked()
	}
	l.mu.Unlock()
	l.prune(st.Seq)
	return nil
}

// prune removes checkpoint files beyond the newest keepCheckpoints and
// sealed segments fully covered by the checkpoint at seq: a segment is
// removable when the NEXT segment's base is ≤ seq (every record it holds is
// ≤ that base). Removal is best-effort — a leftover file only costs disk.
func (l *Log) prune(seq uint64) {
	ckpts, segs, err := l.scan(false)
	if err != nil {
		return
	}
	for _, s := range ckpts[min(len(ckpts), keepCheckpoints):] {
		_ = l.fs.Remove(filepath.Join(l.dir, ckptName(s)))
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= seq {
			_ = l.fs.Remove(filepath.Join(l.dir, segmentName(segs[i])))
		}
	}
}

// Stats returns the log's current durability state. It takes no lock, so
// it returns while an Append or the flusher sits in an fsync.
func (l *Log) Stats() Stats {
	s := Stats{
		Seq: l.seq.Load(), CheckpointSeq: l.ckptSeq.Load(), Err: l.err(),
		WALBytes: l.walBytes.Load(), CheckpointBytes: l.ckptBytes.Load(),
		SinceCheckpoint: l.sinceCkpt.Load(), CheckpointSize: l.ckptSize.Load(),
	}
	s.Degraded = s.Err != nil
	if ns := l.lastSync.Load(); ns != 0 {
		s.LastSync = time.Unix(0, ns)
	}
	return s
}

// flusher is the SyncBatched group-commit goroutine.
func (l *Log) flusher() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			_ = l.Sync() // degradation is sticky; nothing to do here
		}
	}
}

// Close flushes and closes the log. The sticky degraded cause (if any) is
// returned, but closing always completes.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
		l.stop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.notifyLocked()
	err := l.err()
	if err == nil {
		err = l.syncLocked()
	}
	if l.f != nil {
		if cerr := l.f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("wal: close segment: %w", cerr)
		}
		l.f = nil
	}
	return err
}
