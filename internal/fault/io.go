package fault

import (
	"errors"
	"sync/atomic"
)

// This file extends the fault substrate from compute faults (delays,
// crash-stop workers) to storage faults: short writes, fsync failures, and
// silent on-media corruption. The durability layer threads every write and
// sync through an IOInjector so its error paths — torn records, failed
// checkpoints, degraded-but-serving engines — are drilled by tests instead
// of discovered in production.

// ErrInjected is the error returned by injected write and sync failures.
// errors.Is identifies it through any wrapping the storage layer adds.
var ErrInjected = errors.New("fault: injected I/O error")

// IOPlan describes storage faults to inject. Operations are counted from 1
// in injector lifetime order, writes and syncs separately; the zero plan
// injects nothing. The three modes mirror the real failure classes a
// write-ahead log must survive: a crash mid-write (short write), a disk
// refusing to flush (fsync error), and bit rot the next reader must detect
// (corrupt checksum).
type IOPlan struct {
	// ShortWriteAt makes the Nth write persist only the first half of its
	// payload and then fail with ErrInjected — a torn record.
	ShortWriteAt int
	// FailWritesFrom makes every write from the Nth onward fail with
	// ErrInjected without persisting anything — a dead disk.
	FailWritesFrom int
	// FailSyncsFrom makes every sync from the Nth onward fail with
	// ErrInjected — data reaches the page cache but never stable storage.
	FailSyncsFrom int
	// CorruptWriteAt flips one byte of the Nth write's payload and reports
	// success — silent corruption a checksum must catch on read.
	CorruptWriteAt int
}

// None reports whether the plan injects nothing.
func (p IOPlan) None() bool {
	return p.ShortWriteAt <= 0 && p.FailWritesFrom <= 0 && p.FailSyncsFrom <= 0 && p.CorruptWriteAt <= 0
}

// IOInjector is the runtime form of an IOPlan. Safe for concurrent use; the
// operation counters are global across every file the injector covers.
type IOInjector struct {
	plan   IOPlan
	writes atomic.Int64
	syncs  atomic.Int64
}

// NewIOInjector materialises a plan. A nil return means the plan injects
// nothing; callers treat a nil *IOInjector as a transparent pass-through.
func NewIOInjector(p IOPlan) *IOInjector {
	if p.None() {
		return nil
	}
	return &IOInjector{plan: p}
}

// OnWrite decides the fate of one write of len(b) bytes. It returns the
// bytes that must actually be persisted (possibly shortened or corrupted —
// never aliasing b when mutated) and the error the write must report after
// persisting them.
func (in *IOInjector) OnWrite(b []byte) (persist []byte, err error) {
	if in == nil {
		return b, nil
	}
	n := in.writes.Add(1)
	if in.plan.FailWritesFrom > 0 && n >= int64(in.plan.FailWritesFrom) {
		return nil, ErrInjected
	}
	if in.plan.ShortWriteAt > 0 && n == int64(in.plan.ShortWriteAt) {
		return b[:len(b)/2], ErrInjected
	}
	if in.plan.CorruptWriteAt > 0 && n == int64(in.plan.CorruptWriteAt) && len(b) > 0 {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 0xff
		return c, nil
	}
	return b, nil
}

// OnSync decides the fate of one sync.
func (in *IOInjector) OnSync() error {
	if in == nil {
		return nil
	}
	if n := in.syncs.Add(1); in.plan.FailSyncsFrom > 0 && n >= int64(in.plan.FailSyncsFrom) {
		return ErrInjected
	}
	return nil
}
