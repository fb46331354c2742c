// Package sched provides the work-scheduling substrate that stands in for
// OpenMP in this reproduction: dynamic chunk scheduling over a shared atomic
// work pool (the paper's `schedule(dynamic, 2048)`), static and
// edge-balanced partitioning (§1's alternative strategies), a continuous
// round scheduler for barrier-free iteration (the `nowait` loops of the
// lock-free variants), and an instrumented barrier that measures per-worker
// wait time (used to regenerate Figure 1) and deterministically detects the
// deadlock a crashed participant causes in barrier-based algorithms.
package sched

import (
	"errors"
	"sync"
	"time"

	"dfpr/internal/avec"
)

// DefaultChunk is the vertex chunk size used throughout the paper (§5.1.2).
const DefaultChunk = 2048

// Pool is a dynamic scheduler over the index range [0, n): workers call Next
// until it reports done, each receiving the next chunk. It is the Go
// equivalent of an OpenMP `for schedule(dynamic, chunk)` work-sharing
// construct: any idle worker takes the next chunk, so load imbalance is
// bounded by one chunk per worker.
//
// Chunks are either uniform (fixed index count, NewPool) or edge-balanced
// (precomputed boundaries holding roughly equal total weight,
// NewPoolBounds): on power-law graphs a uniform vertex chunk can hold a
// single hub's worth of edges many times over, serialising the whole pass
// behind one worker, which is what degree-aware boundaries avoid.
type Pool struct {
	next    avec.Counter
	aborted avec.Counter // non-zero once Abort has been called
	n       int
	chunk   int
	bounds  []int // nil → uniform chunks of size chunk
}

// NewPool returns a dynamic chunk pool over [0, n) with uniform chunks. A
// non-positive chunk selects DefaultChunk.
func NewPool(n, chunk int) *Pool {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	return &Pool{n: n, chunk: chunk}
}

// NewPoolBounds returns a dynamic pool dispensing the precomputed chunks
// bounds[t]..bounds[t+1]; bounds must be ascending with bounds[0]=0 and
// bounds[len-1]=n (see BalancedBounds).
func NewPoolBounds(bounds []int) *Pool {
	n := 0
	if len(bounds) > 0 {
		n = bounds[len(bounds)-1]
	}
	return &Pool{n: n, chunk: DefaultChunk, bounds: bounds}
}

// Next returns the next chunk [lo, hi) and ok=true, or ok=false when the
// range is exhausted.
func (p *Pool) Next() (lo, hi int, ok bool) {
	if p.aborted.Load() != 0 {
		return 0, 0, false
	}
	t := int(p.next.Add(1)) - 1
	if p.bounds != nil {
		if t+1 >= len(p.bounds) {
			return 0, 0, false
		}
		return p.bounds[t], p.bounds[t+1], true
	}
	lo = t * p.chunk
	if lo >= p.n {
		return 0, 0, false
	}
	hi = lo + p.chunk
	if hi > p.n {
		hi = p.n
	}
	return lo, hi, true
}

// Reset rewinds the pool for another pass. It must not race with Next; in
// the barrier-based algorithms one worker resets between barrier phases.
// Reset does not clear an abort: an aborted pool stays drained.
func (p *Pool) Reset() { p.next.Store(0) }

// Abort permanently drains the pool: every subsequent (and concurrent) Next
// reports done, surviving Reset. It is how a context cancellation reaches
// workers blocked in chunk loops — safe to call from any goroutine, any
// number of times.
func (p *Pool) Abort() { p.aborted.Store(1) }

// Aborted reports whether Abort has been called.
func (p *Pool) Aborted() bool { return p.aborted.Load() != 0 }

// Chunk returns the configured uniform chunk size (advisory for bounds
// pools).
func (p *Pool) Chunk() int { return p.chunk }

// NumChunks returns the number of chunks a full pass dispenses.
func (p *Pool) NumChunks() int {
	if p.bounds != nil {
		return len(p.bounds) - 1
	}
	return (p.n + p.chunk - 1) / p.chunk
}

// Rounds is a continuous ticket scheduler for barrier-free iteration.
// Tickets are dispensed from a single global counter; ticket t maps to chunk
// t mod chunksPerRound of round t / chunksPerRound. Workers therefore flow
// from one pass ("iteration") into the next without ever waiting: a fast
// worker starts round r+1 while a slow or stalled worker is still inside
// round r, which is exactly the behaviour of the paper's top-level parallel
// block with `nowait` dynamic loops (Algorithm 2).
type Rounds struct {
	next           avec.Counter
	aborted        avec.Counter // non-zero once Abort has been called
	chunksPerRound uint64
	bounds         []int
}

// NewRoundsBounds returns a continuous round scheduler dispensing the
// precomputed edge-balanced chunks bounds[c]..bounds[c+1] each round (see
// BalancedBounds).
func NewRoundsBounds(bounds []int) *Rounds {
	cpr := uint64(1)
	if len(bounds) > 1 {
		cpr = uint64(len(bounds) - 1)
	}
	return &Rounds{chunksPerRound: cpr, bounds: bounds}
}

// Next returns the next chunk [lo, hi) and its ticket t, chunk t mod
// ChunksPerRound of round Round(t). Rounds increase without bound; callers
// bound iteration count themselves. After Abort, Next returns an empty chunk
// and ticket MaxUint64, whose round exceeds any caller's iteration bound and
// so terminates every worker's round loop.
func (r *Rounds) Next() (lo, hi int, t uint64) {
	if r.aborted.Load() != 0 {
		return 0, 0, ^uint64(0)
	}
	t = r.next.Add(1) - 1
	c := int(t % r.chunksPerRound)
	if c+1 >= len(r.bounds) {
		return 0, 0, t
	}
	return r.bounds[c], r.bounds[c+1], t
}

// Round returns the round (pass) ticket t belongs to.
func (r *Rounds) Round(t uint64) uint64 { return t / r.chunksPerRound }

// Issued returns how many tickets have been dispensed: every ticket from
// this number on is handed out after the call.
func (r *Rounds) Issued() uint64 { return r.next.Load() }

// ChunksPerRound returns the number of chunks in one full pass.
func (r *Rounds) ChunksPerRound() uint64 { return r.chunksPerRound }

// Abort permanently stops the ticket stream: every subsequent (and
// concurrent) Next reports round MaxUint64. Safe to call from any
// goroutine, any number of times.
func (r *Rounds) Abort() { r.aborted.Store(1) }

// Aborted reports whether Abort has been called.
func (r *Rounds) Aborted() bool { return r.aborted.Load() != 0 }

// Range is a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// StaticRanges splits [0, n) into parties contiguous ranges of nearly equal
// vertex count (vertex-balanced static scheduling).
func StaticRanges(n, parties int) []Range {
	if parties < 1 {
		parties = 1
	}
	out := make([]Range, parties)
	for w := 0; w < parties; w++ {
		out[w] = Range{Lo: w * n / parties, Hi: (w + 1) * n / parties}
	}
	return out
}

// BalancedBounds splits [0, len(weight)) into chunk boundaries such that
// each chunk carries roughly target total weight (prefix-degree tickets):
// weight[v] is typically deg(v)+1, so chunks near a power-law hub hold few
// vertices and chunks in the long tail hold many, equalising per-chunk work
// where uniform vertex chunks serialise on the hub rows. A vertex whose own
// weight exceeds target gets a chunk of its own. The result always has
// bounds[0]=0 and bounds[len-1]=len(weight), suitable for NewPoolBounds and
// NewRoundsBounds.
func BalancedBounds(weight []int, target int) []int {
	n := len(weight)
	if target < 1 {
		target = 1
	}
	bounds := make([]int, 1, n/8+2)
	bounds[0] = 0
	acc := 0
	for v := 0; v < n; v++ {
		acc += weight[v]
		if acc >= target {
			bounds = append(bounds, v+1)
			acc = 0
		}
	}
	if bounds[len(bounds)-1] != n {
		bounds = append(bounds, n)
	}
	return bounds
}

// ErrBroken is returned by Barrier.Await when the barrier can never open
// because one or more participants crashed. It models the deadlock a
// barrier-based algorithm enters when a thread crash-stops (§3.2, Figure 3a)
// — detected deterministically rather than by hanging forever.
var ErrBroken = errors.New("sched: barrier broken: participant crashed, remaining workers would wait forever")

// Barrier is a reusable synchronization barrier for a fixed set of worker
// goroutines, instrumented to record how long each worker spends waiting for
// stragglers. Wait-time accounting regenerates Figure 1.
//
// Crash semantics: a crashed worker calls Crash instead of Await and never
// returns to the barrier. As soon as every surviving worker is blocked in
// Await, no arrival can ever complete the barrier, so Await returns
// ErrBroken to all of them — the deterministic equivalent of the infinite
// wait the paper describes.
type Barrier struct {
	parties int

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	lost    int
	gen     uint64
	broken  bool

	waitNS []int64 // per-worker cumulative wait, guarded by mu
}

// NewBarrier returns a barrier for the given number of participants.
func NewBarrier(parties int) *Barrier {
	b := &Barrier{parties: parties, waitNS: make([]int64, parties)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks worker until all parties have arrived (or crashed, in which
// case it returns ErrBroken). The worker index is used only for wait-time
// attribution.
func (b *Barrier) Await(worker int) error {
	start := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return ErrBroken
	}
	b.arrived++
	if b.lost > 0 && b.arrived+b.lost >= b.parties {
		// Every survivor is here; the lost parties will never arrive.
		b.broken = true
		b.cond.Broadcast()
		return ErrBroken
	}
	if b.arrived == b.parties {
		// Last arrival opens the barrier; it waited for nobody.
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	gen := b.gen
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	if worker >= 0 && worker < len(b.waitNS) {
		b.waitNS[worker] += time.Since(start).Nanoseconds()
	}
	if b.broken {
		return ErrBroken
	}
	return nil
}

// Crash marks one participant as permanently gone. If every surviving
// participant is already waiting, the barrier breaks immediately.
func (b *Barrier) Crash() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lost++
	if b.arrived+b.lost >= b.parties {
		b.broken = true
		b.cond.Broadcast()
	}
}

// Broken reports whether the barrier has been broken by a crash.
func (b *Barrier) Broken() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.broken
}

// WaitTime returns the cumulative time worker spent blocked in Await.
func (b *Barrier) WaitTime(worker int) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Duration(b.waitNS[worker])
}

// TotalWait returns the cumulative wait time across all workers.
func (b *Barrier) TotalWait() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t int64
	for _, ns := range b.waitNS {
		t += ns
	}
	return time.Duration(t)
}

// Run starts `workers` goroutines executing fn(workerID) and blocks until
// all return. It is the moral equivalent of one top-level OpenMP parallel
// region.
func Run(workers int, fn func(worker int)) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
