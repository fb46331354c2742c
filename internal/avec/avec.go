// Package avec provides the atomic vector primitives the lock-free PageRank
// algorithms are built on: a shared float64 rank vector with atomic
// load/store semantics, and a lock-free per-vertex flag vector.
//
// The paper (Sahu, "Lock-Free Computation of PageRank in Dynamic Graphs")
// relies on racy-but-word-atomic accesses to a shared C++ double vector and
// on 8-bit flag vectors (VA, C, RC). Go's memory model requires explicit
// atomics for that pattern, so ranks are stored as []uint64 and bit-cast via
// math.Float64bits / math.Float64frombits on every access (F64Of lays such
// a vector over a []float64, which is filled and read plainly while no
// other goroutine can reach it), and flags are a word-packed bitset (Flags)
// using compare-and-swap on 64-bit words, whose all-zero detection scans
// n/64 words.
package avec

import (
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// F64 is a fixed-length vector of float64 values supporting atomic,
// race-free load and store of individual elements. It is the shared rank
// vector used by the asynchronous (lock-free) PageRank variants: many
// workers read and write elements concurrently; writes are last-write-wins
// and reads never observe torn values.
type F64 struct {
	bits []uint64
}

// NewF64 returns a zeroed atomic float64 vector of length n.
func NewF64(n int) *F64 {
	return &F64{bits: make([]uint64, n)}
}

// F64Of returns a vector over xs's elements, without copying them. It is
// how a vector is filled before it is shared and read after: the caller
// writes xs with plain stores, which need no fence while no other goroutine
// can reach the vector, and may read xs plainly again once every goroutine
// that accessed the vector has been joined. In between, every access goes
// through the vector.
func F64Of(xs []float64) *F64 {
	return &F64{bits: unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs))}
}

// Load atomically reads element i. It takes the vector by value, and a copy
// shares the elements: a loop that loads through a local copy keeps the
// slice header in registers, where through a pointer every atomic load, an
// ordering point, makes the compiler reload it.
//
//dfpr:hotpath
func (v F64) Load(i int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&v.bits[i]))
}

// Store atomically writes element i.
//
//dfpr:hotpath
func (v *F64) Store(i int, x float64) {
	atomic.StoreUint64(&v.bits[i], math.Float64bits(x))
}

// Add atomically adds delta to element i using a CAS loop and returns the
// new value. Used by accumulation-style kernels (e.g. contribution push).
func (v *F64) Add(i int, delta float64) float64 {
	for {
		old := atomic.LoadUint64(&v.bits[i])
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(&v.bits[i], old, nw) {
			return math.Float64frombits(nw)
		}
	}
}

// Flags is a word-packed atomic bitset of per-index boolean flags supporting
// concurrent, lock-free set/clear/test plus whole-vector queries — the
// paper's flag vectors VA (affected), C (checked) and RC (not-yet-converged).
// Set and Clear use CAS on the containing 64-bit word; AllClear scans ⌈n/64⌉
// words with atomic loads, which keeps the frequent all-converged scan cheap
// on large graphs.
type Flags struct {
	n     int
	words []uint64
}

// NewFlags returns an all-clear flag bitset of length n.
func NewFlags(n int) *Flags {
	return &Flags{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of flags.
func (f *Flags) Len() int { return f.n }

// Set sets flag i, returning true when the flag transitioned clear→set.
//
//dfpr:hotpath
func (f *Flags) Set(i int) bool {
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	for {
		old := atomic.LoadUint64(&f.words[w])
		if old&b != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&f.words[w], old, old|b) {
			return true
		}
	}
}

// Clear clears flag i, returning true when the flag transitioned set→clear.
//
//dfpr:hotpath
func (f *Flags) Clear(i int) bool {
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	for {
		old := atomic.LoadUint64(&f.words[w])
		if old&b == 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&f.words[w], old, old&^b) {
			return true
		}
	}
}

// Get reports whether flag i is set.
//
//dfpr:hotpath
func (f *Flags) Get(i int) bool {
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	return atomic.LoadUint64(&f.words[w])&b != 0
}

// NextSet returns the first set flag in [from, limit), or limit when none
// is set there. The scan masks the partial first word and then skips clear
// words whole, so a sparse frontier costs one atomic load per 64 vertices
// instead of one per vertex. Each call re-reads the words, so a forward scan
// that calls NextSet after processing each hit observes exactly the flags
// set at the moment it passes them — semantically identical to probing Get
// per index in order. The rank sweeps use it to visit the affected frontier
// in sorted order within a chunk.
//
//dfpr:hotpath
func (f *Flags) NextSet(from, limit int) int {
	if from < 0 {
		from = 0
	}
	for from < limit {
		w := from >> 6
		word := atomic.LoadUint64(&f.words[w]) >> (uint(from) & 63)
		if word != 0 {
			i := from + bits.TrailingZeros64(word)
			if i >= limit {
				return limit
			}
			return i
		}
		from = (w + 1) << 6
	}
	return limit
}

// AllClear reports whether every flag is currently clear. The answer is a
// snapshot: concurrent mutations may invalidate it immediately, which is the
// same semantics the paper's per-vertex convergence scan has.
//
//dfpr:hotpath
func (f *Flags) AllClear() bool {
	for w := range f.words {
		if atomic.LoadUint64(&f.words[w]) != 0 {
			return false
		}
	}
	return true
}

// Reset clears every flag.
func (f *Flags) Reset() {
	for w := range f.words {
		atomic.StoreUint64(&f.words[w], 0)
	}
}

// SetAll sets every flag.
func (f *Flags) SetAll() {
	if len(f.words) == 0 {
		return
	}
	for w := 0; w < len(f.words)-1; w++ {
		atomic.StoreUint64(&f.words[w], ^uint64(0))
	}
	// Final word: only bits below n are valid; stray bits would break
	// AllClear.
	rem := uint(f.n - (len(f.words)-1)*64)
	var last uint64
	if rem == 64 {
		last = ^uint64(0)
	} else {
		last = (uint64(1) << rem) - 1
	}
	atomic.StoreUint64(&f.words[len(f.words)-1], last)
}

// Counter is a cache-line padded atomic counter used for work tickets and
// convergence bookkeeping. Padding keeps independent counters from sharing
// a line when several live in one struct.
type Counter struct {
	_ [7]uint64 // leading pad
	v uint64
	_ [7]uint64 // trailing pad
}

// Add atomically adds d and returns the new value.
func (c *Counter) Add(d uint64) uint64 { return atomic.AddUint64(&c.v, d) }

// Load atomically reads the value.
func (c *Counter) Load() uint64 { return atomic.LoadUint64(&c.v) }

// Store atomically writes the value.
func (c *Counter) Store(x uint64) { atomic.StoreUint64(&c.v, x) }

// CompareAndSwap atomically replaces old with new, reporting success.
func (c *Counter) CompareAndSwap(old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&c.v, old, new)
}
