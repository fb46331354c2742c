// Package keymap provides the engine-owned key space of the open vertex
// universe: an append-only interner between external string keys (URLs,
// usernames, …) and the dense uint32 vertex ids the algorithm stack runs
// on. Clients address entities by their natural keys; the ID-compaction
// bookkeeping every caller of a dense-ID graph engine otherwise reimplements
// lives here, behind the engine.
//
// The design is read-dominated, like the serving path it backs:
//
//   - Reads (Resolve, KeyOf) are lock-free on the promoted majority of the
//     map: one atomic pointer load plus one native map lookup or slice
//     index, zero allocations — the shape of a point lookup under traffic.
//   - Writes (Intern) assign ids densely in arrival order under a mutex,
//     appending to a small dirty tail. The tail is promoted into a fresh
//     immutable read state once it reaches a quarter of the promoted size
//     (1/16 at a Settle), so promotion cost amortises to O(1) per key at
//     every map size. A promotion copies the whole map — ~1.4 ms at 15k
//     keys, ~14 ms at 65k on a 2-core box — so no write round pays one
//     for a small tail; keys below the gate resolve through a brief
//     mutex-guarded tail check.
//   - Ids are never reassigned and keys never removed, mirroring the
//     append-only vertex universe. Version pinning therefore needs only a
//     length: a reader pinned to a version resolves a key iff its id is
//     below that version's vertex count, which is exactly the bounds check
//     the rank vector lookup performs anyway.
package keymap

import (
	"sync"
	"sync/atomic"
)

// readState is one immutable published view of the interned prefix. Readers
// load it with a single atomic pointer load; writers replace it wholesale at
// promotion. Both fields always describe the same prefix: ids[keys[i]] == i.
type readState struct {
	ids  map[string]uint32
	keys []string
}

var emptyState = &readState{ids: map[string]uint32{}}

// Map is the append-only string↔uint32 interner. The zero value is not
// usable; create one with New. Safe for concurrent use by any number of
// readers and writers.
type Map struct {
	read atomic.Pointer[readState]

	mu     sync.Mutex
	dirty  map[string]uint32 // keys interned but not yet promoted
	dirtyK []string          // same keys in id order (promoted.len + i)
	n      atomic.Int64      // total interned (promoted + dirty)
}

// New returns an empty interner.
func New() *Map {
	m := &Map{}
	m.read.Store(emptyState)
	return m
}

// Len returns the number of interned keys — equivalently, one past the
// highest assigned id. Ids are assigned densely from 0 in Intern order.
func (m *Map) Len() int { return int(m.n.Load()) }

// Resolve returns the id of key if it has been interned. Promoted keys
// resolve lock-free with zero allocations; keys interned since the last
// promotion fall through to a brief mutex-guarded tail check.
//
//dfpr:hotpath
func (m *Map) Resolve(key string) (uint32, bool) {
	rs := m.read.Load()
	if id, ok := rs.ids[key]; ok {
		return id, true
	}
	// Definite miss without the lock when nothing is waiting in the dirty
	// tail: n is stored after the tail append (under the writer's lock), so
	// n == promoted-length means any in-flight Intern has not completed —
	// a miss is linearizable. This keeps hostile unknown-key read traffic
	// from contending with writers on the intern mutex.
	if m.n.Load() == int64(len(rs.keys)) {
		return 0, false
	}
	m.mu.Lock()         //lint:allow hotalloc documented cold fallback: dirty-tail check, promoted keys never reach it
	defer m.mu.Unlock() //lint:allow hotalloc cold fallback only
	// Re-load under the lock: a promotion may have raced the lock-free
	// probe, moving the key from the dirty tail into a newer promoted state
	// — checking only the tail would spuriously miss an interned key.
	rs = m.read.Load()
	if id, ok := rs.ids[key]; ok {
		return id, true
	}
	id, ok := m.dirty[key]
	return id, ok
}

// KeyOf returns the key interned as id, with the same promoted-lock-free /
// dirty-tail split as Resolve.
//
//dfpr:hotpath
func (m *Map) KeyOf(id uint32) (string, bool) {
	rs := m.read.Load()
	if int(id) < len(rs.keys) {
		return rs.keys[id], true
	}
	m.mu.Lock()         //lint:allow hotalloc documented cold fallback: dirty-tail check, promoted ids never reach it
	defer m.mu.Unlock() //lint:allow hotalloc cold fallback only
	// Re-load under the lock: a promotion may have raced the first load.
	rs = m.read.Load()
	if int(id) < len(rs.keys) {
		return rs.keys[id], true
	}
	if i := int(id) - len(rs.keys); i >= 0 && i < len(m.dirtyK) {
		return m.dirtyK[i], true
	}
	return "", false
}

// KeysRange returns the keys interned as ids [lo, hi), in id order — the
// bulk export the durability layer uses to log newly interned keys and to
// snapshot the key-space prefix a checkpoint covers. The range is clamped
// to the interned prefix; a reversed or empty range returns nil.
func (m *Map) KeysRange(lo, hi int) []string {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return nil
	}
	rs := m.read.Load()
	if hi <= len(rs.keys) {
		// Entirely inside the promoted prefix: copy lock-free (the promoted
		// slice is immutable).
		return append([]string(nil), rs.keys[lo:hi]...)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Re-load under the lock: a promotion may have raced the probe.
	rs = m.read.Load()
	if n := len(rs.keys) + len(m.dirtyK); hi > n {
		hi = n
	}
	if hi <= lo {
		return nil
	}
	out := make([]string, 0, hi-lo)
	for id := lo; id < hi; id++ {
		if id < len(rs.keys) {
			out = append(out, rs.keys[id])
		} else {
			out = append(out, m.dirtyK[id-len(rs.keys)])
		}
	}
	return out
}

// Intern returns the id of key, assigning the next dense id if the key is
// new. Ids are never reassigned; interning is the only way the key space
// grows.
func (m *Map) Intern(key string) uint32 {
	if id, ok := m.read.Load().ids[key]; ok {
		return id
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if id, ok := m.dirty[key]; ok {
		return id
	}
	rs := m.read.Load()
	if id, ok := rs.ids[key]; ok {
		// Promoted between the lock-free probe and the lock.
		return id
	}
	id := uint32(len(rs.keys) + len(m.dirtyK))
	if m.dirty == nil {
		m.dirty = make(map[string]uint32)
	}
	m.dirty[key] = id
	m.dirtyK = append(m.dirtyK, key)
	m.n.Store(int64(len(rs.keys) + len(m.dirtyK)))
	// Promote once the tail reaches a quarter of the promoted size: each
	// promotion copies promoted+dirty entries, sizes grow geometrically, so
	// total copy work stays O(total keys) and the window in which a fresh
	// key needs the mutex stays short.
	if len(m.dirtyK)*4 >= len(rs.keys)+4 {
		m.promoteLocked(rs)
	}
	return id
}

// Sync promotes any outstanding dirty tail into the immutable read state,
// making every key interned so far resolvable lock-free. One-shot loaders
// call it after a file: without it, a tail below the geometric promotion
// threshold would sit unpromoted until the NEXT intern — on a write-idle
// engine, forever — and its keys would take the intern mutex on every read
// for the lifetime of the process. Promotion copies the whole map (~14 ms
// at 65k keys), so continuous writers must NOT call this per batch (that
// would be quadratic); they call Settle at idle edges instead.
func (m *Map) Sync() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.dirtyK) > 0 {
		m.promoteLocked(m.read.Load())
	}
}

// Settle is the gated Sync for continuous writers (the engine calls it at
// write-idle edges and per ApplyKeyed): it promotes when the tail has
// reached 1/16 of the promoted size, at every map size. Promotion copies
// the whole map (~1.4 ms at 15k keys, ~14 ms at 65k), so settling a small
// tail per round would make a trickle of fresh keys cost O(keys) a round;
// under the geometric gate total copying stays O(total keys). Below the
// gate the straggler tail stays mutex-guarded — an uncontended lock on a
// write-idle engine.
func (m *Map) Settle() {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.read.Load()
	if len(m.dirtyK) > 0 && len(m.dirtyK)*16 >= len(rs.keys) {
		m.promoteLocked(rs)
	}
}

// promoteLocked folds the dirty tail into a fresh immutable read state.
// Caller holds m.mu.
func (m *Map) promoteLocked(rs *readState) {
	next := &readState{
		ids:  make(map[string]uint32, len(rs.ids)+len(m.dirty)),
		keys: make([]string, 0, len(rs.keys)+len(m.dirtyK)),
	}
	next.keys = append(next.keys, rs.keys...)
	next.keys = append(next.keys, m.dirtyK...)
	for k, id := range rs.ids {
		next.ids[k] = id
	}
	for k, id := range m.dirty {
		next.ids[k] = id
	}
	m.read.Store(next)
	m.dirty = nil
	m.dirtyK = nil
}
