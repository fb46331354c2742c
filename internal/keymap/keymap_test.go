package keymap

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternResolveKeyOf(t *testing.T) {
	m := New()
	if _, ok := m.Resolve("a"); ok {
		t.Fatal("empty map resolved a key")
	}
	if _, ok := m.KeyOf(0); ok {
		t.Fatal("empty map had a key for id 0")
	}
	ids := map[string]uint32{}
	for i, k := range []string{"alice", "bob", "carol", "alice", "bob", "dave"} {
		id := m.Intern(k)
		if want, seen := ids[k]; seen {
			if id != want {
				t.Fatalf("intern %q twice: %d then %d", k, want, id)
			}
		} else {
			ids[k] = id
		}
		_ = i
	}
	if m.Len() != 4 {
		t.Fatalf("Len = %d, want 4", m.Len())
	}
	// Ids are dense in first-mention order.
	for i, k := range []string{"alice", "bob", "carol", "dave"} {
		id, ok := m.Resolve(k)
		if !ok || id != uint32(i) {
			t.Fatalf("Resolve(%q) = %d, %v, want %d", k, id, ok, i)
		}
		back, ok := m.KeyOf(uint32(i))
		if !ok || back != k {
			t.Fatalf("KeyOf(%d) = %q, %v, want %q", i, back, ok, k)
		}
	}
	if _, ok := m.KeyOf(4); ok {
		t.Fatal("KeyOf past the end resolved")
	}
}

// TestPromotion drives the map through many promotions and checks every key
// stays resolvable from both directions throughout.
func TestPromotion(t *testing.T) {
	m := New()
	const total = 5000
	for i := 0; i < total; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if id := m.Intern(k); id != uint32(i) {
			t.Fatalf("Intern(%q) = %d, want %d", k, id, i)
		}
		// Spot-check an early (long promoted) and the freshest key.
		if id, ok := m.Resolve("key-0000"); !ok || id != 0 {
			t.Fatalf("step %d: early key lost", i)
		}
		if got, ok := m.KeyOf(uint32(i)); !ok || got != k {
			t.Fatalf("step %d: fresh key unresolvable: %q %v", i, got, ok)
		}
	}
	if m.Len() != total {
		t.Fatalf("Len = %d, want %d", m.Len(), total)
	}
}

// TestConcurrentInternResolve is the keymap race test: writers interning an
// overlapping key set while readers resolve both directions. Every key must
// get exactly one id, agreed on by all writers.
func TestConcurrentInternResolve(t *testing.T) {
	m := New()
	const keys = 300
	var wg sync.WaitGroup
	got := make([][]uint32, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint32, keys)
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("k%03d", i)
				ids[i] = m.Intern(k)
				// An interned key must resolve from that moment on — even
				// while concurrent interns race promotions past it. This is
				// the regression guard for the probe-then-tail race: Resolve
				// must re-check the promoted state under the lock, or a key
				// promoted between its two probes transiently vanishes.
				if id, ok := m.Resolve(k); !ok || id != ids[i] {
					t.Errorf("just-interned %q unresolvable (%d, %v)", k, id, ok)
					return
				}
			}
			got[w] = ids
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*keys; i++ {
				if id, ok := m.Resolve(fmt.Sprintf("k%03d", i%keys)); ok {
					if k, ok2 := m.KeyOf(id); !ok2 || k != fmt.Sprintf("k%03d", i%keys) {
						t.Errorf("round-trip of k%03d via %d failed", i%keys, id)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if m.Len() != keys {
		t.Fatalf("Len = %d, want %d", m.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		for w := 1; w < 4; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("writers disagree on k%03d: %d vs %d", i, got[0][i], got[w][i])
			}
		}
	}
}

// TestSyncPromotesIdleTail: after Sync, every interned key lives in the
// promoted read state (white-box), so a write-idle map serves all its keys
// lock-free — the tail below the geometric threshold must not linger until
// a next intern that may never come.
func TestSyncPromotesIdleTail(t *testing.T) {
	m := New()
	for _, k := range []string{"alice", "bob", "carol", "dave"} {
		m.Intern(k)
	}
	m.Sync()
	rs := m.read.Load()
	if len(rs.keys) != 4 || len(m.dirtyK) != 0 {
		t.Fatalf("after Sync: promoted %d, tail %d (want 4, 0)", len(rs.keys), len(m.dirtyK))
	}
	for i, k := range []string{"alice", "bob", "carol", "dave"} {
		if id, ok := rs.ids[k]; !ok || id != uint32(i) {
			t.Fatalf("promoted state lost %q", k)
		}
	}
	m.Sync() // idempotent on an empty tail
	if m.Len() != 4 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestSettleSmallMap: a tail of at least 1/16 of the promoted keys promotes
// at Settle; on a fresh map any tail qualifies.
func TestSettleSmallMap(t *testing.T) {
	m := New()
	for _, k := range []string{"alice", "bob", "carol", "dave"} {
		m.Intern(k)
	}
	m.Settle()
	if rs := m.read.Load(); len(rs.keys) != 4 || len(m.dirtyK) != 0 {
		t.Fatalf("after Settle: promoted %d, tail %d (want 4, 0)", len(rs.keys), len(m.dirtyK))
	}
	m.Settle() // no-op on an empty tail
	if m.Len() != 4 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestSettleAmortized: a writer that interns one fresh key per round and
// settles after each pays O(total keys) in promotion copies, not O(keys)
// per round — the sum of entries copied over all promotions (a new read
// state means one) stays within 21·K. Every key resolves both ways
// throughout, tail keys included, and Sync empties the tail.
func TestSettleAmortized(t *testing.T) {
	const keys = 20000
	m := New()
	copied := 0
	rs := m.read.Load()
	observe := func() {
		if next := m.read.Load(); next != rs {
			rs = next
			copied += len(rs.keys)
		}
	}
	check := func(i int) {
		k := fmt.Sprintf("k%05d", i)
		if id, ok := m.Resolve(k); !ok || id != uint32(i) {
			t.Fatalf("Resolve(%s) = %d, %v; want %d", k, id, ok, i)
		}
		if got, ok := m.KeyOf(uint32(i)); !ok || got != k {
			t.Fatalf("KeyOf(%d) = %q, %v; want %s", i, got, ok, k)
		}
	}
	for i := 0; i < keys; i++ {
		m.Intern(fmt.Sprintf("k%05d", i))
		observe()
		m.Settle()
		observe()
		check(i) // the newest key, usually in the tail
		if first := len(rs.keys); first <= i {
			check(first) // the tail's oldest key
		}
		check(i / 2)
	}
	if limit := 21 * keys; copied > limit {
		t.Fatalf("promotions copied %d entries over %d rounds, want ≤ %d", copied, keys, limit)
	}
	for i := 0; i < keys; i++ {
		check(i)
	}
	m.Sync()
	if rs := m.read.Load(); len(rs.keys) != keys || len(m.dirtyK) != 0 {
		t.Fatalf("after Sync: promoted %d, tail %d (want %d, 0)", len(rs.keys), len(m.dirtyK), keys)
	}
}

func TestResolveZeroAllocs(t *testing.T) {
	m := New()
	for i := 0; i < 64; i++ {
		m.Intern(fmt.Sprintf("key-%d", i))
	}
	m.Intern("probe") // force one more round so earlier keys promote
	for i := 0; i < 64; i++ {
		m.Intern(fmt.Sprintf("tail-%d", i))
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := m.Resolve("key-7"); !ok {
			t.Fatal("lost key-7")
		}
	}); avg != 0 {
		t.Errorf("Resolve allocates %.1f per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := m.KeyOf(7); !ok {
			t.Fatal("lost id 7")
		}
	}); avg != 0 {
		t.Errorf("KeyOf allocates %.1f per call, want 0", avg)
	}
}
