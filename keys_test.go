package dfpr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// TestKeyedLifecycle walks the string-keyed happy path end to end: Open,
// keyed submissions, keyed reads, id round-trips, keyed deletions.
func TestKeyedLifecycle(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.Keyed() {
		t.Fatal("Open built an unkeyed engine")
	}
	tk, err := eng.SubmitKeyed(ctx, nil, []KeyEdge{
		{From: "alice", To: "bob"},
		{From: "bob", To: "carol"},
		{From: "carol", To: "alice"},
		{From: "dave", To: "alice"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if eng.Keys() != 4 {
		t.Fatalf("Keys = %d, want 4", eng.Keys())
	}
	// First-mention order assigns dense ids.
	for i, k := range []Key{"alice", "bob", "carol", "dave"} {
		id, ok := eng.Resolve(k)
		if !ok || id != uint32(i) {
			t.Fatalf("Resolve(%q) = %d, %v", k, id, ok)
		}
	}
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []Key{"alice", "bob", "carol", "dave"} {
		if back, ok := v.KeyOf(uint32(i)); !ok || back != k {
			t.Fatalf("KeyOf(%d) = %q, %v", i, back, ok)
		}
	}
	if v.N() != 4 {
		t.Fatalf("N = %d, want 4", v.N())
	}
	sa, ok := v.ScoreOfKey("alice")
	if !ok || sa <= 0 {
		t.Fatalf("ScoreOfKey(alice) = %g, %v", sa, ok)
	}
	if _, ok := v.ScoreOfKey("mallory"); ok {
		t.Fatal("unknown key scored")
	}
	// alice has two in-links (carol, dave) — she should out-rank dave, who
	// has none but his self-loop.
	sd, _ := v.ScoreOfKey("dave")
	if sa <= sd {
		t.Errorf("alice %g should outrank dave %g", sa, sd)
	}
	top := v.TopK(4)
	if len(top) != 4 {
		t.Fatalf("TopK = %+v", top)
	}
	if key, _ := v.KeyOf(top[0].V); key != "alice" {
		t.Errorf("top key %q, want alice", key)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("TopK not descending")
		}
	}

	// Keyed deletion of an existing edge moves ranks; deletion of edges
	// between unknown keys is dropped without growing the key space.
	if _, err := eng.ApplyKeyed(ctx, []KeyEdge{{From: "dave", To: "alice"}, {From: "x", To: "y"}}, nil); err != nil {
		t.Fatal(err)
	}
	if eng.Keys() != 4 {
		t.Fatalf("deletion grew the key space to %d", eng.Keys())
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	v2, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	sa2, _ := v2.ScoreOfKey("alice")
	if sa2 >= sa {
		t.Errorf("alice's rank did not drop after losing an in-link: %g → %g", sa, sa2)
	}
}

// TestViewKeyVersionPinning is the versioned-length contract: a view only
// resolves keys that existed at its version, even though the shared interner
// has moved on.
func TestViewKeyVersionPinning(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.ApplyKeyed(ctx, nil, []KeyEdge{{From: "a", To: "b"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	v1, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyKeyed(ctx, nil, []KeyEdge{{From: "c", To: "a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	v2, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	// The engine resolves "c" (it is interned), but the pinned v1 must not:
	// c did not exist at v1's version.
	if _, ok := eng.Resolve("c"); !ok {
		t.Fatal("engine lost key c")
	}
	if _, ok := v1.ScoreOfKey("c"); ok {
		t.Error("old view resolved a key interned after its version")
	}
	if _, ok := v1.KeyOf(2); ok {
		t.Error("old view reverse-resolved an id beyond its universe")
	}
	if s, ok := v2.ScoreOfKey("c"); !ok || s <= 0 {
		t.Errorf("new view misses c: %g %v", s, ok)
	}
	// Delta across the growth reports the newcomer with From 0, and the
	// newer view names it.
	var sawC bool
	for _, m := range v2.Delta(v1) {
		if key, _ := v2.KeyOf(m.V); key == "c" {
			sawC = true
			if m.From != 0 {
				t.Errorf("new key c reports From %g, want 0", m.From)
			}
		}
	}
	if !sawC {
		t.Error("Delta across growth did not report the new key")
	}
}

// TestKeyedErrors pins the failure modes: keyed writes on a dense engine,
// empty keys, and keyed reads degrading to misses instead of panics.
func TestKeyedErrors(t *testing.T) {
	ctx := context.Background()
	dense, err := New(4, []Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	if _, err := dense.SubmitKeyed(ctx, nil, []KeyEdge{{From: "a", To: "b"}}); !errors.Is(err, ErrNotKeyed) {
		t.Errorf("SubmitKeyed on dense engine: %v", err)
	}
	if _, err := dense.ApplyKeyed(ctx, nil, []KeyEdge{{From: "a", To: "b"}}); !errors.Is(err, ErrNotKeyed) {
		t.Errorf("ApplyKeyed on dense engine: %v", err)
	}
	if dense.Keyed() || dense.Keys() != 0 {
		t.Error("dense engine claims a key space")
	}
	if _, ok := dense.Resolve("a"); ok {
		t.Error("dense engine resolved a key")
	}
	if _, err := dense.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := dense.View()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.ScoreOfKey("a"); ok {
		t.Error("dense view scored a key")
	}
	if key, ok := v.KeyOf(0); ok || key != "" {
		t.Errorf("dense KeyOf(0) = %q, %v (want a miss)", key, ok)
	}

	keyed, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer keyed.Close()
	if _, err := keyed.ApplyKeyed(ctx, nil, []KeyEdge{{From: "", To: "b"}}); err == nil {
		t.Error("empty key accepted")
	}
}

// TestScoreOfKeyZeroAllocs is the acceptance criterion for the keyed hot
// path: a ScoreOfKey hit performs zero allocations.
func TestScoreOfKeyZeroAllocs(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var ins []KeyEdge
	for i := 0; i < 256; i++ {
		ins = append(ins, KeyEdge{From: fmt.Sprintf("u%03d", i), To: fmt.Sprintf("u%03d", (i+1)%256)})
	}
	if _, err := eng.ApplyKeyed(ctx, nil, ins); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := v.ScoreOfKey("u007"); !ok {
			t.Fatal("lookup failed")
		}
	}); avg != 0 {
		t.Errorf("ScoreOfKey allocates %.1f per call, want 0", avg)
	}
	// Warm keyed top-k into a recycled buffer allocates nothing either.
	buf := make([]Ranked, 0, 8)
	v.TopK(8)
	if avg := testing.AllocsPerRun(200, func() {
		buf = v.AppendTopK(buf[:0], 8)
		for _, e := range buf {
			if _, ok := v.KeyOf(e.V); !ok {
				t.Fatal("top vertex has no key")
			}
		}
	}); avg != 0 {
		t.Errorf("warm AppendTopK plus KeyOf allocates %.1f per call, want 0", avg)
	}
}

// TestKeyedDenseInterop: on a keyed engine the key space owns the id
// space. Dense writes are allowed WITHIN it (ids the interner has handed
// out — the resolve-once-write-densely pattern) but may not grow past it:
// a dense-created vertex under a not-yet-interned id would later be
// aliased by a fresh key, which would inherit the vertex's score and
// resolve on views older than the key. The rejection is what makes key
// version pinning sound.
func TestKeyedDenseInterop(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.ApplyKeyed(ctx, nil, []KeyEdge{{From: "a", To: "b"}, {From: "b", To: "c"}}); err != nil {
		t.Fatal(err)
	}
	// Dense write among interned ids: fine (a resolved c→a edge).
	cid, _ := eng.Resolve("c")
	aid, _ := eng.Resolve("a")
	if _, err := eng.Apply(ctx, nil, []Edge{{U: cid, V: aid}}); err != nil {
		t.Fatalf("dense write within the key space rejected: %v", err)
	}
	// Dense growth past the key space: rejected, so no unkeyed vertex can
	// ever be aliased by a later intern.
	if _, err := eng.Apply(ctx, nil, []Edge{{U: 0, V: 5}}); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("dense growth past the key space: %v", err)
	}
	if _, err := eng.Grow(ctx, 10); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("Grow past the key space: %v", err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 3 || eng.Keys() != 3 {
		t.Fatalf("N = %d, Keys = %d (want 3, 3)", v.N(), eng.Keys())
	}
	// The would-be alias: interning a fresh key now must NOT resolve on
	// the already-published view.
	if _, err := eng.ApplyKeyed(ctx, nil, []KeyEdge{{From: "zed", To: "a"}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := v.ScoreOfKey("zed"); ok {
		t.Fatal("fresh key resolved on a view published before it existed")
	}
	var sum float64
	for _, s := range v.Scores() {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ranks sum to %g", sum)
	}
}

// TestKeyedCapBeforeIntern: a keyed batch over the WithMaxVertices bound
// is rejected BEFORE any key is interned — rejected batches must not
// consume ids (each one permanent) or the interner would grow without
// bound on rejected traffic and the engine could never accept keys again.
func TestKeyedCapBeforeIntern(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(WithThreads(2), WithMaxVertices(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.ApplyKeyed(ctx, nil, []KeyEdge{{From: "a", To: "b"}, {From: "c", To: "a"}}); err != nil {
		t.Fatal(err)
	}
	over := []KeyEdge{{From: "d", To: "e"}, {From: "f", To: "a"}}
	if _, err := eng.ApplyKeyed(ctx, nil, over); !errors.Is(err, ErrTooManyVertices) {
		t.Fatalf("over-bound keyed batch: %v", err)
	}
	if eng.Keys() != 3 {
		t.Fatalf("rejected batch consumed ids: Keys = %d, want 3", eng.Keys())
	}
	// Still room for exactly one more key; duplicates inside the batch
	// count once.
	if _, err := eng.ApplyKeyed(ctx, nil, []KeyEdge{{From: "d", To: "a"}, {From: "d", To: "b"}}); err != nil {
		t.Fatalf("in-bound keyed batch rejected: %v", err)
	}
	if eng.Keys() != 4 {
		t.Fatalf("Keys = %d, want 4", eng.Keys())
	}
}
