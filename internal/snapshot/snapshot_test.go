package snapshot

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/fault"
	"dfpr/internal/gen"
	"dfpr/internal/graph"
	"dfpr/internal/topk"
)

func testStore(t *testing.T, keep int) *Store {
	t.Helper()
	d := gen.RMAT(9, 6, 3)
	return NewStore(d, keep)
}

func testCfg(n int) core.Config {
	tol := 1e-3 / float64(n)
	return core.Config{Threads: 4, Tol: tol, FrontierTol: tol}
}

func TestStoreVersioning(t *testing.T) {
	s := testStore(t, 0)
	v0 := s.Current()
	if v0.Seq != 0 {
		t.Fatalf("initial seq = %d", v0.Seq)
	}
	if v0.G.DeadEnds() != 0 {
		t.Fatal("initial version has dead ends")
	}
	up := batch.Random(graph.DynamicFromCSR(v0.G), 10, 1)
	prev, next := s.Apply(up)
	if prev.Seq != 0 || next.Seq != 1 {
		t.Fatalf("seq: prev=%d next=%d", prev.Seq, next.Seq)
	}
	if s.Current() != next {
		t.Error("Current not updated")
	}
	// Old version stays intact.
	for _, e := range up.Del {
		if !v0.G.HasEdge(e.U, e.V) {
			t.Error("published snapshot mutated by later update")
		}
	}
}

// TestEnsureSelfLoopsThroughStoreApply: a batch that deletes a vertex's
// self-loop publishes a version that still has it — the store's incremental
// ensure restores lost loops as well as looping grown vertices.
func TestEnsureSelfLoopsThroughStoreApply(t *testing.T) {
	s := testStore(t, 0)
	n := s.Current().G.N()
	_, next := s.Apply(batch.Update{
		Del: []graph.Edge{{U: 3, V: 3}, {U: 7, V: 7}},
		Ins: []graph.Edge{{U: 3, V: uint32(n)}},
	})
	_, next = s.Apply(batch.Update{Del: []graph.Edge{{U: uint32(n), V: uint32(n)}, {U: 3, V: 3}}})
	g := next.G
	if g.N() != n+1 || g.DeadEnds() != 0 {
		t.Fatalf("n = %d (want %d), dead ends %d", g.N(), n+1, g.DeadEnds())
	}
	for _, v := range []uint32{3, 7, uint32(n)} {
		if !g.HasEdge(v, v) {
			t.Errorf("vertex %d lost its self-loop", v)
		}
	}
}

// TestSinceChains pins what a store keeps for its ranker: after five
// Applies the pending span is bitwise batch.Merge of the five published
// (clamped) batches, and a store whose ranker is current holds an empty one.
// A store without a ranker keeps nothing.
func TestSinceChains(t *testing.T) {
	s := testStore(t, 8)
	s.Apply(batch.Random(graph.DynamicFromCSR(s.Current().G), 4, 99))
	if s.pending.Edits() != 0 || len(s.pending.Update().Ins) != 0 {
		t.Fatal("a store without a ranker kept a pending span")
	}
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, testCfg(s.Current().G.N()))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.pending.Update(); s.pending.Edits() != 0 || got.Size() != 0 {
		t.Fatalf("a current store holds a span of %d edits (%d distinct)", s.pending.Edits(), got.Size())
	}
	var ups []batch.Update
	for i := 0; i < 5; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 4, int64(i))
		// Churn the same edges too, so the merge has last-op-wins work.
		up.Ins = append(up.Ins, up.Del...)
		if i == 2 {
			up = batch.Update{N: s.Current().G.N() + 3} // pure growth
		}
		s.Apply(up)
		ups = append(ups, up)
	}
	if want, got := batch.Merge(ups...), s.pending.Update(); !reflect.DeepEqual(got, want) {
		t.Errorf("span after five Applies:\n got %+v\nwant %+v", got, want)
	}
	if s.pending.Edits() != 4*6+1 || s.PendingEdits() != s.pending.Edits() {
		t.Errorf("span counts %d edits (PendingEdits %d), want %d", s.pending.Edits(), s.PendingEdits(), 4*6+1)
	}
	if _, adv, err := r.Refresh(context.Background()); err != nil || adv != 5 {
		t.Fatalf("refresh: advanced=%d err=%v", adv, err)
	}
	if got := s.pending.Update(); s.PendingEdits() != 0 || got.Size() != 0 || got.N != 0 {
		t.Errorf("a current store holds %+v (%d edits)", got, s.PendingEdits())
	}
}

func TestRankerTracksReference(t *testing.T) {
	s := testStore(t, 0)
	n := s.Current().G.N()
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, testCfg(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 12, int64(i))
		s.Apply(up)
		res, advanced, err := r.Refresh(context.Background())
		if err != nil || advanced != 1 {
			t.Fatalf("step %d: advanced=%d err=%v", i, advanced, err)
		}
		if !res.Converged {
			t.Fatalf("step %d did not converge", i)
		}
		ref := core.Reference(s.Current().G, core.Config{})
		if e := topk.LInf(r.Ranks(), ref); e > 20*testCfg(n).Tol {
			t.Errorf("step %d: error %g beyond 20τ", i, e)
		}
	}
	if r.Refreshes != 4 {
		t.Errorf("refreshes=%d", r.Refreshes)
	}
}

func TestRankerCatchesUpMultipleVersions(t *testing.T) {
	s := testStore(t, 0)
	n := s.Current().G.N()
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, testCfg(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 6, int64(100+i))
		s.Apply(up)
	}
	if behind := s.Current().Seq - r.Seq(); behind != 5 {
		t.Fatalf("behind = %d", behind)
	}
	_, advanced, err := r.Refresh(context.Background())
	if err != nil || advanced != 5 {
		t.Fatalf("advanced=%d err=%v", advanced, err)
	}
	if behind := s.Current().Seq - r.Seq(); behind != 0 || r.Seq() != 5 {
		t.Errorf("behind=%d seq=%d", behind, r.Seq())
	}
	ref := core.Reference(s.Current().G, core.Config{})
	if e := topk.LInf(r.Ranks(), ref); e > 20*testCfg(n).Tol {
		t.Errorf("error after catch-up: %g", e)
	}
	// One pending version published across a sequence jump (what replay does
	// with a folded WAL tail) advances by the jump, not by the chain length.
	s.ApplyAt(batch.Random(graph.DynamicFromCSR(s.Current().G), 6, 105), s.Current().Seq+5)
	behind := s.Current().Seq - r.Seq()
	_, advanced, err = r.Refresh(context.Background())
	if err != nil || behind != 5 || advanced != 5 || r.Seq() != 10 {
		t.Fatalf("sequence jump: behind=%d advanced=%d seq=%d err=%v, want 5/5/10", behind, advanced, r.Seq(), err)
	}
}

// TestRankerCoalescedSpanMatchesPerVersionReplay pins the one replay path
// against the reference the per-version arm used to provide: a ranker that
// refreshes after every Apply (k single-version refreshes) and a twin that
// replays the same k versions as one merged span must land on the same
// fixpoint within L∞ ≤ 1e-12 (τ tight enough that two converged runs compare
// there), the twin counting ONE refresh and the full advance. A store serves
// one ranker, so each ranks its own store; both stores apply the same
// batches.
func TestRankerCoalescedSpanMatchesPerVersionReplay(t *testing.T) {
	const k = 5
	s, ps := testStore(t, 0), testStore(t, 0)
	cfg := core.Config{Threads: 4, Tol: 5e-14}
	co, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pv, _, err := NewRanker(context.Background(), ps, core.AlgoDFLF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 10, int64(900+i))
		s.Apply(up)
		ps.Apply(up)
		if _, adv, err := pv.Refresh(context.Background()); err != nil || adv != 1 {
			t.Fatalf("per-version refresh %d: advanced=%d err=%v", i, adv, err)
		}
	}
	_, coAdv, err := co.Refresh(context.Background())
	if err != nil || coAdv != k {
		t.Fatalf("coalesced refresh: advanced=%d err=%v", coAdv, err)
	}
	if co.Refreshes != 1 || pv.Refreshes != k {
		t.Errorf("refreshes: span %d, per-version %d; want 1, %d", co.Refreshes, pv.Refreshes, k)
	}
	if co.Seq() != k || co.Version() != s.Current() {
		t.Errorf("coalesced ranker at seq=%d version=%p, want the store's current", co.Seq(), co.Version())
	}
	if e := topk.LInf(co.Ranks(), pv.Ranks()); e > 1e-12 {
		t.Errorf("coalesced vs per-version divergence %g (bound 1e-12)", e)
	}
	ref := core.Reference(s.Current().G, core.Config{})
	if e := topk.LInf(co.Ranks(), ref); e > 1e-9 {
		t.Errorf("coalesced span is %g from the reference", e)
	}
}

// TestRankerCoalescedSpanCancelAndFailure drives the span path's error
// handling: cancellation leaves the ranker untouched, a
// crash surfaces as itself, and clearing the fault lets the span replay
// recover.
func TestRankerCoalescedSpanCancelAndFailure(t *testing.T) {
	s := testStore(t, 0)
	n := s.Current().G.N()
	cfg := testCfg(n)
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 8, int64(700+i))
		s.Apply(up)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, adv, err := r.Refresh(ctx); !errors.Is(err, core.ErrCanceled) || adv != 0 || r.Seq() != 0 {
		t.Fatalf("canceled span refresh: advanced=%d seq=%d err=%v", adv, r.Seq(), err)
	}
	r.SetFault(fault.Plan{CrashWorkers: fault.CrashSet(cfg.Threads, cfg.Threads), Seed: 9})
	if _, adv, err := r.Refresh(context.Background()); !errors.Is(err, core.ErrAllCrashed) || adv != 0 || r.Seq() != 0 {
		t.Fatalf("crashed span refresh: advanced=%d seq=%d err=%v", adv, r.Seq(), err)
	}
	r.SetFault(fault.Plan{})
	if _, adv, err := r.Refresh(context.Background()); err != nil || adv != 3 || r.Refreshes != 1 {
		t.Fatalf("recovery span refresh: advanced=%d refreshes=%d err=%v", adv, r.Refreshes, err)
	}
	ref := core.Reference(s.Current().G, core.Config{})
	if e := topk.LInf(r.Ranks(), ref); e > 20*cfg.Tol {
		t.Errorf("error after span recovery: %g", e)
	}
}

// TestRankerLandingInvariants drives every way a Refresh can end and pins
// what the one landing guarantees after each: the ranker's sequence, version
// and vector agree, advanced is the Seq distance moved, a success counts
// one refresh and a failure none, and the sweep
// counters grew because a run executed.
func TestRankerLandingInvariants(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		pending int
		crash   bool
		ctx     context.Context
		// wantErr is the failure the Refresh must report (nil for success);
		// refreshes is the counter movement expected.
		wantErr   error
		refreshes int
	}{
		{name: "one version", pending: 1, refreshes: 1},
		{name: "coalesced span", pending: 4, refreshes: 1},
		// A failed run surfaces as itself: nothing else is tried (it would
		// run under the same plan, whose crashes stop every worker).
		{name: "failure without fallback", pending: 2, crash: true, wantErr: core.ErrAllCrashed},
		{name: "cancellation", pending: 2, ctx: canceled, wantErr: core.ErrCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testStore(t, 0)
			cfg := testCfg(s.Current().G.N())
			r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.pending; i++ {
				s.Apply(batch.Random(graph.DynamicFromCSR(s.Current().G), 6, int64(300+i)))
			}
			if tc.crash {
				r.SetFault(fault.Plan{CrashWorkers: fault.CrashSet(cfg.Threads, cfg.Threads), Seed: 5})
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			seq, refreshes := r.Seq(), r.Refreshes
			ranks := r.RanksShared()
			res, advanced, err := r.Refresh(ctx)
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil) != (err == nil) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if err != nil && (r.Seq() != seq || &r.RanksShared()[0] != &ranks[0]) {
				t.Errorf("failed refresh moved the ranker: seq %d → %d, vector replaced=%v",
					seq, r.Seq(), &r.RanksShared()[0] != &ranks[0])
			}
			if r.Seq() != r.Version().Seq || len(r.RanksShared()) != r.Version().G.N() {
				t.Errorf("ranker at seq %d holds version %d with %d ranks for %d vertices",
					r.Seq(), r.Version().Seq, len(r.RanksShared()), r.Version().G.N())
			}
			if advanced != int(r.Seq()-seq) {
				t.Errorf("advanced = %d, ranks moved %d → %d", advanced, seq, r.Seq())
			}
			if err == nil && r.Seq() != s.Current().Seq {
				t.Errorf("successful refresh left the ranker at %d, store at %d", r.Seq(), s.Current().Seq)
			}
			if got := r.Refreshes - refreshes; got != tc.refreshes {
				t.Errorf("Refreshes moved by %d, want %d", got, tc.refreshes)
			}
			// Refresh returns the run it executed, a failed one included; a
			// canceled context stops the run before its first sweep.
			if tc.ctx == nil && res.SweepBlocks <= 0 {
				t.Errorf("the refresh's run reports %d sweep blocks although it executed", res.SweepBlocks)
			}
		})
	}
}

func TestRefreshWithNoPendingWork(t *testing.T) {
	s := testStore(t, 0)
	n := s.Current().G.N()
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, testCfg(n))
	if err != nil {
		t.Fatal(err)
	}
	res, advanced, err := r.Refresh(context.Background())
	if err != nil || advanced != 0 || !res.Converged {
		t.Errorf("idle refresh: advanced=%d err=%v", advanced, err)
	}
}

func TestConcurrentReadersDuringWrites(t *testing.T) {
	s := testStore(t, 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers continuously validate whatever version is current.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.Current()
				if v.G.DeadEnds() != 0 {
					t.Error("reader observed snapshot with dead ends")
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 3, int64(i))
		s.Apply(up)
	}
	close(stop)
	wg.Wait()
	if s.Current().Seq != 20 {
		t.Errorf("final seq = %d", s.Current().Seq)
	}
}

func TestRanksAreCopies(t *testing.T) {
	s := testStore(t, 0)
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, testCfg(s.Current().G.N()))
	if err != nil {
		t.Fatal(err)
	}
	a := r.Ranks()
	a[0] = 42
	if r.Ranks()[0] == 42 {
		t.Error("Ranks returned internal storage")
	}
}

// TestResumeRankerRefusesSecondRanker: a store serves one ranker, since
// its pending span holds exactly the batches that ranker has not replayed.
func TestResumeRankerRefusesSecondRanker(t *testing.T) {
	s := testStore(t, 0)
	cfg := testCfg(s.Current().G.N())
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeRanker(s, cfg, nil); err == nil {
		t.Error("ResumeRanker without ranks accepted a store that has a ranker")
	}
	if _, err := ResumeRanker(s, cfg, r.Ranks()); err == nil {
		t.Error("ResumeRanker with ranks accepted a store that has a ranker")
	}
	if _, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg); err == nil {
		t.Error("NewRanker accepted a store that has a ranker")
	}
}

// TestNewRankerRefusesOtherAlgos: a ranker refreshes with DF-LF alone, so
// NewRanker refuses every other variant with an error naming it, before it
// touches the store: the store stays ranker-free, and a DF-LF ranker on it
// then builds.
func TestNewRankerRefusesOtherAlgos(t *testing.T) {
	s := testStore(t, 0)
	cfg := testCfg(s.Current().G.N())
	for _, algo := range core.Algos {
		if algo == core.AlgoDFLF {
			continue
		}
		r, _, err := NewRanker(context.Background(), s, algo, cfg)
		if err == nil || r != nil {
			t.Fatalf("NewRanker accepted %v", algo)
		}
		if !strings.Contains(err.Error(), algo.String()) {
			t.Errorf("refusing %v: error %q does not name it", algo, err)
		}
	}
	if _, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg); err != nil {
		t.Fatalf("a DF-LF ranker on the store the other algos left: %v", err)
	}
}

// TestHistoryTrimReleasesEvictedVersions pins what a store retains: no
// version but its current one, and no batch but the pending span of its
// ranker, which a landing releases. A ranker lagging K churned batches
// over P distinct pairs holds a span of at most P edges, however large K
// grows. The store holds no graph, so a superseded version nobody else
// holds is collectable at once, and a held one lives exactly as long as its
// holder. Weak pointers observe reachability directly.
func TestHistoryTrimReleasesEvictedVersions(t *testing.T) {
	const kept, lag, heldSeq, pairs = 10, 200, 12, 16
	const total = kept + lag
	s := testStore(t, 4)
	n := s.Current().G.N()
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, testCfg(n))
	if err != nil {
		t.Fatal(err)
	}
	weaks := []weak.Pointer[Version]{weak.Make(s.Current())}
	var held *Version
	pool := make([]graph.Edge, pairs)
	for i := range pool {
		pool[i] = graph.Edge{U: uint32(i), V: uint32(n - 1 - i)}
	}
	apply := func(i int) {
		t.Helper()
		// Two pool pairs per batch, one deleted and one inserted.
		up := batch.Update{Del: pool[i%pairs : i%pairs+1], Ins: pool[(i*7+3)%pairs : (i*7+3)%pairs+1]}
		_, next := s.Apply(up)
		weaks = append(weaks, weak.Make(next))
		if next.Seq == heldSeq {
			held = next
		}
	}
	for i := 1; i <= kept; i++ {
		apply(i)
		if _, adv, err := r.Refresh(context.Background()); err != nil || adv != 1 {
			t.Fatalf("refresh %d: advanced=%d err=%v", i, adv, err)
		}
		if s.PendingEdits() != 0 {
			t.Fatalf("ranker keeping up at %d: span holds %d edits after the landing", i, s.PendingEdits())
		}
	}
	for i := 1; i <= lag; i++ {
		apply(kept + i)
		if got := s.pending.Update().Size(); s.PendingEdits() != 2*i || got > min(2*i, pairs) {
			t.Fatalf("ranker %d behind: span counts %d edits over %d distinct, want %d over at most %d",
				i, s.PendingEdits(), got, 2*i, min(2*i, pairs))
		}
	}
	if _, adv, err := r.Refresh(context.Background()); err != nil || adv != lag || r.Refreshes != kept+1 {
		t.Fatalf("catch-up: advanced=%d refreshes=%d err=%v, want one refresh over %d", adv, r.Refreshes, err, lag)
	}
	if got := s.pending.Update(); s.PendingEdits() != 0 || got.Size() != 0 {
		t.Errorf("after the landing the span holds %d edits (%d distinct)", s.PendingEdits(), got.Size())
	}
	runtime.GC()
	runtime.GC()
	for seq, w := range weaks {
		live := seq == heldSeq || seq == total
		if got := w.Value(); !live && got != nil {
			t.Errorf("version %d is superseded and unheld but still reachable", seq)
		} else if live && got == nil {
			t.Errorf("version %d is held but was collected", seq)
		}
	}
	runtime.KeepAlive(held)
	runtime.KeepAlive(r) // the ranker and its store hold the newest version
}

// TestRankerRefreshUnderConcurrentApply exercises the Ranker while a writer
// keeps applying batches against a store with tiny retention: every Refresh
// must stay sound — a replay of everything published since the last one,
// however far the writer ran ahead — and the vector must match the
// reference once the writer stops.
func TestRankerRefreshUnderConcurrentApply(t *testing.T) {
	s := testStore(t, 8)
	n := s.Current().G.N()
	cfg := testCfg(n)
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Throttled so refreshes sometimes catch up within the retention
		// window and sometimes not (the writer bursts past it); both spans
		// must replay soundly.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			burst := 1 + i%4*3 // 1, 4, 7, 10 versions at a time
			for j := 0; j < burst; j++ {
				up := batch.Random(graph.DynamicFromCSR(s.Current().G), 6, int64(1000+i*16+j))
				s.Apply(up)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Refresh continuously until the writer has pushed the store through
	// enough versions that both span lengths got exercised.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; s.Current().Seq < 60; i++ {
		if _, _, err := r.Refresh(context.Background()); err != nil {
			t.Errorf("refresh %d under concurrent load: %v", i, err)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never advanced the store far enough")
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	// Quiescent catch-up, then pin against the reference.
	if _, _, err := r.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.Seq() != s.Current().Seq {
		t.Fatalf("ranker at %d, store at %d after quiescent refresh", r.Seq(), s.Current().Seq)
	}
	ref := core.Reference(s.Current().G, core.Config{})
	if e := topk.LInf(r.Ranks(), ref); e > 20*cfg.Tol {
		t.Errorf("error after concurrent-load catch-up: %g", e)
	}
	if r.Refreshes == 0 {
		t.Error("no incremental refresh happened at all")
	}
}

// TestRankerDisableFallback injects a crash of every worker: there is no
// failure fallback, so the failure must surface as itself, the vector must
// stay at its last good version, and clearing the plan must let the next
// Refresh land incrementally.
func TestRankerDisableFallback(t *testing.T) {
	s := testStore(t, 0)
	n := s.Current().G.N()
	cfg := testCfg(n)
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	up := batch.Random(graph.DynamicFromCSR(s.Current().G), 12, 77)
	s.Apply(up)

	r.SetFault(fault.Plan{CrashWorkers: fault.CrashSet(cfg.Threads, cfg.Threads), Seed: 3})
	res, advanced, err := r.Refresh(context.Background())
	if err == nil {
		t.Fatal("crashed refresh reported success")
	}
	if !errors.Is(err, core.ErrAllCrashed) {
		t.Errorf("err = %v, want ErrAllCrashed", err)
	}
	if advanced != 0 || r.Seq() != 0 {
		t.Errorf("advanced=%d seq=%d after a crashed refresh", advanced, r.Seq())
	}
	if res.CrashedWorkers != cfg.Threads {
		t.Errorf("CrashedWorkers = %d, want %d", res.CrashedWorkers, cfg.Threads)
	}

	r.SetFault(fault.Plan{})
	if _, advanced, err := r.Refresh(context.Background()); err != nil || advanced != 1 {
		t.Fatalf("recovery refresh: advanced=%d err=%v", advanced, err)
	}
	ref := core.Reference(s.Current().G, core.Config{})
	if e := topk.LInf(r.Ranks(), ref); e > 20*cfg.Tol {
		t.Errorf("error after recovery: %g", e)
	}
}

// TestRankerRefreshCanceled verifies a canceled refresh leaves the ranker
// at its last good version.
func TestRankerRefreshCanceled(t *testing.T) {
	s := testStore(t, 0)
	n := s.Current().G.N()
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, testCfg(n))
	if err != nil {
		t.Fatal(err)
	}
	up := batch.Random(graph.DynamicFromCSR(s.Current().G), 12, 78)
	s.Apply(up)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, advanced, err := r.Refresh(ctx)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if advanced != 0 || r.Seq() != 0 {
		t.Errorf("advanced=%d seq=%d after canceled refresh", advanced, r.Seq())
	}
	if _, advanced, err := r.Refresh(context.Background()); err != nil || advanced != 1 {
		t.Fatalf("post-cancel refresh: advanced=%d err=%v", advanced, err)
	}
}
