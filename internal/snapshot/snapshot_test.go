package snapshot

import (
	"context"
	"errors"
	"runtime"
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

func TestSinceChains(t *testing.T) {
	s := testStore(t, 8)
	for i := 0; i < 5; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 4, int64(i))
		s.Apply(up)
	}
	chain, tip, ok := s.Since(2)
	if !ok || len(chain) != 3 || tip != s.Current() {
		t.Fatalf("Since(2): ok=%v len=%d tip=%d", ok, len(chain), tip.Seq)
	}
	for i, l := range chain {
		if l.Seq != uint64(3+i) {
			t.Errorf("chain[%d].Seq = %d", i, l.Seq)
		}
	}
	if chain, tip, ok := s.Since(5); !ok || chain != nil || tip != s.Current() {
		t.Error("Since(latest) should be empty and ok")
	}
}

func TestSinceEvicted(t *testing.T) {
	s := testStore(t, 3)
	for i := 0; i < 10; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 2, int64(i))
		s.Apply(up)
	}
	if _, _, ok := s.Since(0); ok {
		t.Error("evicted history reported available")
	}
	if _, _, ok := s.Since(9); !ok {
		t.Error("recent history reported evicted")
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
	if r.Refreshes != 4 || r.Rebuilds != 0 {
		t.Errorf("refreshes=%d rebuilds=%d", r.Refreshes, r.Rebuilds)
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
	if r.Behind() != 5 {
		t.Fatalf("Behind = %d", r.Behind())
	}
	_, advanced, err := r.Refresh(context.Background())
	if err != nil || advanced != 5 {
		t.Fatalf("advanced=%d err=%v", advanced, err)
	}
	if r.Behind() != 0 || r.Seq() != 5 {
		t.Errorf("behind=%d seq=%d", r.Behind(), r.Seq())
	}
	ref := core.Reference(s.Current().G, core.Config{})
	if e := topk.LInf(r.Ranks(), ref); e > 20*testCfg(n).Tol {
		t.Errorf("error after catch-up: %g", e)
	}
	// One pending version published across a sequence jump (what replay does
	// with a folded WAL tail) advances by the jump, not by the chain length.
	s.ApplyAt(batch.Random(graph.DynamicFromCSR(s.Current().G), 6, 105), s.Current().Seq+5)
	behind := r.Behind()
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
// there), the twin counting ONE refresh and the full advance.
func TestRankerCoalescedSpanMatchesPerVersionReplay(t *testing.T) {
	const k = 5
	s := testStore(t, 0)
	cfg := core.Config{Threads: 4, Tol: 5e-14}
	co, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pv, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 10, int64(900+i))
		s.Apply(up)
		if _, adv, err := pv.Refresh(context.Background()); err != nil || adv != 1 {
			t.Fatalf("per-version refresh %d: advanced=%d err=%v", i, adv, err)
		}
	}
	_, coAdv, err := co.Refresh(context.Background())
	if err != nil || coAdv != k {
		t.Fatalf("coalesced refresh: advanced=%d err=%v", coAdv, err)
	}
	if co.Refreshes != 1 || co.Rebuilds != 0 || pv.Refreshes != k {
		t.Errorf("refreshes: span %d (rebuilds %d), per-version %d; want 1 (0), %d", co.Refreshes, co.Rebuilds, pv.Refreshes, k)
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
// handling: cancellation leaves the ranker untouched without a rebuild, a
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
	if _, adv, err := r.Refresh(context.Background()); !errors.Is(err, core.ErrAllCrashed) || adv != 0 || r.Rebuilds != 0 || r.Seq() != 0 {
		t.Fatalf("crashed span refresh: advanced=%d rebuilds=%d seq=%d err=%v", adv, r.Rebuilds, r.Seq(), err)
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
// exactly one of Refreshes/Rebuilds and a failure neither, and the sweep
// counters grew because a run executed.
func TestRankerLandingInvariants(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		algo    core.Algo
		keep    int
		pending int
		crash   bool
		ctx     context.Context
		// wantErr is the failure the Refresh must report (nil for success);
		// refreshes/rebuilds are the counter movements expected.
		wantErr             error
		refreshes, rebuilds int
	}{
		{name: "one version", algo: core.AlgoDFLF, pending: 1, refreshes: 1},
		{name: "coalesced span", algo: core.AlgoDFLF, pending: 4, refreshes: 1},
		{name: "static algo", algo: core.AlgoStaticLF, pending: 3, refreshes: 1},
		{name: "eviction rebuild", algo: core.AlgoDFLF, keep: 2, pending: 5, rebuilds: 1},
		// A failed run surfaces as itself: no rebuild is tried (it would sit
		// behind a barrier under the same plan and end in sched.ErrBroken).
		{name: "failure without fallback", algo: core.AlgoDFLF, pending: 2, crash: true, wantErr: core.ErrAllCrashed},
		{name: "cancellation", algo: core.AlgoDFLF, pending: 2, ctx: canceled, wantErr: core.ErrCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testStore(t, tc.keep)
			cfg := testCfg(s.Current().G.N())
			r, _, err := NewRanker(context.Background(), s, tc.algo, cfg)
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
			seq, refreshes, rebuilds := r.Seq(), r.Refreshes, r.Rebuilds
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
			if got := r.Rebuilds - rebuilds; got != tc.rebuilds {
				t.Errorf("Rebuilds moved by %d, want %d", got, tc.rebuilds)
			}
			// Refresh returns the run it executed, a failed one included; a
			// canceled context stops the run before its first sweep.
			if tc.ctx == nil && res.SweepBlocks <= 0 {
				t.Errorf("the refresh's run reports %d sweep blocks although it executed", res.SweepBlocks)
			}
		})
	}
}

func TestRankerRebuildsWhenEvicted(t *testing.T) {
	s := testStore(t, 2)
	n := s.Current().G.N()
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, testCfg(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 4, int64(i))
		s.Apply(up)
	}
	res, advanced, err := r.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if advanced != 6 || r.Rebuilds != 1 || !res.Converged {
		t.Errorf("advanced=%d rebuilds=%d converged=%v (want static rebuild)", advanced, r.Rebuilds, res.Converged)
	}
	ref := core.Reference(s.Current().G, core.Config{})
	if e := topk.LInf(r.Ranks(), ref); e > 20*testCfg(n).Tol {
		t.Errorf("error after rebuild: %g", e)
	}
}

func TestRankerStaticAlgoRecomputesPerRefresh(t *testing.T) {
	s := testStore(t, 0)
	n := s.Current().G.N()
	r, init, err := NewRanker(context.Background(), s, core.AlgoStaticLF, testCfg(n))
	if err != nil {
		t.Fatal(err)
	}
	if !init.Converged {
		t.Fatal("initial static run did not converge")
	}
	// Idle refresh is free.
	if _, advanced, err := r.Refresh(context.Background()); err != nil || advanced != 0 {
		t.Fatalf("idle static refresh: advanced=%d err=%v", advanced, err)
	}
	for i := 0; i < 3; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 4, int64(i))
		s.Apply(up)
	}
	res, advanced, err := r.Refresh(context.Background())
	if err != nil || advanced != 3 {
		t.Fatalf("static refresh: advanced=%d err=%v", advanced, err)
	}
	if !res.Converged || r.Seq() != 3 {
		t.Fatalf("converged=%v seq=%d", res.Converged, r.Seq())
	}
	if r.Refreshes != 1 || r.Rebuilds != 0 {
		t.Errorf("refreshes=%d rebuilds=%d (static refresh is one recompute)", r.Refreshes, r.Rebuilds)
	}
	ref := core.Reference(s.Current().G, core.Config{})
	if e := topk.LInf(r.Ranks(), ref); e > 20*testCfg(n).Tol {
		t.Errorf("error after static refresh: %g", e)
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

// TestHistoryTrimReleasesEvictedVersions pins the retention rule: the store
// holds chain links, never graphs, so a superseded version nobody else holds
// is collectable at once — whatever the ring size — and a held one lives
// exactly as long as its holder. Weak pointers observe reachability directly.
func TestHistoryTrimReleasesEvictedVersions(t *testing.T) {
	const keep, total, heldSeq = 8, 10, 4
	s := testStore(t, keep)
	weaks := []weak.Pointer[Version]{weak.Make(s.Current())}
	var held *Version
	for i := 0; i < total; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 2, int64(i))
		_, next := s.Apply(up)
		weaks = append(weaks, weak.Make(next))
		if next.Seq == heldSeq {
			held = next
		}
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
	// The ring still replays what it retains: links, trimmed to keep.
	if links, tip, ok := s.Since(total - keep + 1); !ok || len(links) != keep-1 || tip.Seq != total {
		t.Errorf("Since(%d): ok=%v links=%d tip=%d, want %d links to %d", total-keep+1, ok, len(links), tip.Seq, keep-1, total)
	}
	if _, _, ok := s.Since(total - keep - 1); ok {
		t.Errorf("Since(%d) resolves past the %d-link ring", total-keep-1, keep)
	}
}

// TestRankerRefreshUnderConcurrentApply exercises the Ranker while a writer
// keeps applying batches against a store with tiny retention: every Refresh
// must stay sound — incremental when the history allows, static rebuild
// when it has been evicted — and the vector must match the reference once
// the writer stops.
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
		// Throttled so refreshes can sometimes catch up within the
		// retention window (incremental path) and sometimes cannot (the
		// writer bursts past it); both paths must stay sound.
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
	// enough versions that both catch-up paths got exercised.
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
	if advanced != 0 || r.Seq() != 0 || r.Rebuilds != 0 {
		t.Errorf("advanced=%d seq=%d rebuilds=%d after a crashed refresh", advanced, r.Seq(), r.Rebuilds)
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

// TestRankerRefreshCanceled verifies a canceled refresh triggers no
// rebuild and leaves the ranker at its last good version.
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
	if advanced != 0 || r.Seq() != 0 || r.Rebuilds != 0 {
		t.Errorf("advanced=%d seq=%d rebuilds=%d after canceled refresh", advanced, r.Seq(), r.Rebuilds)
	}
	if _, advanced, err := r.Refresh(context.Background()); err != nil || advanced != 1 {
		t.Fatalf("post-cancel refresh: advanced=%d err=%v", advanced, err)
	}
}
