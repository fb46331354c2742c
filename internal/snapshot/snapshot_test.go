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

func TestSinceChains(t *testing.T) {
	s := testStore(t, 8)
	for i := 0; i < 5; i++ {
		up := batch.Random(graph.DynamicFromCSR(s.Current().G), 4, int64(i))
		s.Apply(up)
	}
	chain, tip := s.Since(2)
	if len(chain) != 3 || tip != s.Current() {
		t.Fatalf("Since(2): len=%d tip=%d", len(chain), tip.Seq)
	}
	for i, l := range chain {
		if l.Seq != uint64(3+i) {
			t.Errorf("chain[%d].Seq = %d", i, l.Seq)
		}
	}
	if chain, tip := s.Since(5); chain != nil || tip != s.Current() {
		t.Error("Since(latest) should be empty")
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
		algo    core.Algo
		pending int
		crash   bool
		ctx     context.Context
		// wantErr is the failure the Refresh must report (nil for success);
		// refreshes is the counter movement expected.
		wantErr   error
		refreshes int
	}{
		{name: "one version", algo: core.AlgoDFLF, pending: 1, refreshes: 1},
		{name: "coalesced span", algo: core.AlgoDFLF, pending: 4, refreshes: 1},
		{name: "static algo", algo: core.AlgoStaticLF, pending: 3, refreshes: 1},
		// A failed run surfaces as itself: nothing else is tried (it would
		// run under the same plan, whose crashes stop every worker).
		{name: "failure without fallback", algo: core.AlgoDFLF, pending: 2, crash: true, wantErr: core.ErrAllCrashed},
		{name: "cancellation", algo: core.AlgoDFLF, pending: 2, ctx: canceled, wantErr: core.ErrCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testStore(t, 0)
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
	if r.Refreshes != 1 {
		t.Errorf("refreshes=%d (static refresh is one recompute)", r.Refreshes)
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

// TestResumeRankerRefusesSecondRanker: a store serves one ranker, since
// its ring keeps exactly the links that ranker has not replayed.
func TestResumeRankerRefusesSecondRanker(t *testing.T) {
	s := testStore(t, 0)
	cfg := testCfg(s.Current().G.N())
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeRanker(s, core.AlgoDFLF, cfg, nil, 0); err == nil {
		t.Error("ResumeRanker without ranks accepted a store that has a ranker")
	}
	if _, err := ResumeRanker(s, core.AlgoDFLF, cfg, r.Ranks(), r.Seq()); err == nil {
		t.Error("ResumeRanker with ranks accepted a store that has a ranker")
	}
	if _, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, cfg); err == nil {
		t.Error("NewRanker accepted a store that has a ranker")
	}
}

// TestHistoryTrimReleasesEvictedVersions pins the retention rule: the ring
// holds keep links while its ranker keeps up, and every link past the
// ranker however far it lags, so a refresh always replays; a landing trims
// it back to keep at once. The store holds chain links, never graphs, so a
// superseded version nobody else holds is collectable at once — whatever
// the ring size — and a held one lives exactly as long as its holder. Weak
// pointers observe reachability directly.
func TestHistoryTrimReleasesEvictedVersions(t *testing.T) {
	const keep, kept, lag, heldSeq = 4, 10, 9, 12
	const total = kept + lag
	s := testStore(t, keep)
	r, _, err := NewRanker(context.Background(), s, core.AlgoDFLF, testCfg(s.Current().G.N()))
	if err != nil {
		t.Fatal(err)
	}
	weaks := []weak.Pointer[Version]{weak.Make(s.Current())}
	var held *Version
	apply := func(i int) {
		t.Helper()
		_, next := s.Apply(batch.Random(graph.DynamicFromCSR(s.Current().G), 2, int64(i)))
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
		if want := min(i+1, keep); len(s.history) != want {
			t.Fatalf("ranker keeping up at %d: ring holds %d links, want %d", i, len(s.history), want)
		}
	}
	for i := 1; i <= lag; i++ {
		apply(kept + i)
		if want := max(i, keep); len(s.history) != want {
			t.Fatalf("ranker %d behind: ring holds %d links, want %d", i, len(s.history), want)
		}
		if links, _ := s.Since(r.Seq()); len(links) != i || links[0].Seq != r.Seq()+1 {
			t.Fatalf("ranker %d behind: Since(%d) holds %d links, want all %d", i, r.Seq(), len(links), i)
		}
	}
	if _, adv, err := r.Refresh(context.Background()); err != nil || adv != lag || r.Refreshes != kept+1 {
		t.Fatalf("catch-up: advanced=%d refreshes=%d err=%v, want one refresh over %d", adv, r.Refreshes, err, lag)
	}
	if len(s.history) != keep || s.history[0].Seq != total-keep+1 {
		t.Errorf("after the landing the ring holds %d links from %d, want %d from %d",
			len(s.history), s.history[0].Seq, keep, total-keep+1)
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
