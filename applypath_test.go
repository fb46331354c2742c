package dfpr

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"dfpr/internal/core"
	"dfpr/internal/graph"
	"dfpr/internal/topk"
)

// TestOneApplyPath pins what the single publish point (storeApply), the
// single replay and the single restore promise together: one schedule of
// batches ends in the same engine state whichever source feeds it — public
// Apply, coalesced Submit rounds, kill-and-recover over the WAL, a replica's
// stream, a promotion over the shared tail.

// pathSub is one submission (deletions, insertions) in dense ids; the keyed
// flavour addresses vertex i as pathKey(i). New vertices are first mentioned
// in ascending id order, so key order and id order coincide.
type pathSub [2][]Edge

func pathKey(i uint32) Key { return fmt.Sprintf("k%03d", i) }

// pathSchedule builds the seeded schedule: rounds of one to three
// submissions (41 in all) that each publish exactly one version, plus the
// model of the final graph. Round 0 seeds a ring; later rounds mix deletions,
// insertions among existing vertices and universe growth; every third round
// is a multi-submission round that inserts an edge and deletes it again
// before the round applies.
func pathSchedule(seed int64) (rounds [][]pathSub, n int, final map[Edge]bool) {
	rng := rand.New(rand.NewSource(seed))
	final = map[Edge]bool{}
	n = 12
	rounds = append(rounds, []pathSub{{nil, ringEdges(n)}})
	for _, e := range ringEdges(n) {
		final[e] = true
	}
	present := func() []Edge {
		var es []Edge
		for e := range final {
			es = append(es, e)
		}
		slices.SortFunc(es, func(a, b Edge) int {
			return cmp.Compare(uint64(a.U)<<32|uint64(a.V), uint64(b.U)<<32|uint64(b.V))
		})
		return es
	}
	for r := 1; r < 25; r++ {
		var sub pathSub
		es := present()
		for i := 0; i < 2; i++ {
			e := es[rng.Intn(len(es))]
			sub[0] = append(sub[0], e)
			delete(final, e)
		}
		for i := 0; i < 3; i++ {
			e := Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
			sub[1] = append(sub[1], e)
			final[e] = true
		}
		if r%2 == 1 { // growth: a new vertex wired both ways into the graph
			w := uint32(rng.Intn(n))
			sub[1] = append(sub[1], Edge{U: uint32(n), V: w}, Edge{U: w, V: uint32(n)})
			final[Edge{U: uint32(n), V: w}], final[Edge{U: w, V: uint32(n)}] = true, true
			n++
		}
		round := []pathSub{sub}
		if r%3 == 0 {
			// Churn inside one round: x is inserted by one submission and
			// deleted by the next, so it never exists in a published version.
			x := Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
			for final[x] || slices.Contains(sub[1], x) {
				x.V = (x.V + 1) % uint32(n)
			}
			y := Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
			round = append(round, pathSub{nil, {x}}, pathSub{{x}, {y}})
			final[y] = true
		}
		rounds = append(rounds, round)
	}
	return rounds, n, final
}

// netOf folds a round's submissions into the one batch that leaves the same
// edge set: last operation per edge wins, first-mention order kept (the
// keyed flavour interns in that order).
func netOf(round []pathSub) (del, ins []Edge) {
	lastIns := map[Edge]bool{}
	var order []Edge
	for _, sub := range round {
		for op, es := range sub {
			for _, e := range es {
				if _, seen := lastIns[e]; !seen {
					order = append(order, e)
				}
				lastIns[e] = op == 1
			}
		}
	}
	for _, e := range order {
		if lastIns[e] {
			ins = append(ins, e)
		} else {
			del = append(del, e)
		}
	}
	return del, ins
}

// pathFlavour opens, writes to and submits to a dense-ID or a keyed engine
// from the same dense schedule.
type pathFlavour struct{ keyed bool }

func (f pathFlavour) open(opts ...Option) (*Engine, error) {
	if f.keyed {
		return Open(opts...)
	}
	return New(0, nil, opts...)
}

func keyEdges(es []Edge) []KeyEdge {
	out := make([]KeyEdge, len(es))
	for i, e := range es {
		out[i] = KeyEdge{From: pathKey(e.U), To: pathKey(e.V)}
	}
	return out
}

func (f pathFlavour) apply(e *Engine, del, ins []Edge) (uint64, error) {
	if f.keyed {
		return e.ApplyKeyed(context.Background(), keyEdges(del), keyEdges(ins))
	}
	return e.Apply(context.Background(), del, ins)
}

func (f pathFlavour) submit(e *Engine, del, ins []Edge) (*Ticket, error) {
	if f.keyed {
		return e.SubmitKeyed(context.Background(), keyEdges(del), keyEdges(ins))
	}
	return e.Submit(context.Background(), del, ins)
}

// applyRounds is the Apply source: one Apply per round, of the round's net
// batch.
func (f pathFlavour) applyRounds(t *testing.T, e *Engine, rounds [][]pathSub) {
	t.Helper()
	for _, round := range rounds {
		del, ins := netOf(round)
		if _, err := f.apply(e, del, ins); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
}

// submitRounds is the coalesced-Submit source, on a durable engine: every
// round's submissions reach the ingest loop as exactly one coalescing round.
// The loop blocks only in storeApply, so the driver parks it there, on the
// durability mutex, with round i-1 drained while round i queues up whole.
// To let round i-1 publish without the loop draining on into a half-queued
// round, ingestMu holds the loop between that publication and its next
// drain while the durability mutex is taken back. The refresher ranks each
// version before the next publishes (WaitRanked), so every refresh is one
// incremental step. The mutexes are held through a parker, so a round that
// fails releases them and Close can stop the pipeline.
func (f pathFlavour) submitRounds(t *testing.T, e *Engine, rounds [][]pathSub) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d := e.durable()
	var park parker
	defer park.release()
	landed := func(i int, tks []*Ticket) {
		t.Helper()
		for _, tk := range tks {
			if seq, err := tk.Wait(ctx); err != nil || seq != uint64(i+1) {
				t.Fatalf("round %d landed in version %d (%v), want one coalesced version %d", i, seq, err, i+1)
			}
		}
		if err := e.WaitRanked(ctx, uint64(i+1)); err != nil {
			t.Fatalf("version %d unranked: %v", i+1, err)
		}
	}
	park.lock(&d.mu)
	var prev []*Ticket
	for i, round := range rounds {
		if i == 0 && len(round) != 1 {
			t.Fatal("round 0 finds the loop idle and must be a single submission")
		}
		var tks []*Ticket
		for _, sub := range round {
			tk, err := f.submit(e, sub[0], sub[1])
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			tks = append(tks, tk)
		}
		if i > 0 {
			// Round i-1 publishes as version i; round i drains and parks.
			park.lock(&e.ingestMu)
			park.unlock(&d.mu)
			if err := e.WaitVersion(ctx, uint64(i)); err != nil {
				t.Fatalf("round %d never published: %v", i-1, err)
			}
			park.lock(&d.mu)
			park.unlock(&e.ingestMu)
		}
		waitDrained(t, e)
		if i > 0 {
			landed(i-1, prev)
		}
		prev = tks
	}
	park.unlock(&d.mu)
	landed(len(rounds)-1, prev)
	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// copyDir snapshots a durability directory as it is on disk — what a
// kill -9 at this instant would leave a restart to find.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestOneApplyPath(t *testing.T) {
	for _, f := range []pathFlavour{{keyed: false}, {keyed: true}} {
		t.Run(fmt.Sprintf("keyed=%v", f.keyed), func(t *testing.T) { testOneApplyPath(t, f) })
	}
}

func testOneApplyPath(t *testing.T, f pathFlavour) {
	ctx := context.Background()
	rounds, n, final := pathSchedule(12)
	const ckptAt = 10 // rounds before the writer's ranked checkpoint; the rest is the WAL tail
	tip := uint64(len(rounds))
	// One worker makes the lock-free refresh deterministic, which the bitwise
	// comparison below needs; the tolerance is the equivalence suites'.
	opts := []Option{WithThreads(1), WithTolerance(growthTol)}
	open := func(extra ...Option) *Engine {
		t.Helper()
		e, err := f.open(append(opts[:len(opts):len(opts)], extra...)...)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}

	// Source 1: Apply on a volatile engine. Source 2: coalesced Submit, with
	// the WAL underneath.
	applied := open()
	f.applyRounds(t, applied, rounds)
	submitted := open(WithDurability(t.TempDir()))
	f.submitRounds(t, submitted, rounds)

	// The durable writer: Apply again, now with the WAL underneath. It ranks
	// and checkpoints mid-schedule, two followers bootstrap from that
	// checkpoint and stop streaming, and the rest of the schedule becomes a
	// tail none of them has seen.
	dir := t.TempDir()
	writer := open(WithDurability(dir), WithFsync(FsyncAlways()))
	f.applyRounds(t, writer, rounds[:ckptAt])
	if _, err := writer.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	if err := writer.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(feedMux(func() *Engine { return writer }))
	defer srv.Close()
	follower := func() *Cluster {
		rep, err := StartReplica(ctx, srv.URL, opts...)
		if err != nil {
			t.Fatalf("StartReplica: %v", err)
		}
		rep.stopStream()
		if got := rep.Engine().Version(); got != ckptAt {
			t.Fatalf("follower bootstrapped at version %d, want the checkpoint %d", got, ckptAt)
		}
		return rep
	}
	replica, promotee := follower(), follower()
	defer replica.Close()
	defer promotee.Close()
	f.applyRounds(t, writer, rounds[ckptAt:])

	// Source 3: kill -9 (the directory as it is on disk, FsyncAlways) and
	// recoverDurable.
	recovered := open(WithDurability(copyDir(t, dir)))

	// Source 4: the StartReplica stream. mu parks the refresher inside Rank
	// until the apply loop has replayed the whole tail, so one refresh
	// covers it, as one did on the recovered engine.
	refreshes := replica.eng.met.refreshes.Value()
	var park parker
	defer park.release()
	park.lock(&replica.eng.mu)
	if err := replica.follow(srv.URL); err != nil {
		t.Fatalf("resume stream: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := replica.eng.WaitVersion(wctx, tip); err != nil {
		t.Fatalf("tail never replayed on the replica: %v", err)
	}
	park.unlock(&replica.eng.mu)
	if err := replica.eng.WaitRanked(wctx, tip); err != nil {
		t.Fatal(err)
	}
	if got := replica.eng.met.refreshes.Value() - refreshes; got != 1 {
		t.Fatalf("replica ranked the tail in %d refreshes, want one", got)
	}

	// Source 5: promote over the shared tail.
	if err := promotee.eng.promote(copyDir(t, dir)); err != nil {
		t.Fatalf("promote: %v", err)
	}

	sources := []struct {
		name string
		eng  *Engine
	}{
		{"Apply", applied}, {"Submit", submitted}, {"Apply+WAL", writer},
		{"recoverDurable", recovered}, {"StartReplica", replica.eng}, {"promote", promotee.eng},
	}
	d := graph.NewDynamic(n)
	for e := range final {
		d.AddEdge(e.U, e.V)
	}
	d.EnsureSelfLoops()
	gFinal := d.Snapshot()
	ref := core.Reference(gFinal, core.Config{})
	wantEdges := sortedEdges(gFinal)
	var wantKeys []Key
	for i := 0; f.keyed && i < n; i++ {
		wantKeys = append(wantKeys, pathKey(uint32(i)))
	}
	ranks := map[string][]float64{}
	for _, s := range sources {
		res, err := s.eng.Rank(ctx)
		if err != nil {
			t.Fatalf("%s: rank: %v", s.name, err)
		}
		if got := s.eng.Version(); got != tip || res.Seq != tip {
			t.Errorf("%s: version %d ranked at %d, want %d", s.name, got, res.Seq, tip)
		}
		if got := sortedEdges(s.eng.store.Current().G); !slices.Equal(got, wantEdges) {
			t.Errorf("%s: edge set differs from the schedule's model (%d edges, want %d)", s.name, len(got), len(wantEdges))
		}
		if f.keyed {
			if got := s.eng.keys.KeysRange(0, s.eng.keys.Len()); !slices.Equal(got, wantKeys) {
				t.Errorf("%s: key→id order %v, want %v", s.name, got, wantKeys)
			}
		}
		ranks[s.name] = ranksOf(res.View)
		if d := topk.LInf(ranks[s.name], ref); d > 1e-12 {
			t.Errorf("%s: ranks deviate from core.Reference by %g (bound 1e-12)", s.name, d)
		}
	}
	// Same checkpoint, same records, one replay: not close — identical.
	for _, name := range []string{"StartReplica", "promote"} {
		if !slices.Equal(ranks[name], ranks["recoverDurable"]) {
			t.Errorf("%s ranks are not bitwise equal to the recovered engine's (L∞ %g)",
				name, topk.LInf(ranks[name], ranks["recoverDurable"]))
		}
	}
}

func sortedEdges(g *graph.CSR) []graph.Edge {
	es := g.Edges(nil)
	slices.SortFunc(es, func(a, b graph.Edge) int {
		return cmp.Compare(uint64(a.U)<<32|uint64(a.V), uint64(b.U)<<32|uint64(b.V))
	})
	return es
}
