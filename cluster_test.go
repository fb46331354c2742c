package dfpr

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dfpr/internal/core"
	"dfpr/internal/graph"
	"dfpr/internal/repl"
	"dfpr/internal/testutil"
	"dfpr/internal/topk"
	"dfpr/internal/wal"
)

// feedMux mounts an engine provider's feed the way the serve layer does:
// re-resolved per request, so a promoted replica starts feeding without a
// remount.
func feedMux(eng func() *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/feed", func(w http.ResponseWriter, r *http.Request) {
		e := eng()
		if e == nil {
			http.Error(w, "no engine yet", http.StatusServiceUnavailable)
			return
		}
		h := e.Feed()
		if h == nil {
			http.Error(w, "not the writer", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
	return mux
}

// rankDiff returns the L∞ distance between two engines' latest views.
func rankDiff(t *testing.T, a, b *Engine) float64 {
	t.Helper()
	va, err := a.View()
	if err != nil {
		t.Fatalf("writer view: %v", err)
	}
	vb, err := b.View()
	if err != nil {
		t.Fatalf("replica view: %v", err)
	}
	if va.Seq() != vb.Seq() || va.N() != vb.N() {
		t.Fatalf("views disagree: writer seq=%d n=%d, replica seq=%d n=%d", va.Seq(), va.N(), vb.Seq(), vb.N())
	}
	var linf float64
	for u := uint32(0); int(u) < va.N(); u++ {
		sa, _ := va.ScoreOf(u)
		sb, _ := vb.ScoreOf(u)
		if d := math.Abs(sa - sb); d > linf {
			linf = d
		}
	}
	return linf
}

func waitFor(t *testing.T, what string, timeout time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplicaFollowsWriter(t *testing.T) {
	ctx := context.Background()
	// Writer and replica legitimately replay different spans (the replica
	// coalesces whatever the stream delivered), so two runs at tolerance τ
	// agree only to ~2ατ/(1−α). The 1e-12 assertion below holds by
	// construction at τ = 1e-14, not by how far past τ a run happens to go.
	tight := WithTolerance(1e-14)
	writer, err := New(8, ringEdges(8), WithDurability(t.TempDir()), tight)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer writer.Close()
	if _, err := writer.Rank(ctx); err != nil {
		t.Fatalf("writer rank: %v", err)
	}
	srv := httptest.NewServer(feedMux(func() *Engine { return writer }))
	defer srv.Close()

	rep, err := StartReplica(ctx, srv.URL, tight)
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	defer rep.Close()
	eng := rep.Engine()

	// The bootstrap alone (no writes yet) must already converge the replica
	// to the writer's seeded graph.
	waitFor(t, "bootstrap ranks", 10*time.Second, func() bool {
		_, err := eng.View()
		return err == nil
	})

	// A follower bounces every public write with ErrNotWriter — including
	// the keyed forms' interning, which must not grow the key space.
	if _, err := eng.Apply(ctx, nil, []Edge{{U: 0, V: 5}}); !errors.Is(err, ErrNotWriter) {
		t.Fatalf("replica Apply = %v, want ErrNotWriter", err)
	}
	if _, err := eng.Submit(ctx, nil, []Edge{{U: 0, V: 5}}); !errors.Is(err, ErrNotWriter) {
		t.Fatalf("replica Submit = %v, want ErrNotWriter", err)
	}
	if _, err := eng.Grow(ctx, 99); !errors.Is(err, ErrNotWriter) {
		t.Fatalf("replica Grow = %v, want ErrNotWriter", err)
	}

	// Writes stream across and the replica's incremental refresh matches
	// the writer's bit-for-bit within L∞ ≤ 1e-12.
	var seq uint64
	for i := 0; i < 5; i++ {
		seq, err = writer.Apply(ctx, nil, []Edge{{U: uint32(i), V: uint32((i + 3) % 8)}, {U: uint32(7 - i), V: uint32(i)}})
		if err != nil {
			t.Fatalf("writer apply: %v", err)
		}
		if _, err := writer.Rank(ctx); err != nil {
			t.Fatalf("writer rank: %v", err)
		}
	}
	waitFor(t, "replica catch-up", 10*time.Second, func() bool {
		v, err := eng.View()
		return err == nil && v.Seq() == seq
	})
	if d := rankDiff(t, writer, eng); d > 1e-12 {
		t.Fatalf("replica ranks diverge: L∞ = %g", d)
	}

	rs := eng.Stats().ReplicationStats
	if !rs.Enabled || rs.Role != "replica" || rs.AppliedSeq != seq || rs.LagRecords != 0 {
		t.Fatalf("replica stats = %+v", rs)
	}
	ws := writer.Feed()
	if ws == nil {
		t.Fatal("durable writer returned a nil feed")
	}
}

func TestReplicaKeyedFollowsWriter(t *testing.T) {
	ctx := context.Background()
	writer, err := Open(WithDurability(t.TempDir()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer writer.Close()
	if _, err := writer.ApplyKeyed(ctx, nil, []KeyEdge{{From: "a", To: "b"}, {From: "b", To: "c"}}); err != nil {
		t.Fatalf("ApplyKeyed: %v", err)
	}
	if _, err := writer.Rank(ctx); err != nil {
		t.Fatalf("rank: %v", err)
	}
	srv := httptest.NewServer(feedMux(func() *Engine { return writer }))
	defer srv.Close()

	rep, err := StartReplica(ctx, srv.URL)
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	defer rep.Close()
	eng := rep.Engine()
	if !eng.Keyed() {
		t.Fatal("keyed flavor lost across the feed handshake")
	}
	seq, err := writer.ApplyKeyed(ctx, nil, []KeyEdge{{From: "c", To: "d"}, {From: "d", To: "a"}})
	if err != nil {
		t.Fatalf("ApplyKeyed: %v", err)
	}
	if _, err := writer.Rank(ctx); err != nil {
		t.Fatalf("rank: %v", err)
	}
	waitFor(t, "keyed replica catch-up", 10*time.Second, func() bool {
		v, err := eng.View()
		return err == nil && v.Seq() == seq
	})
	// Streamed records carried the key log: the replica resolves by key.
	v, err := eng.View()
	if err != nil {
		t.Fatalf("replica view: %v", err)
	}
	for _, k := range []Key{"a", "b", "c", "d"} {
		if _, ok := v.ScoreOfKey(k); !ok {
			t.Fatalf("replica cannot resolve key %q", k)
		}
	}
	if _, err := eng.ApplyKeyed(ctx, nil, []KeyEdge{{From: "x", To: "y"}}); !errors.Is(err, ErrNotWriter) {
		t.Fatalf("replica ApplyKeyed = %v, want ErrNotWriter", err)
	}
	if eng.Keys() != 4 {
		t.Fatalf("rejected keyed write grew the key space to %d", eng.Keys())
	}
}

// TestReplicaLagReadsWriterClock serves a hand-built feed whose writer clock
// runs one hour behind this process: record 1 sent at w, then a heartbeat
// advertising tip 6 at w+2s. The replica applies record 1 and trails by five
// records; its lag in seconds is the writer-side gap, 2 s, however far the
// two clocks disagree.
func TestReplicaLagReadsWriterClock(t *testing.T) {
	w := time.Now().Add(-time.Hour)
	d := graph.NewDynamic(4)
	for _, e := range ringEdges(4) {
		d.AddEdge(e.U, e.V)
	}
	d.EnsureSelfLoops()
	snap := wal.EncodeState(&wal.State{Seq: 0, Graph: d.Snapshot()})
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		le := binary.LittleEndian
		out := fmt.Appendf(nil, `{"proto":1,"start":0,"tip":1,"snapshot":%d}`+"\n", len(snap))
		out = append(out, snap...)
		out = le.AppendUint64(append(out, 'r'), uint64(w.UnixNano()))
		out = wal.EncodeRecord(out, &wal.Record{Seq: 1, N: 4, Ins: []graph.Edge{{U: 0, V: 2}}})
		out = le.AppendUint64(append(out, 'h'), 6)
		out = le.AppendUint64(out, uint64(w.Add(2*time.Second).UnixNano()))
		rw.Write(out)
		rw.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer srv.Close()
	rep, err := StartReplica(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	defer rep.Close()

	var rs ReplicationStats
	waitFor(t, "record 1 applied behind tip 6", 10*time.Second, func() bool {
		rs = rep.Engine().Stats().ReplicationStats
		return rs.AppliedSeq == 1 && rs.WriterSeq == 6 && rs.LagSeconds != 0
	})
	if rs.LagRecords != 5 || math.Abs(rs.LagSeconds-2) > 1e-6 {
		t.Fatalf("lag = %d records, %.3f s; want 5 records, 2 s on the writer's clock", rs.LagRecords, rs.LagSeconds)
	}
}

// corruptFeed serves an engine's feed and, once armed, writes a byte no
// frame starts with ahead of the next frame: the follower's client reads
// an unknown frame, which is terminal.
type corruptFeed struct {
	http.ResponseWriter
	armed *atomic.Bool
}

func (w corruptFeed) Write(p []byte) (int, error) {
	if w.armed.CompareAndSwap(true, false) {
		if _, err := w.ResponseWriter.Write([]byte{0xff}); err != nil {
			return 0, err
		}
	}
	return w.ResponseWriter.Write(p)
}

func (w corruptFeed) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// followWriter starts a durable writer over a ring, converged, a feed
// server for it and a follower of that feed with opts, and waits for the
// follower's bootstrap ranks. armed, when set, corrupts the feed's next
// frame (corruptFeed).
func followWriter(t *testing.T, armed *atomic.Bool, opts ...Option) (writer *Engine, rep *Cluster) {
	t.Helper()
	ctx := context.Background()
	writer, err := New(8, ringEdges(8), WithDurability(t.TempDir()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { writer.Close() })
	if _, err := writer.Rank(ctx); err != nil {
		t.Fatalf("writer rank: %v", err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writer.Feed().ServeHTTP(corruptFeed{w, armed}, r)
	}))
	t.Cleanup(srv.Close)
	rep, err = StartReplica(ctx, srv.URL, opts...)
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	// Registered after srv.Close, so it runs first: the follower's stream
	// must end before the server waits for its requests.
	t.Cleanup(func() { rep.Close() })
	waitFor(t, "bootstrap ranks", 10*time.Second, func() bool {
		_, err := rep.Engine().View()
		return err == nil
	})
	return writer, rep
}

// TestStoppedFollowerClosesFeedClient stops a follower's apply loop with a
// terminal stream error and requires its feed connection to go with it: a
// stopped stream that kept its client open would hold one writer connection
// per failure until the follower closed, and a cluster node re-dials on
// every lease tick.
func TestStoppedFollowerClosesFeedClient(t *testing.T) {
	var armed atomic.Bool
	writer, rep := followWriter(t, &armed)
	conns := func() int64 { return writer.feed.Load().Conns() }
	waitFor(t, "the follower's feed connection", 10*time.Second, func() bool { return conns() == 1 })

	// The next frame reaches the follower as an unknown frame: its client
	// stops for good, and so does the apply loop.
	armed.Store(true)
	if _, err := writer.Apply(context.Background(), nil, []Edge{{U: 0, V: 4}}); err != nil {
		t.Fatalf("writer apply: %v", err)
	}
	eng := rep.Engine()
	waitFor(t, "the follower's replication error", 10*time.Second, func() bool {
		return eng.Stats().ReplicationStats.Err != nil
	})
	waitFor(t, "the stopped follower's feed connection to close", 5*time.Second, func() bool { return conns() == 0 })
}

// TestFollowerRetriesFailedRefresh crashes every worker of the follower's
// refreshes: the streamed rounds still apply, the stream stays up, and the
// refresher retries until the plan is disarmed and the ranks catch up.
func TestFollowerRetriesFailedRefresh(t *testing.T) {
	ctx := context.Background()
	var armed atomic.Bool
	writer, rep := followWriter(t, &armed, WithThreads(2))
	eng := rep.Engine()
	if err := eng.SetFaultPlan(FaultPlan{CrashWorkers: CrashSet(2, 2), Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	for i := range 3 {
		var err error
		if seq, err = writer.Apply(ctx, nil, []Edge{{U: uint32(i), V: uint32(i + 4)}}); err != nil {
			t.Fatalf("writer apply: %v", err)
		}
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err = eng.WaitVersion(wctx, seq)
		cancel()
		if err != nil {
			t.Fatalf("follower version stuck below %d while its refreshes fail: %v", seq, err)
		}
	}
	time.Sleep(3 * rankRetryDelay) // let the refresher fail and retry
	if v, err := eng.View(); err != nil {
		t.Fatal(err)
	} else if v.Seq() >= seq {
		t.Fatalf("follower ranked version %d under a plan that crashes every worker", v.Seq())
	}
	if err := eng.Stats().ReplicationStats.Err; err != nil {
		t.Fatalf("a failed refresh stopped replication: %v", err)
	}
	if err := eng.SetFaultPlan(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := eng.WaitRanked(wctx, seq); err != nil {
		t.Fatalf("the follower's ranks never caught up once the plan was disarmed: %v", err)
	}
}

// TestStopStreamWithCrashedRefresher streams four rounds, past a history of
// two, to a follower whose refreshes all fail (every worker crashes), then
// stops its stream as a re-point or a promotion does. The apply loop never
// waits for the ranks, so stopStream returns at once instead of when the
// plan is lifted.
func TestStopStreamWithCrashedRefresher(t *testing.T) {
	ctx := context.Background()
	var armed atomic.Bool
	writer, rep := followWriter(t, &armed, WithThreads(2), WithHistory(2))
	eng := rep.Engine()
	if err := eng.SetFaultPlan(FaultPlan{CrashWorkers: CrashSet(2, 2), Seed: 3}); err != nil {
		t.Fatal(err)
	}
	defer eng.SetFaultPlan(FaultPlan{}) // lets a stuck apply loop go before Close
	rep.mu.Lock()
	cl := rep.cl
	rep.mu.Unlock()
	for i := range 4 {
		seq, err := writer.Apply(ctx, nil, []Edge{{U: uint32(i), V: uint32(i + 4)}})
		if err != nil {
			t.Fatalf("writer apply: %v", err)
		}
		// One record at a time, each in the apply loop's hands before the
		// next, so the loop meets every round with the ranks further behind.
		waitFor(t, "the follower's stream to deliver the round", 10*time.Second, func() bool {
			return cl.Stats().DeliveredSeq >= seq
		})
		if i < 2 {
			wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			err = eng.WaitVersion(wctx, seq)
			cancel()
			if err != nil {
				t.Fatalf("follower never replayed version %d: %v", seq, err)
			}
		}
	}
	stopped := make(chan struct{})
	go func() {
		rep.stopStream()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatalf("stopStream still waiting after 1s, the ranks %d versions behind", eng.Behind())
	}
}

// TestFollowerPublishesWhileRanking parks the follower's refresher on the
// engine's mu inside Rank: the apply loop must keep replaying streamed
// rounds, so the follower's version reaches both of the writer's rounds,
// and the refresher ranks them once it runs.
func TestFollowerPublishesWhileRanking(t *testing.T) {
	ctx := context.Background()
	var armed atomic.Bool
	writer, rep := followWriter(t, &armed)
	eng := rep.Engine()
	var park parker
	defer park.release()
	park.lock(&eng.mu)
	var seq uint64
	for i := range 2 {
		var err error
		if seq, err = writer.Apply(ctx, nil, []Edge{{U: uint32(i), V: uint32(i + 3)}}); err != nil {
			t.Fatalf("writer apply: %v", err)
		}
		wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err = eng.WaitVersion(wctx, seq)
		cancel()
		if err != nil {
			t.Fatalf("follower stuck below version %d while a refresh was parked: %v", seq, err)
		}
	}
	park.unlock(&eng.mu)
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := eng.WaitRanked(wctx, seq); err != nil {
		t.Fatalf("version %d unranked once the refresher ran: %v", seq, err)
	}
}

// TestFollowerStaysInsideHistory is TestRefresherStaysInsideHistory on a
// follower: 40 streamed rounds against a slowed kernel and a history of 4.
// The refresher is parked on mu for the first 20: the apply loop replays
// them anyway, the ranks lag past the history, and the one landing after
// the park replays all 20 as one span. The last 20 stream while refreshes
// run, and the caught-up ranks are exact.
func TestFollowerStaysInsideHistory(t *testing.T) {
	const history, parked = 4, 20
	ctx := context.Background()
	n, edges, _ := testGraph(t, 9, 55)
	tol := WithTolerance(growthTol)
	writer, err := New(n, edges, WithDurability(t.TempDir()), WithThreads(1), tol)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	srv := httptest.NewServer(feedMux(func() *Engine { return writer }))
	defer srv.Close()
	rep, err := StartReplica(ctx, srv.URL, WithThreads(2), tol, WithHistory(history))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	var park parker
	defer park.release()
	eng := rep.Engine()
	wctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := eng.WaitRanked(wctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetFaultPlan(FaultPlan{DelayProb: 0.01, DelayDur: 100 * time.Microsecond, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe()
	defer sub.Close()
	before := eng.Stats()
	var seq uint64
	stream := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if seq, err = writer.Apply(ctx, nil, []Edge{{U: uint32(i % 60), V: uint32((i*11 + 3) % 60)}}); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond) // the records arrive one by one
		}
	}
	park.lock(&eng.mu)
	stream(0, parked)
	pctx, pcancel := context.WithTimeout(ctx, 10*time.Second)
	defer pcancel()
	if err := eng.WaitVersion(pctx, seq); err != nil {
		t.Fatalf("follower stopped replaying at version %d, %d past its ranks: %v", eng.Version(), eng.Behind(), err)
	}
	if behind := eng.Behind(); behind < parked {
		t.Fatalf("behind=%d with the refresher parked through %d rounds", behind, parked)
	}
	park.unlock(&eng.mu)
	if err := eng.WaitRanked(wctx, seq); err != nil {
		t.Fatal(err)
	}
	if res := <-sub.Updates(); res.Advanced < parked || res.Seq != seq {
		t.Errorf("the landing after the park advanced %d versions to %d, want all %d past a history of %d to %d",
			res.Advanced, res.Seq, parked, history, seq)
	}
	stream(parked, 40)
	if err := eng.WaitRanked(wctx, seq); err != nil {
		t.Fatalf("follower never ranked version %d: %v", seq, err)
	}
	st := eng.Stats()
	t.Logf("%d versions, %d publications, %d refreshes, %d superseded", seq,
		eng.met.applies.Value(), st.Refreshes-before.Refreshes, st.Superseded-before.Superseded)
	if err := st.ReplicationStats.Err; err != nil {
		t.Fatalf("replication stopped: %v", err)
	}
	v, err := eng.View()
	if err != nil {
		t.Fatal(err)
	}
	ref := core.Reference(eng.store.Current().G, core.Config{})
	if d := topk.LInf(ranksOf(v), ref); d > 1e-12 {
		t.Errorf("ranks deviate from core.Reference by %g (bound 1e-12)", d)
	}
}

// clusterNode is one in-process cluster member: its serve stub and its
// membership handle.
type clusterNode struct {
	srv *httptest.Server
	c   *Cluster
	// live is c as the serve stub sees it: other nodes dial the stub's feed
	// from their own goroutines while the test goroutine is still joining.
	live atomic.Pointer[Cluster]
}

func TestClusterElectionAndFailover(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()

	// Three serve stubs exist before any node joins so every SelfURL is
	// known up front (static membership).
	nodes := make([]*clusterNode, 3)
	for i := range nodes {
		n := &clusterNode{}
		n.srv = httptest.NewServer(feedMux(func() *Engine {
			c := n.live.Load()
			if c == nil {
				return nil
			}
			return c.Engine()
		}))
		nodes[i] = n
	}
	defer func() {
		// Nodes before stubs: httptest.Server.Close waits for in-flight
		// requests, and a joined node holds a streaming feed connection
		// open for as long as it lives — closing a stub first turns any
		// mid-test Fatalf into a hang for the whole go test timeout.
		// Cluster.Close is idempotent, so the success path's own closes
		// below are harmless here.
		for _, n := range nodes {
			if n.c != nil {
				_ = n.c.Close()
			}
		}
		for _, n := range nodes {
			n.srv.Close()
		}
	}()
	var peers []string
	for _, n := range nodes {
		peers = append(peers, n.srv.URL)
	}
	join := func(i int) {
		t.Helper()
		c, err := JoinCluster(ctx, ClusterConfig{
			NodeID:    fmt.Sprintf("node-%d", i),
			Dir:       dir,
			SelfURL:   nodes[i].srv.URL,
			Peers:     peers,
			LeaseTTL:  500 * time.Millisecond,
			SeedN:     8,
			SeedEdges: ringEdges(8),
			// τ = 1e-14 on every role: the 1e-12 equivalence checks below
			// compare nodes that replay different spans (see
			// TestReplicaFollowsWriter).
			Engine: []Option{WithTolerance(1e-14)},
		})
		if err != nil {
			t.Fatalf("join node-%d: %v", i, err)
		}
		nodes[i].c = c
		nodes[i].live.Store(c)
	}
	join(0)
	if nodes[0].c.Role() != RoleWriter {
		t.Fatalf("first joiner role = %v, want writer", nodes[0].c.Role())
	}
	writer := nodes[0].c.Engine()
	if _, err := writer.Rank(ctx); err != nil {
		t.Fatalf("writer rank: %v", err)
	}
	join(1)
	join(2)
	for i := 1; i <= 2; i++ {
		if nodes[i].c.Role() != RoleReplica {
			t.Fatalf("node-%d role = %v, want replica", i, nodes[i].c.Role())
		}
		if nodes[i].c.LeaderURL() != nodes[0].srv.URL {
			t.Fatalf("node-%d leader = %q, want %q", i, nodes[i].c.LeaderURL(), nodes[0].srv.URL)
		}
	}

	// Write through the leader; both replicas converge to identical ranks.
	var seq uint64
	var err error
	for i := 0; i < 4; i++ {
		seq, err = writer.Apply(ctx, nil, []Edge{{U: uint32(i), V: uint32((i + 5) % 8)}})
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if _, err := writer.Rank(ctx); err != nil {
			t.Fatalf("rank: %v", err)
		}
	}
	for i := 1; i <= 2; i++ {
		eng := nodes[i].c.Engine()
		waitFor(t, fmt.Sprintf("node-%d catch-up", i), 15*time.Second, func() bool {
			v, err := eng.View()
			return err == nil && v.Seq() == seq
		})
		if d := rankDiff(t, writer, eng); d > 1e-12 {
			t.Fatalf("node-%d ranks diverge: L∞ = %g", i, d)
		}
	}

	// Kill the writer (Halt = in-process kill -9: lease NOT released) and
	// its listener; a replica must steal the expired lease, promote, resume
	// the WAL sequence, and accept writes.
	nodes[0].c.Halt()
	nodes[0].srv.Close()
	var promoted *clusterNode
	waitFor(t, "writer promotion", 30*time.Second, func() bool {
		for _, n := range nodes[1:] {
			if n.c.Role() == RoleWriter {
				promoted = n
				return true
			}
		}
		return false
	})
	neweng := promoted.c.Engine()
	if neweng.Stats().Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", neweng.Stats().Failovers)
	}
	next, err := neweng.Apply(ctx, nil, []Edge{{U: 2, V: 6}})
	if err != nil {
		t.Fatalf("post-failover apply: %v", err)
	}
	if next != seq+1 {
		t.Fatalf("post-failover version = %d, want %d (the WAL sequence must resume)", next, seq+1)
	}
	if ds := neweng.Stats().DurabilityStats; !ds.Enabled || ds.WALSeq != next {
		t.Fatalf("promoted durability stats = %+v, want WALSeq %d", ds, next)
	}
	if _, err := neweng.Rank(ctx); err != nil {
		t.Fatalf("post-failover rank: %v", err)
	}

	// The surviving replica re-points at the new leader and converges on
	// the post-failover write.
	var survivor *clusterNode
	for _, n := range nodes[1:] {
		if n != promoted {
			survivor = n
		}
	}
	seng := survivor.c.Engine()
	waitFor(t, "survivor re-point", 30*time.Second, func() bool {
		v, err := seng.View()
		return err == nil && v.Seq() == next && survivor.c.LeaderURL() == promoted.srv.URL
	})
	if d := rankDiff(t, neweng, seng); d > 1e-12 {
		t.Fatalf("survivor ranks diverge after failover: L∞ = %g", d)
	}

	if err := promoted.c.Close(); err != nil {
		t.Fatalf("close promoted: %v", err)
	}
	if err := survivor.c.Close(); err != nil {
		t.Fatalf("close survivor: %v", err)
	}
	_ = nodes[0].c.Engine().Close() // halted node: engine abandoned, close quietly
}

// ringEdges builds a directed ring over n vertices.
func ringEdges(n int) []Edge {
	out := make([]Edge, n)
	for i := 0; i < n; i++ {
		out[i] = Edge{U: uint32(i), V: uint32((i + 1) % n)}
	}
	return out
}

// TestElectionRank pins the stagger order: a node's rank is its position
// among the distinct membership URLs, whatever order -cluster-peers lists
// them in, whether or not the list names the node itself, and however often
// a URL is repeated.
func TestElectionRank(t *testing.T) {
	a, b, c := "http://10.0.0.1:8081", "http://10.0.0.2:8081", "http://10.0.0.3:8081"
	for _, tc := range []struct {
		name  string
		self  string
		peers []string
		want  int
	}{
		{"first of three", a, []string{a, b, c}, 0},
		{"last of three", c, []string{a, b, c}, 2},
		{"list order does not matter", b, []string{c, b, a}, 1},
		{"self absent from the list", b, []string{c, a}, 1},
		{"duplicates count once", c, []string{a, a, b, c, b, c}, 2},
		{"alone", a, nil, 0},
	} {
		if got := electionRank(tc.self, tc.peers); got != tc.want {
			t.Errorf("%s: electionRank(%q, %v) = %d, want %d", tc.name, tc.self, tc.peers, got, tc.want)
		}
	}
	// Every node of one membership gets its own slot.
	peers := []string{c, a, b, a}
	seen := map[int]string{}
	for _, self := range []string{a, b, c} {
		r := electionRank(self, peers)
		if other, dup := seen[r]; dup {
			t.Errorf("%s and %s share stagger slot %d", other, self, r)
		}
		seen[r] = self
	}
}

// TestClusterFailedJoinLeavesNothingRunning joins against a lease whose
// holder accepts connections and never answers. The join must end with its
// ctx — the dial rides the membership's own context, so a failed join has to
// cancel that too — and leave no goroutine behind: not the transport's, not
// a half-started replica's.
func TestClusterFailedJoinLeavesNothingRunning(t *testing.T) {
	waitJoined := testutil.LeakCheck(t, "a failed JoinCluster")
	mute := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	dir := t.TempDir()
	holder := &repl.Lease{Dir: dir, ID: "mute", URL: mute.URL, TTL: time.Minute}
	if won, _, err := holder.TryAcquire(); err != nil || !won {
		t.Fatalf("seeding the lease: won=%v err=%v", won, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	c, err := JoinCluster(ctx, ClusterConfig{NodeID: "b", Dir: dir, SelfURL: "http://b.invalid"})
	if err == nil {
		c.Close()
		t.Fatal("joined a cluster whose leader never answered")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want the join ctx's deadline", err)
	}
	mute.Close()
	waitJoined()
}
