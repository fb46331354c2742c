package repl

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"dfpr/internal/graph"
	"dfpr/internal/wal"
)

func testLog(t *testing.T) *wal.Log {
	t.Helper()
	l, rec, err := wal.Open(t.TempDir(), wal.Options{Mode: wal.SyncNone})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	if !rec.HasState {
		if err := l.WriteCheckpoint(&wal.State{Seq: 0, Graph: testCSR(t, 8)}); err != nil {
			t.Fatalf("seed checkpoint: %v", err)
		}
	}
	return l
}

func testCSR(t testing.TB, n int) *graph.CSR {
	t.Helper()
	d := graph.NewDynamic(n)
	for u := 0; u < n; u++ {
		d.AddEdge(uint32(u), uint32((u+1)%n))
	}
	d.EnsureSelfLoops()
	return d.Snapshot()
}

func testRecord(seq uint64) *wal.Record {
	return &wal.Record{
		Seq: seq,
		N:   8,
		Ins: []graph.Edge{{U: uint32(seq % 8), V: uint32((seq + 3) % 8)}},
	}
}

func TestFeedClientTailFollow(t *testing.T) {
	l := testLog(t)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	feed := NewFeed(l, FeedOptions{Keyed: true, Heartbeat: 20 * time.Millisecond})
	srv := httptest.NewServer(feed)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ClientOptions{URL: srv.URL, From: 0})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if c.Bootstrap() != nil {
		t.Fatal("tail-only dial returned a snapshot")
	}
	if !c.Keyed() {
		t.Fatal("keyed flag lost in handshake")
	}
	for want := uint64(1); want <= 3; want++ {
		ev := recvEvent(t, ctx, c)
		if ev.Rec.Seq != want {
			t.Fatalf("got seq %d, want %d", ev.Rec.Seq, want)
		}
		if ev.SentAt.IsZero() {
			t.Fatal("record event missing send time")
		}
	}
	// Live appends keep flowing, and heartbeats advance the tip watermark.
	for seq := uint64(4); seq <= 6; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	for want := uint64(4); want <= 6; want++ {
		if ev := recvEvent(t, ctx, c); ev.Rec.Seq != want {
			t.Fatalf("got seq %d, want %d", ev.Rec.Seq, want)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().TipSeq < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("tip watermark stuck at %d", c.Stats().TipSeq)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := c.Stats(); !st.Connected || st.DeliveredSeq != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if feed.Conns() != 1 || feed.Records() < 6 {
		t.Fatalf("feed counters: conns=%d records=%d", feed.Conns(), feed.Records())
	}
}

func TestFeedClientBootstrapBehindFloor(t *testing.T) {
	l := testLog(t)
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Checkpoint at 4 rotates and prunes, raising the floor past 0: a
	// from=0 dial must bootstrap from the checkpoint.
	if err := l.WriteCheckpoint(&wal.State{Seq: 4, Graph: testCSR(t, 8), Ranks: []float64{1, 2}}); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := l.Append(testRecord(5)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	srv := httptest.NewServer(NewFeed(l, FeedOptions{Heartbeat: 20 * time.Millisecond}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ClientOptions{URL: srv.URL, From: 0})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	st := c.Bootstrap()
	if st == nil || st.Seq != 4 || len(st.Ranks) != 2 {
		t.Fatalf("bootstrap = %+v", st)
	}
	// The stream grafts the tail right behind the snapshot.
	if ev := recvEvent(t, ctx, c); ev.Rec.Seq != 5 {
		t.Fatalf("first streamed record seq %d, want 5", ev.Rec.Seq)
	}
}

func TestFeedClientExplicitBootstrap(t *testing.T) {
	// A fresh replica (Bootstrap: true) gets the checkpoint even though its
	// from=0 sits AT the floor — the writer's seeded version-0 state would
	// otherwise never reach it.
	l := testLog(t)
	for seq := uint64(1); seq <= 2; seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	srv := httptest.NewServer(NewFeed(l, FeedOptions{Heartbeat: 20 * time.Millisecond}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ClientOptions{URL: srv.URL, From: 0, Bootstrap: true})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	st := c.Bootstrap()
	if st == nil || st.Seq != 0 || st.Graph.N() != 8 {
		t.Fatalf("bootstrap = %+v, want the seq-0 checkpoint", st)
	}
	for want := uint64(1); want <= 2; want++ {
		if ev := recvEvent(t, ctx, c); ev.Rec.Seq != want {
			t.Fatalf("seq %d, want %d", ev.Rec.Seq, want)
		}
	}
}

func TestClientReconnects(t *testing.T) {
	l := testLog(t)
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	feed := NewFeed(l, FeedOptions{Heartbeat: 10 * time.Millisecond})
	srv := httptest.NewServer(feed)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	c, err := Dial(ctx, ClientOptions{URL: srv.URL, From: 0, Backoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if ev := recvEvent(t, ctx, c); ev.Rec.Seq != 1 {
		t.Fatalf("seq %d, want 1", ev.Rec.Seq)
	}
	// Drop every open stream; the client must dial back in and resume after
	// its applied position without a snapshot.
	srv.CloseClientConnections()
	if err := l.Append(testRecord(2)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if ev := recvEvent(t, ctx, c); ev.Rec.Seq != 2 {
		t.Fatalf("seq %d after reconnect, want 2", ev.Rec.Seq)
	}
	if c.Stats().Connects < 2 {
		t.Fatalf("connects = %d, want ≥ 2", c.Stats().Connects)
	}
}

func recvEvent(t *testing.T, ctx context.Context, c *Client) Event {
	t.Helper()
	select {
	case ev, ok := <-c.Records():
		if !ok {
			t.Fatalf("records channel closed: %v", c.Stats().Err)
		}
		return ev
	case <-ctx.Done():
		t.Fatalf("timed out waiting for record (stats %+v)", c.Stats())
	}
	return Event{}
}

func TestLeaseLifecycle(t *testing.T) {
	dir := t.TempDir()
	a := &Lease{Dir: dir, ID: "a", URL: "http://a", TTL: 200 * time.Millisecond}
	b := &Lease{Dir: dir, ID: "b", URL: "http://b", TTL: 200 * time.Millisecond}

	ok, info, err := a.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("a.TryAcquire = %v, %v", ok, err)
	}
	if info.Term != 1 || info.URL != "http://a" {
		t.Fatalf("lease info = %+v", info)
	}
	// A live lease cannot be taken by another node.
	if ok, blocked, _ := b.TryAcquire(); ok {
		t.Fatal("b stole a live lease")
	} else if blocked.Holder != "a" {
		t.Fatalf("blocking holder = %q", blocked.Holder)
	}
	if err := a.Renew(); err != nil {
		t.Fatalf("a.Renew: %v", err)
	}
	// Holder re-acquire is a renew.
	if ok, _, err := a.TryAcquire(); err != nil || !ok {
		t.Fatalf("holder re-acquire = %v, %v", ok, err)
	}

	// Unrenewed past TTL: b steals with a higher term, and a is deposed.
	time.Sleep(300 * time.Millisecond)
	ok, info, err = b.TryAcquire()
	if err != nil || !ok {
		t.Fatalf("b steal = %v, %v", ok, err)
	}
	if info.Term != 2 || info.Holder != "b" {
		t.Fatalf("stolen lease = %+v", info)
	}
	if err := a.Renew(); !errors.Is(err, ErrDeposed) {
		t.Fatalf("a.Renew after steal = %v, want ErrDeposed", err)
	}

	// Release lets a successor in without waiting out the TTL.
	b.Release()
	if ok, _, err := a.TryAcquire(); err != nil || !ok {
		t.Fatalf("a re-acquire after release = %v, %v", ok, err)
	}
}

func TestLeaseStealContention(t *testing.T) {
	dir := t.TempDir()
	seed := &Lease{Dir: dir, ID: "dead", URL: "http://dead", TTL: 50 * time.Millisecond}
	if ok, _, err := seed.TryAcquire(); err != nil || !ok {
		t.Fatalf("seed acquire = %v, %v", ok, err)
	}
	time.Sleep(100 * time.Millisecond) // let it expire

	const n = 4
	wins := make(chan string, n)
	start := make(chan struct{})
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		id := string(rune('a' + i))
		go func(id string) {
			defer func() { done <- struct{}{} }()
			l := &Lease{Dir: dir, ID: id, URL: "http://" + id, TTL: time.Minute}
			<-start
			if ok, _, err := l.TryAcquire(); err == nil && ok {
				wins <- id
			}
		}(id)
	}
	close(start)
	for i := 0; i < n; i++ {
		<-done
	}
	close(wins)
	var winners []string
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("steal winners = %v, want exactly one", winners)
	}
	final := &Lease{Dir: dir, ID: "x", TTL: time.Minute}
	info, ok, err := final.Read()
	if err != nil || !ok || info.Holder != winners[0] || info.Term != 2 {
		t.Fatalf("final lease = %+v ok=%v err=%v", info, ok, err)
	}
}
