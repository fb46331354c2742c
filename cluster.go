package dfpr

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"dfpr/internal/repl"
	"dfpr/internal/telemetry"
	"dfpr/internal/wal"
)

// This file is the cluster subsystem: it turns the single-node engine into
// a writer-plus-replicas serving group. The writer streams its durable WAL
// through a feed endpoint (internal/repl); replicas run the engine in
// follower mode — no local ingest, public writes bounce with ErrNotWriter —
// replaying streamed rounds as recovery does, with the engine's refresher
// ranking behind them. Which node writes is decided by a lease in the
// shared durability directory; a dead writer's lease expires and a replica
// promotes itself, replaying the WAL tail it had not yet streamed and
// resuming the sequence as if the writer had merely restarted.
//
// Engine.Feed is the streaming handler a durable writer mounts. Everything
// that follows a feed is a *Cluster, built one of two ways:
//
//	StartReplica   a follower with a fixed leader: no lease, no election
//	JoinCluster    full membership: lease election, failover, promotion
//
// Either way a node has one role (Engine.follower), one dial path
// (Cluster.follow), one apply loop (Cluster.apply) and one refresher for
// every role; promotion and demotion flip the role on the same engine.

// feedPath is where the serve layer mounts Engine.Feed, and therefore where
// replicas dial a leader's stream: its base URL plus this path.
const feedPath = "/v1/feed"

// Role is a cluster node's current write authority.
type Role int

const (
	// RoleWriter accepts writes and streams its WAL; a standalone engine is
	// trivially a writer.
	RoleWriter Role = iota
	// RoleReplica follows a writer's feed and serves reads only.
	RoleReplica
)

// String returns "writer" or "replica" — the wire form healthz reports.
func (r Role) String() string {
	if r == RoleReplica {
		return "replica"
	}
	return "writer"
}

// ReplicationStats is the cluster-role block of Engine.Stats, filled once an
// engine runs as a replication writer or replica.
type ReplicationStats struct {
	// Enabled reports the engine participates in replication at all.
	Enabled bool `json:"-"`
	// Role is "writer" or "replica"; NodeID the cluster identity (empty for
	// a StartReplica follower outside a cluster); LeaderURL where writes go.
	Role      string `json:"role,omitempty"`
	NodeID    string `json:"node_id,omitempty"`
	LeaderURL string `json:"leader_url,omitempty"`
	// Term is the election term of the current lease (0 outside a cluster).
	Term uint64 `json:"term,omitempty"`
	// AppliedSeq is this node's applied graph version; WriterSeq the
	// writer's last observed tip. Their difference is LagRecords, and
	// LagSeconds estimates how stale the newest applied record is (0 when
	// caught up): the writer's newest timestamp on the stream minus the
	// applied record's send time, both read off the writer's clock.
	AppliedSeq uint64  `json:"applied_seq,omitempty"`
	WriterSeq  uint64  `json:"writer_seq,omitempty"`
	LagRecords uint64  `json:"replication_lag_seq,omitempty"`
	LagSeconds float64 `json:"replication_lag_seconds,omitempty"`
	// FeedConnections and FeedRecords describe a writer's streaming load:
	// replicas connected now, records ever streamed.
	FeedConnections int64 `json:"feed_connections,omitempty"`
	FeedRecords     int64 `json:"feed_records,omitempty"`
	// Failovers counts promotions this node performed.
	Failovers uint64 `json:"failovers,omitempty"`
	// Err is a replica's terminal replication error, if its stream died for
	// good (repl.ErrBehindFloor, protocol damage).
	Err error `json:"-"`
}

// Feed returns the replication feed handler of a durable engine — the
// long-lived GET stream replicas tail (checkpoint bootstrap plus CRC-framed
// record follow; see internal/repl). It returns nil while the engine has no
// WAL to stream (volatile engines, and followers until promotion), so the
// serve layer re-checks per request: a promoted replica starts feeding the
// moment it holds the log.
func (e *Engine) Feed() http.Handler {
	d := e.durable()
	if d == nil {
		return nil
	}
	if f := e.feed.Load(); f != nil {
		return f
	}
	f := repl.NewFeed(d.log, repl.FeedOptions{Keyed: e.keys != nil})
	if e.feed.CompareAndSwap(nil, f) {
		e.met.reg.GaugeFunc("dfpr_repl_feed_connections",
			"Replication feed streams currently open.",
			func() float64 { return float64(f.Conns()) })
		e.met.reg.CounterFunc("dfpr_repl_feed_records_total",
			"WAL records streamed to replicas across all feed connections.",
			func() float64 { return float64(f.Records()) })
	}
	return e.feed.Load()
}

// initReplicationTelemetry registers the replication series: the failovers
// counter and the gauges that read replication. It runs once per engine,
// from Cluster.attach, before the engine learns its cluster — so before
// anything can read e.met.failovers.
func (e *Engine) initReplicationTelemetry() {
	reg := e.met.reg
	e.met.failovers = reg.Counter("dfpr_repl_failovers_total",
		"Writer promotions this node performed.")
	reg.GaugeFunc("dfpr_repl_is_writer",
		"1 while this node is the replication writer, else 0.",
		func() float64 {
			if e.replication().Role == RoleWriter.String() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dfpr_repl_lag_records",
		"Records the writer has logged that this node has not applied yet.",
		func() float64 { return float64(e.replication().LagRecords) })
	reg.GaugeFunc("dfpr_repl_lag_seconds",
		"Estimated staleness of this node's applied state behind the writer.",
		func() float64 { return e.replication().LagSeconds })
}

// role is the node's write authority, read off the one place it is stored:
// a follower engine is a replica, any other engine the writer.
func (e *Engine) role() Role {
	if e.follower.Load() {
		return RoleReplica
	}
	return RoleWriter
}

// replication is the engine's one replication provider: Stats and the
// dfpr_repl_* gauges both read it. A node run by a Cluster reports its
// membership and, while it is a replica, the stream it follows; a
// standalone engine reports nothing.
func (e *Engine) replication() ReplicationStats {
	c := e.cluster.Load()
	if c == nil {
		return ReplicationStats{}
	}
	role, applied := e.role(), e.Version()
	rs := ReplicationStats{
		Enabled: true, Role: role.String(), NodeID: c.cfg.NodeID,
		AppliedSeq: applied, WriterSeq: applied, Failovers: e.met.failovers.Value(),
	}
	c.mu.Lock()
	rs.Term, rs.LeaderURL = c.term, c.leaderURL
	cl, lastSent, err := c.cl, c.lastSent, c.err
	c.mu.Unlock()
	if role == RoleWriter {
		// The writer: its own version is the tip; what is left is feed load.
		if f := e.feed.Load(); f != nil {
			rs.FeedConnections, rs.FeedRecords = f.Conns(), f.Records()
		}
		return rs
	}
	if cl != nil {
		cs := cl.Stats()
		rs.WriterSeq = max(cs.TipSeq, applied)
		rs.LagRecords = rs.WriterSeq - applied
		if rs.LagRecords > 0 && !lastSent.IsZero() {
			rs.LagSeconds = cs.TipAt.Sub(lastSent).Seconds()
		}
		if err == nil {
			err = cs.Err
		}
	}
	rs.Err = err
	return rs
}

// promote readies a follower to write over the shared durability directory:
// it opens the WAL, replays the tail records the stream had not delivered
// yet, and takes the log over. Once the caller clears the follower flag
// (Cluster.installWriter), the next accepted write appends at tip+1,
// resuming the dead writer's sequence exactly.
func (e *Engine) promote(dir string) error {
	if e.durable() != nil {
		return fmt.Errorf("dfpr: engine already holds a log (promoted, or a deposed writer; restart to rejoin)")
	}
	log, rec, err := openLog(e.opts, dir)
	if err != nil {
		return fmt.Errorf("dfpr: promote: open log: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			log.Close()
		}
	}()
	if !rec.HasState {
		return fmt.Errorf("dfpr: promote: %s holds no recoverable state", dir)
	}
	ck := rec.Checkpoint
	tip := ck.Seq + uint64(len(rec.Tail))
	applied := e.store.Current().Seq
	if applied > tip {
		return fmt.Errorf("dfpr: promote: replica at version %d is ahead of the log tip %d (split brain?)", applied, tip)
	}
	if applied < ck.Seq {
		return fmt.Errorf("dfpr: promote: replica at version %d predates the log's checkpoint %d; the tail cannot catch it up", applied, ck.Seq)
	}
	replayed, err := e.replay(rec.Tail)
	if err != nil {
		return fmt.Errorf("dfpr: promote: replay tail: %w", err)
	}
	// The log is installed before the role flips, so the first
	// post-promotion apply logs its record at tip+1.
	e.installLog(log, ck.Seq, replayed)
	ok = true
	return nil
}

// ClusterConfig configures JoinCluster.
type ClusterConfig struct {
	// NodeID is this node's unique cluster identity (the lease holder name).
	NodeID string
	// Dir is the shared durability directory: the writer's WAL, the
	// election lease, and the state a promoted replica resumes from.
	Dir string
	// SelfURL is this node's advertised serve base URL — where replicas
	// find its feed while it is the writer.
	SelfURL string
	// Peers lists every cluster node's base URL (with or without SelfURL;
	// membership is static — restart with a longer list to grow). Nothing
	// dials it: its only use is this node's place in the election stagger
	// (electionRank), and safety rests on the lease alone.
	Peers []string
	// LeaseTTL is the writer lease time-to-live (repl.DefaultLeaseTTL when
	// zero): the failover detection horizon.
	LeaseTTL time.Duration
	// Engine are the engine options every role shares. They must not
	// include WithDurability — the cluster wires Dir itself, on the writer
	// only.
	Engine []Option
	// SeedN and SeedEdges build the initial graph when this node becomes
	// the first-ever writer of a fresh Dir; recovered or streamed state
	// supersedes them everywhere else.
	SeedN     int
	SeedEdges []Edge
	// Logger receives role transitions and replication noise (nil: silent).
	Logger *slog.Logger
}

// Cluster is one node's place in a writer-plus-replicas group: the engine
// serving this node's reads, the stream it follows while a replica, and —
// when built by JoinCluster — the election loop deciding who writes. The
// node's role lives on the engine (Role); the engine stays the same across
// promotion and demotion.
type Cluster struct {
	cfg   ClusterConfig
	st    settings // resolved cfg.Engine: what a bootstrap builds the engine from
	lg    *slog.Logger
	lease *repl.Lease // nil for a StartReplica follower: fixed leader, no election

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the election loop exits; nil without one

	// eng is set once, before the Cluster is returned (or its loop starts).
	eng *Engine

	mu        sync.Mutex
	term      uint64
	leaderURL string        // the observed leader; while a stream runs, its source
	cl        *repl.Client  // the follow stream, nil when none runs
	applied   chan struct{} // closed when the stream's apply loop exits
	lastSent  time.Time     // writer-clock send time of the newest applied event
	err       error         // the stream's terminal error
}

// newCluster resolves the engine options every role shares. They must not
// include WithDurability: a follower streams its leader's log rather than
// owning one, and JoinCluster wires the shared directory itself, on the
// writer only.
func newCluster(ctx context.Context, cfg ClusterConfig) (*Cluster, error) {
	st := defaultSettings()
	for _, opt := range cfg.Engine {
		if err := opt(&st); err != nil {
			return nil, err
		}
	}
	if st.durDir != "" {
		return nil, fmt.Errorf("dfpr: WithDurability is the writer's option; followers stream the writer's log (JoinCluster owns the shared directory)")
	}
	c := &Cluster{cfg: cfg, st: st, lg: cfg.Logger}
	if c.lg == nil {
		c.lg = slog.New(slog.DiscardHandler)
	}
	c.ctx, c.cancel = context.WithCancel(ctx)
	return c, nil
}

// StartReplica dials leaderURL's feed (its serve base URL; the feed lives
// at /v1/feed), builds a follower engine from the bootstrap checkpoint, and
// streams rounds into it until ctx ends or Close is called. The returned
// Cluster has a fixed leader: it holds no lease and never runs for writer
// (JoinCluster handles failover). The engine options must not include
// WithDurability. The follower rejects public writes with ErrNotWriter;
// reads, views, subscriptions and waits behave exactly as on the writer. A
// stream that dies for good reports why in Stats().ReplicationStats.Err.
func StartReplica(ctx context.Context, leaderURL string, opts ...Option) (*Cluster, error) {
	c, err := newCluster(ctx, ClusterConfig{Engine: opts})
	if err != nil {
		return nil, err
	}
	if err := c.follow(leaderURL); err != nil {
		c.cancel()
		return nil, err
	}
	return c, nil
}

// JoinCluster starts this node's cluster membership: it races for the
// writer lease in cfg.Dir — the winner builds (or warm-restarts) the
// durable writer engine, everyone else streams the leader's feed as a
// replica. A background loop then renews or watches the lease: when the
// writer dies, the first replica to steal the expired lease promotes
// itself, replays the WAL tail it had not streamed, and resumes the
// sequence. ctx bounds only the join (the initial election and bootstrap);
// the membership runs until Close. The engine is reachable through
// Engine(); Close releases the lease (when held) and closes it.
func JoinCluster(ctx context.Context, cfg ClusterConfig) (*Cluster, error) {
	if cfg.NodeID == "" || cfg.Dir == "" || cfg.SelfURL == "" {
		return nil, fmt.Errorf("dfpr: cluster config needs NodeID, Dir and SelfURL")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = repl.DefaultLeaseTTL
	}
	// ctx bounds only the join; the membership loop and replication run
	// until Close/Halt and must survive the caller's startup context ending.
	//lint:allow ctxflow ctx bounds the join only; membership runs until Close and owns its own lifetime
	c, err := newCluster(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	c.lease = &repl.Lease{Dir: cfg.Dir, ID: cfg.NodeID, URL: cfg.SelfURL, TTL: cfg.LeaseTTL}

	won, info, err := c.lease.TryAcquire()
	if err != nil {
		c.cancel()
		return nil, err
	}
	if won {
		eng, err := New(cfg.SeedN, cfg.SeedEdges,
			append(append(make([]Option, 0, len(cfg.Engine)+1), cfg.Engine...), WithDurability(cfg.Dir))...)
		if err != nil {
			c.lease.Release()
			c.cancel()
			return nil, err
		}
		c.attach(eng)
		c.installWriter(info.Term)
		c.lg.Info("cluster joined as writer", "node", cfg.NodeID, "term", info.Term)
	} else {
		// The dial runs on c.ctx (a replica that joins keeps streaming on
		// it), so a leader that accepts and never answers is interrupted
		// only by ending c.ctx: tie it to the join's ctx while the join lasts.
		stop := context.AfterFunc(ctx, c.cancel)
		info, err = c.dialReplica(ctx, info)
		if !stop() && err == nil {
			c.Close() // ctx ended as the dial succeeded and took c.ctx along
			err = fmt.Errorf("dfpr: join as replica: %w", ctx.Err())
		}
		if err != nil {
			c.cancel()
			return nil, err
		}
		c.mu.Lock()
		c.term = info.Term
		c.mu.Unlock()
		c.lg.Info("cluster joined as replica", "node", cfg.NodeID, "leader", info.URL, "term", info.Term)
	}
	c.done = make(chan struct{})
	go c.run()
	return c, nil
}

// attach makes eng this node's engine: the one place the replication
// series are registered, the engine learns its cluster and its refresher
// starts, to rank whatever the node publishes in any role.
func (c *Cluster) attach(eng *Engine) {
	eng.initReplicationTelemetry()
	c.eng = eng
	eng.cluster.Store(c)
	eng.startPipeline()
}

// installWriter makes this node the writer of term: the feed comes up
// before replicas dial, and the role flips last — on a promotion, only once
// the engine holds the log and has ranked its tip.
func (c *Cluster) installWriter(term uint64) {
	c.mu.Lock()
	c.term, c.leaderURL = term, c.cfg.SelfURL
	c.mu.Unlock()
	_ = c.eng.Feed()
	c.eng.follower.Store(false)
}

// follow is the one dial path: it dials leaderURL's feed from the engine's
// applied version and starts the apply loop over the stream. A cluster with
// no engine yet bootstraps one, as a follower, from the feed's checkpoint;
// an engine already running only tails, and a leader that pruned past its
// version is terminal — a follower cannot graft a snapshot mid-life.
func (c *Cluster) follow(leaderURL string) error {
	opts := repl.ClientOptions{URL: leaderURL + feedPath, Bootstrap: c.eng == nil, Logger: c.lg}
	if c.eng != nil {
		opts.From = c.eng.Version()
	}
	cl, err := repl.Dial(c.ctx, opts)
	if err != nil {
		return fmt.Errorf("dfpr: dial feed: %w", err)
	}
	switch boot := cl.Bootstrap(); {
	case c.eng == nil:
		err = c.bootstrap(boot, cl.Keyed())
	case boot != nil:
		err = fmt.Errorf("dfpr: leader pruned past this replica's version %d: %w",
			c.eng.Version(), repl.ErrBehindFloor)
	}
	if err != nil {
		cl.Close()
		return err
	}
	done := make(chan struct{})
	c.mu.Lock()
	c.cl, c.applied, c.leaderURL, c.err = cl, done, leaderURL, nil
	c.mu.Unlock()
	go c.apply(cl, done)
	return nil
}

// bootstrap builds this node's engine from a feed's checkpoint: an engine
// restored there that takes its writes from the stream, so public writes
// bounce with ErrNotWriter.
func (c *Cluster) bootstrap(boot *wal.State, keyed bool) error {
	if boot == nil {
		return fmt.Errorf("dfpr: feed sent no bootstrap checkpoint")
	}
	st := c.st
	st.keyed, st.tel = keyed, telemetry.NewRegistry()
	eng, err := restore(st, boot)
	if err != nil {
		return fmt.Errorf("dfpr: feed bootstrap: %w", err)
	}
	eng.follower.Store(true)
	c.attach(eng)
	return nil
}

// apply is the one apply loop: drain every delivered event, replay them as
// one span, repeat. It never ranks: replay hands each span to the refresher
// (handOff). It exits when the client's channel closes (terminal error,
// stopStream, or shutdown) or a replay fails, and closes the client on
// every exit, so a stopped stream holds no feed connection and the next
// follow dials a fresh one.
func (c *Cluster) apply(cl *repl.Client, done chan struct{}) {
	defer close(done)
	defer func() {
		cl.Close()
		c.mu.Lock()
		if c.cl == cl {
			c.cl = nil
		}
		c.mu.Unlock()
	}()
	var recs []wal.Record
	for {
		var sent time.Time // writer-clock send time of the span's newest record
		select {
		case <-c.ctx.Done():
			return
		case ev, ok := <-cl.Records():
			if !ok {
				if err := cl.Stats().Err; err != nil {
					c.fail(err)
				}
				return
			}
			recs, sent = append(recs[:0], ev.Rec), ev.SentAt
		}
	drain:
		for {
			select {
			case ev, ok := <-cl.Records():
				if !ok {
					break drain // apply what we have; exit on the next recv
				}
				recs, sent = append(recs, ev.Rec), ev.SentAt
			default:
				break drain
			}
		}
		if _, err := c.eng.replay(recs); err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		c.lastSent = sent
		c.mu.Unlock()
	}
}

// stopStream ends the follow stream, keeping the engine, and waits for its
// apply loop. It is idempotent; follow starts the next stream.
func (c *Cluster) stopStream() {
	c.mu.Lock()
	cl, done := c.cl, c.applied
	c.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
	if done != nil {
		<-done
	}
}

func (c *Cluster) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.lg.Error("replication stopped", "err", err)
}

// dialReplica follows the current leader, retrying until its feed answers
// (the leader may still be starting its listener) or joinCtx ends. It
// re-reads the lease between attempts — the leader can change mid-join.
func (c *Cluster) dialReplica(joinCtx context.Context, info repl.LeaseInfo) (repl.LeaseInfo, error) {
	for {
		if info.URL != "" {
			err := c.follow(info.URL)
			if err == nil {
				return info, nil
			}
			c.lg.Warn("replica bootstrap failed; retrying", "leader", info.URL, "err", err)
		}
		select {
		case <-joinCtx.Done():
			return info, fmt.Errorf("dfpr: join as replica: %w", joinCtx.Err())
		case <-time.After(200 * time.Millisecond):
		}
		if cur, ok, err := c.lease.Read(); err == nil && ok {
			info = cur
		}
	}
}

// run is the election loop: the writer renews its lease, replicas watch
// for leader changes and expiry, and an expired lease triggers staggered
// candidacy and promotion.
func (c *Cluster) run() {
	defer close(c.done)
	tick := time.NewTicker(c.lease.RenewEvery())
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick.C:
		}
		if c.Role() == RoleWriter {
			if err := c.lease.Renew(); err != nil {
				if errors.Is(err, repl.ErrDeposed) {
					c.demote()
				} else {
					c.lg.Warn("lease renew failed", "err", err)
				}
			}
			continue
		}
		info, ok, err := c.lease.Read()
		if err != nil {
			c.lg.Warn("lease read failed", "err", err)
			continue
		}
		if ok && !info.Expired(time.Now()) {
			c.followLeader(info)
			continue
		}
		c.runForWriter()
	}
}

// followLeader keeps a replica pointed at the live leader: it re-dials when
// the leader moved (this node lost an election it never entered) or the
// stream stopped.
func (c *Cluster) followLeader(info repl.LeaseInfo) {
	c.mu.Lock()
	streaming := c.cl != nil && c.leaderURL == info.URL
	c.term, c.leaderURL = info.Term, info.URL
	c.mu.Unlock()
	if streaming || info.URL == "" || info.URL == c.cfg.SelfURL {
		return
	}
	c.stopStream()
	if err := c.follow(info.URL); err != nil {
		c.lg.Warn("re-pointing replica at new leader failed", "leader", info.URL, "err", err)
	}
}

// electionRank is self's position among the distinct URLs of the static
// membership (peers with self added when the list omits it), sorted: every
// node computes the same order from the same -cluster-peers list, so
// candidates on an expired lease wait rank·TTL/8 and do not stampede the
// lock. It only spaces attempts out; the lease decides who wins.
func electionRank(self string, peers []string) int {
	seen := make(map[string]bool, len(peers))
	rank := 0
	for _, u := range peers {
		if u < self && !seen[u] {
			rank++
		}
		seen[u] = true
	}
	return rank
}

// runForWriter is a replica's candidacy on an expired lease: wait out this
// node's stagger, re-check, steal, promote.
func (c *Cluster) runForWriter() {
	if c.eng.durable() != nil {
		// A deposed ex-writer still holds a (fenced) log; it cannot take a
		// second one. It stays a replica until restarted.
		return
	}
	if delay := time.Duration(electionRank(c.cfg.SelfURL, c.cfg.Peers)) * (c.cfg.LeaseTTL / 8); delay > 0 {
		select {
		case <-c.ctx.Done():
			return
		case <-time.After(delay):
		}
		if info, ok, _ := c.lease.Read(); ok && !info.Expired(time.Now()) {
			return // someone faster won during the stagger
		}
	}
	won, info, err := c.lease.TryAcquire()
	if err != nil || !won {
		return
	}
	if err := c.promoteSelf(info); err != nil {
		c.lg.Error("promotion failed", "err", err)
		c.lease.Release()
	}
}

// promoteSelf completes a won election: stop streaming (the dead leader's
// feed), promote the follower over the shared directory, and take over as
// writer.
func (c *Cluster) promoteSelf(info repl.LeaseInfo) error {
	c.stopStream()
	if err := c.eng.promote(c.cfg.Dir); err != nil {
		return err
	}
	// Catch ranks up to the replayed tip so the node leaves recovery and
	// accepts writes immediately.
	if err := c.eng.Flush(c.ctx); err != nil && c.ctx.Err() == nil {
		c.lg.Warn("post-promotion flush failed", "err", err)
	}
	c.eng.met.failovers.Inc()
	c.installWriter(info.Term)
	c.lg.Info("promoted to writer", "node", c.cfg.NodeID, "term", info.Term, "seq", c.eng.Version())
	return nil
}

// demote handles a deposed writer (its lease was stolen while it was merely
// slow, not dead): fence the log so it can never write segments the new
// term owns, flip to follower, and follow the new leader. A deposed node
// cannot be promoted again without a restart.
func (c *Cluster) demote() {
	if d := c.eng.durable(); d != nil {
		d.log.Fence(repl.ErrDeposed)
	}
	c.eng.follower.Store(true)
	info, ok, _ := c.lease.Read()
	c.lg.Warn("deposed as writer; rejoining as replica", "node", c.cfg.NodeID, "leader", info.URL)
	if ok {
		c.followLeader(info)
	}
}

// Engine returns the engine serving this node (the same engine across a
// promotion or demotion).
func (c *Cluster) Engine() *Engine { return c.eng }

// Role returns this node's current role.
func (c *Cluster) Role() Role { return c.eng.role() }

// LeaderURL returns the current leader's base URL (this node's own
// SelfURL while it is the writer).
func (c *Cluster) LeaderURL() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaderURL
}

// Term returns the election term this node last observed (0 for a
// StartReplica follower).
func (c *Cluster) Term() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term
}

// stop ends the election loop and the follow stream and reports whether
// this node was the writer: the shared first half of Halt and Close.
func (c *Cluster) stop() (writer bool) {
	c.cancel()
	if c.done != nil {
		<-c.done
	}
	c.stopStream()
	return c.Role() == RoleWriter
}

// Halt freezes this node as if it crashed: the election loop and
// replication stop, the lease is NOT released, and a writer's log
// is fenced so the halted node can never write again. Nothing is flushed.
// It exists for failover drills — the in-process stand-in for kill -9 —
// and leaves the engine to be abandoned (or Closed) by the caller.
func (c *Cluster) Halt() {
	if c.stop() {
		if d := c.eng.durable(); d != nil {
			d.log.Fence(fmt.Errorf("dfpr: node halted"))
		}
	}
}

// Close leaves gracefully: the election loop and the stream stop, a held
// lease is released so a successor need not wait out the TTL, and the
// engine is closed. Idempotent with Halt (Close after Halt just closes the
// engine).
func (c *Cluster) Close() error {
	if c.stop() {
		c.lease.Release()
	}
	return c.eng.Close()
}
