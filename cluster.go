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
// applying streamed rounds through the same span-coalesced incremental rank
// path recovery replay uses. Which node writes is decided by a lease in the
// shared durability directory; a dead writer's lease expires and a replica
// promotes itself, replaying the WAL tail it had not yet streamed and
// resuming the sequence as if the writer had merely restarted.
//
// Three entry points, smallest to largest:
//
//	Engine.Feed    the streaming handler a durable writer mounts
//	StartReplica   one follower tailing a known leader (no election)
//	JoinCluster    full membership: lease election, failover, promotion

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
// before the engine follows a feed or joins a cluster as its writer — so
// before anything can read e.met.failovers.
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

// replication is the engine's one replication provider: Stats and the
// dfpr_repl_* gauges both read it. A cluster node reports its membership
// and, while it is a replica, the stream it follows; a StartReplica
// follower reports its stream; a standalone engine reports nothing.
func (e *Engine) replication() ReplicationStats {
	c, rep := e.cluster.Load(), e.replica.Load()
	if c == nil && rep == nil {
		return ReplicationStats{}
	}
	applied := e.Version()
	rs := ReplicationStats{
		Enabled: true, Role: RoleReplica.String(),
		AppliedSeq: applied, WriterSeq: applied, Failovers: e.met.failovers.Value(),
	}
	if c != nil {
		c.mu.Lock()
		role, term, leader := c.role, c.term, c.leaderURL
		rep = c.rep
		c.mu.Unlock()
		rs.Role, rs.NodeID, rs.Term, rs.LeaderURL = role.String(), c.cfg.NodeID, term, leader
	}
	if rep == nil {
		// The writer: its own version is the tip; what is left is feed load.
		if f := e.feed.Load(); f != nil {
			rs.FeedConnections, rs.FeedRecords = f.Conns(), f.Records()
		}
		return rs
	}
	rep.mu.Lock()
	cl, leader, lastSent, err := rep.cl, rep.leaderURL, rep.lastSent, rep.err
	rep.mu.Unlock()
	if c == nil {
		rs.LeaderURL = leader
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

// promote turns a follower into the writer over the shared durability
// directory: it opens the WAL, replays the tail records the stream had not
// delivered yet, takes the log over, and clears the follower flag — the next
// accepted write appends at tip+1, resuming the dead writer's sequence
// exactly.
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
	// Order matters: the log is installed before writes are accepted, so the
	// first post-promotion apply logs its record at tip+1.
	e.installLog(log, ck.Seq, replayed)
	e.follower.Store(false)
	ok = true
	return nil
}

// Replica is a follower engine plus the stream keeping it current: built
// from a leader's feed bootstrap, it applies streamed rounds and refreshes
// ranks after each, serving reads with the same API as any engine.
type Replica struct {
	eng    *Engine
	lg     *slog.Logger
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	cl        *repl.Client
	done      chan struct{}
	leaderURL string
	lastSent  time.Time // writer-clock send time of the newest applied event
	err       error     // terminal replication error
}

// StartReplica dials leaderURL's feed (its serve base URL; the feed lives
// at /v1/feed), builds a follower engine from the bootstrap checkpoint, and
// streams rounds into it until ctx ends or Close is called. The engine
// options must not include WithDurability — a replica follows the writer's
// log rather than owning one (JoinCluster handles the promotion case). The
// follower rejects public writes with ErrNotWriter; reads, views,
// subscriptions and waits behave exactly as on the writer.
func StartReplica(ctx context.Context, leaderURL string, opts ...Option) (*Replica, error) {
	st := defaultSettings()
	for _, opt := range opts {
		if err := opt(&st); err != nil {
			return nil, err
		}
	}
	if st.durDir != "" {
		return nil, fmt.Errorf("dfpr: WithDurability is the writer's option; replicas stream the writer's log (use JoinCluster for failover)")
	}
	st.tel = telemetry.NewRegistry()
	r, err := startReplica(ctx, leaderURL, st, nil)
	if err != nil {
		return nil, err
	}
	r.eng.replica.Store(r)
	return r, nil
}

// startReplica is StartReplica over resolved settings — shared with the
// cluster path, which passes its own logger.
func startReplica(ctx context.Context, leaderURL string, st settings, lg *slog.Logger) (*Replica, error) {
	if st.tel == nil {
		st.tel = telemetry.NewRegistry()
	}
	rctx, cancel := context.WithCancel(ctx)
	cl, err := repl.Dial(rctx, repl.ClientOptions{
		URL: leaderURL + feedPath, From: 0, Bootstrap: true, Logger: lg,
	})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("dfpr: dial feed: %w", err)
	}
	boot := cl.Bootstrap()
	if boot == nil {
		cl.Close()
		cancel()
		return nil, fmt.Errorf("dfpr: feed sent no bootstrap checkpoint")
	}
	// A follower is an engine restored at the bootstrap checkpoint that
	// takes its writes from the stream: public writes bounce ErrNotWriter.
	st.keyed = cl.Keyed()
	eng, err := restore(st, boot)
	if err != nil {
		cl.Close()
		cancel()
		return nil, fmt.Errorf("dfpr: feed bootstrap: %w", err)
	}
	eng.follower.Store(true)
	eng.initReplicationTelemetry()
	r := &Replica{
		eng: eng, lg: lg, ctx: rctx, cancel: cancel,
		cl: cl, done: make(chan struct{}), leaderURL: leaderURL,
	}
	go r.run(cl, r.done)
	return r, nil
}

// Engine returns the follower engine — the read surface of this replica.
func (r *Replica) Engine() *Engine { return r.eng }

// Role returns RoleReplica; with LeaderURL it satisfies the serve layer's
// cluster info interface.
func (r *Replica) Role() Role { return RoleReplica }

// LeaderURL returns the base URL of the leader this replica follows.
func (r *Replica) LeaderURL() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderURL
}

// Err returns the terminal replication error, nil while the stream is
// healthy (transient disconnects are retried internally).
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close stops the stream and closes the engine.
func (r *Replica) Close() error {
	r.cancel()
	r.stopStream()
	return r.eng.Close()
}

// run is the apply loop of one stream: drain every delivered event, replay
// them as one span, refresh ranks, repeat. It exits when the
// client's channel closes (terminal error, redial, or shutdown).
func (r *Replica) run(cl *repl.Client, done chan struct{}) {
	defer close(done)
	defer func() {
		r.mu.Lock()
		if r.cl == cl {
			r.cl = nil
		}
		r.mu.Unlock()
	}()
	// Converge once up front: a bootstrap whose checkpoint carried no ranks
	// (a young writer) would otherwise serve nothing until the first write.
	if _, err := r.eng.Rank(r.ctx); err != nil && r.ctx.Err() == nil {
		r.fail(fmt.Errorf("dfpr: replica initial rank: %w", err))
		return
	}
	var evs []repl.Event
	for {
		evs = evs[:0]
		select {
		case <-r.ctx.Done():
			return
		case ev, ok := <-cl.Records():
			if !ok {
				if err := cl.Stats().Err; err != nil {
					r.fail(err)
				}
				return
			}
			evs = append(evs, ev)
		}
	drain:
		for {
			select {
			case ev, ok := <-cl.Records():
				if !ok {
					break drain // apply what we have; exit on the next recv
				}
				evs = append(evs, ev)
			default:
				break drain
			}
		}
		recs := make([]wal.Record, len(evs))
		for i, ev := range evs {
			recs[i] = ev.Rec
		}
		if _, err := r.eng.replay(recs); err != nil {
			r.fail(err)
			return
		}
		r.mu.Lock()
		r.lastSent = evs[len(evs)-1].SentAt
		r.mu.Unlock()
		if _, err := r.eng.Rank(r.ctx); err != nil {
			if r.ctx.Err() != nil || errors.Is(err, ErrClosed) {
				return
			}
			r.fail(fmt.Errorf("dfpr: replica rank: %w", err))
			return
		}
	}
}

// stopStream ends the stream (keeping the engine) and waits for the apply
// loop; resume starts a new one. Both are idempotent.
func (r *Replica) stopStream() {
	r.mu.Lock()
	cl, done := r.cl, r.done
	r.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
	if done != nil {
		<-done
	}
}

// resume dials a (possibly new) leader from the replica's applied position
// and restarts the apply loop. The new leader must not have pruned past
// this replica's version — a follower cannot graft a snapshot mid-life.
func (r *Replica) resume(leaderURL string) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	r.mu.Lock()
	streaming := r.cl != nil
	r.mu.Unlock()
	if streaming {
		return nil
	}
	cl, err := repl.Dial(r.ctx, repl.ClientOptions{
		URL: leaderURL + feedPath, From: r.eng.Version(), Logger: r.lg,
	})
	if err != nil {
		return err
	}
	if cl.Bootstrap() != nil {
		cl.Close()
		return fmt.Errorf("dfpr: leader pruned past this replica's version %d: %w",
			r.eng.Version(), repl.ErrBehindFloor)
	}
	done := make(chan struct{})
	r.mu.Lock()
	r.cl, r.done, r.leaderURL, r.err = cl, done, leaderURL, nil
	r.mu.Unlock()
	go r.run(cl, done)
	return nil
}

// streamingTo returns the leader URL of the live stream, "" when none.
func (r *Replica) streamingTo() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cl == nil {
		return ""
	}
	return r.leaderURL
}

func (r *Replica) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	if r.lg != nil {
		r.lg.Error("replication stopped", "err", err)
	}
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

// Cluster is one node's membership in a writer-plus-replicas group: it owns
// the election loop, the role, and the engine serving this node's reads.
type Cluster struct {
	cfg   ClusterConfig
	lg    *slog.Logger
	lease *repl.Lease

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	eng       *Engine
	rep       *Replica // non-nil while this node is a replica
	role      Role
	term      uint64
	leaderURL string
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
	lg := cfg.Logger
	if lg == nil {
		lg = slog.New(slog.DiscardHandler)
	}
	// Resolve the shared options once, for validation: replicas must not
	// carry a durability dir of their own.
	st := defaultSettings()
	for _, opt := range cfg.Engine {
		if err := opt(&st); err != nil {
			return nil, err
		}
	}
	if st.durDir != "" {
		return nil, fmt.Errorf("dfpr: ClusterConfig.Engine must not set WithDurability; the cluster owns Dir")
	}
	c := &Cluster{
		cfg:   cfg,
		lg:    lg,
		lease: &repl.Lease{Dir: cfg.Dir, ID: cfg.NodeID, URL: cfg.SelfURL, TTL: cfg.LeaseTTL},
		done:  make(chan struct{}),
	}
	// ctx bounds only the join; the membership loop and replication run
	// until Close/Halt and must survive the caller's startup context ending.
	//lint:allow ctxflow ctx bounds the join only; membership runs until Close and owns its own lifetime
	c.ctx, c.cancel = context.WithCancel(context.Background())

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
		eng.initReplicationTelemetry()
		c.installWriter(eng, info.Term)
		lg.Info("cluster joined as writer", "node", cfg.NodeID, "term", info.Term)
	} else {
		// The dial runs on c.ctx (a replica that joins keeps streaming on
		// it), so a leader that accepts and never answers is interrupted
		// only by ending c.ctx: tie it to the join's ctx while the join lasts.
		stop := context.AfterFunc(ctx, c.cancel)
		rep, rinfo, err := c.dialReplica(ctx, info, st)
		if !stop() && err == nil {
			rep.Close() // ctx ended as the dial succeeded and took c.ctx along
			err = fmt.Errorf("dfpr: join as replica: %w", ctx.Err())
		}
		if err != nil {
			c.cancel()
			return nil, err
		}
		c.mu.Lock()
		c.eng, c.rep, c.role = rep.Engine(), rep, RoleReplica
		c.term, c.leaderURL = rinfo.Term, rinfo.URL
		c.mu.Unlock()
		rep.Engine().cluster.Store(c)
		lg.Info("cluster joined as replica", "node", cfg.NodeID, "leader", rinfo.URL, "term", rinfo.Term)
	}
	go c.run()
	return c, nil
}

// installWriter records this node as the writer and brings its feed up.
// Caller must not hold c.mu.
func (c *Cluster) installWriter(eng *Engine, term uint64) {
	c.mu.Lock()
	c.eng, c.rep, c.role = eng, nil, RoleWriter
	c.term, c.leaderURL = term, c.cfg.SelfURL
	c.mu.Unlock()
	eng.cluster.Store(c)
	_ = eng.Feed() // build the feed (and its gauges) before replicas dial
}

// dialReplica follows the current leader, retrying until its feed answers
// (the leader may still be starting its listener) or joinCtx ends. It
// re-reads the lease between attempts — the leader can change mid-join.
func (c *Cluster) dialReplica(joinCtx context.Context, info repl.LeaseInfo, st settings) (*Replica, repl.LeaseInfo, error) {
	for {
		if info.URL != "" {
			rep, err := startReplica(c.ctx, info.URL, st, c.lg)
			if err == nil {
				return rep, info, nil
			}
			c.lg.Warn("replica bootstrap failed; retrying", "leader", info.URL, "err", err)
		}
		select {
		case <-joinCtx.Done():
			return nil, info, fmt.Errorf("dfpr: join as replica: %w", joinCtx.Err())
		case <-time.After(200 * time.Millisecond):
		}
		if cur, ok, err := c.lease.Read(); err == nil && ok {
			info = cur
		}
	}
}

// run is the membership loop: the writer renews its lease, replicas watch
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
		c.mu.Lock()
		role, rep := c.role, c.rep
		c.mu.Unlock()
		if role == RoleWriter {
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
			c.followLeader(rep, info)
			continue
		}
		c.runForWriter(rep)
	}
}

// followLeader keeps a replica pointed at the live leader: it re-dials when
// the leader moved (this node lost an election it never entered) or the
// stream died terminally.
func (c *Cluster) followLeader(rep *Replica, info repl.LeaseInfo) {
	c.mu.Lock()
	c.term, c.leaderURL = info.Term, info.URL
	c.mu.Unlock()
	if rep == nil || info.URL == "" || info.URL == c.cfg.SelfURL {
		return
	}
	if rep.streamingTo() == info.URL {
		return
	}
	rep.stopStream()
	if err := rep.resume(info.URL); err != nil {
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
func (c *Cluster) runForWriter(rep *Replica) {
	if rep == nil || rep.Engine().durable() != nil {
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
	if err := c.promoteSelf(rep, info); err != nil {
		c.lg.Error("promotion failed", "err", err)
		c.lease.Release()
	}
}

// promoteSelf completes a won election: stop streaming (the dead leader's
// feed), promote the follower over the shared directory, and take over as
// writer.
func (c *Cluster) promoteSelf(rep *Replica, info repl.LeaseInfo) error {
	rep.stopStream()
	eng := rep.Engine()
	if err := eng.promote(c.cfg.Dir); err != nil {
		return err
	}
	// Catch ranks up to the replayed tip so the node leaves recovery and
	// accepts writes immediately.
	if _, err := eng.Rank(c.ctx); err != nil && c.ctx.Err() == nil {
		c.lg.Warn("post-promotion rank failed", "err", err)
	}
	eng.met.failovers.Inc()
	c.installWriter(eng, info.Term)
	c.lg.Info("promoted to writer", "node", c.cfg.NodeID, "term", info.Term, "seq", eng.Version())
	return nil
}

// demote handles a deposed writer (its lease was stolen while it was merely
// slow, not dead): fence the log so it can never write segments the new
// term owns, flip to follower, and try to stream from the new leader. A
// deposed node cannot be promoted again without a restart.
func (c *Cluster) demote() {
	c.mu.Lock()
	eng := c.eng
	c.mu.Unlock()
	if d := eng.durable(); d != nil {
		d.log.Fence(repl.ErrDeposed)
	}
	eng.follower.Store(true)
	rep := &Replica{eng: eng, lg: c.lg, ctx: c.ctx, cancel: func() {}}
	info, ok, _ := c.lease.Read()
	c.mu.Lock()
	c.rep, c.role = rep, RoleReplica
	if ok {
		c.term, c.leaderURL = info.Term, info.URL
	}
	c.mu.Unlock()
	c.lg.Warn("deposed as writer; rejoining as replica", "node", c.cfg.NodeID, "leader", info.URL)
	if ok && info.URL != "" && info.URL != c.cfg.SelfURL {
		if err := rep.resume(info.URL); err != nil {
			c.lg.Warn("deposed writer could not follow new leader", "err", err)
		}
	}
}

// Engine returns the engine serving this node (the same engine across a
// promotion).
func (c *Cluster) Engine() *Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng
}

// Role returns this node's current role.
func (c *Cluster) Role() Role {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.role
}

// LeaderURL returns the current leader's base URL (this node's own
// SelfURL while it is the writer).
func (c *Cluster) LeaderURL() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaderURL
}

// Term returns the election term this node last observed.
func (c *Cluster) Term() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term
}

// Halt freezes this node as if it crashed: the election loop and
// replication stop, the lease is NOT released, and a writer's log
// is fenced so the halted node can never write again. Nothing is flushed.
// It exists for failover drills — the in-process stand-in for kill -9 —
// and leaves the engine to be abandoned (or Closed) by the caller.
func (c *Cluster) Halt() {
	c.cancel()
	<-c.done
	c.mu.Lock()
	role, rep, eng := c.role, c.rep, c.eng
	c.mu.Unlock()
	if rep != nil {
		rep.stopStream()
	}
	if role == RoleWriter {
		if d := eng.durable(); d != nil {
			d.log.Fence(fmt.Errorf("dfpr: node halted"))
		}
	}
}

// Close leaves the cluster gracefully: the membership loop stops, a held
// lease is released so a successor need not wait out the TTL, and the
// engine is closed. Idempotent with Halt (Close after Halt just closes the
// engine).
func (c *Cluster) Close() error {
	c.cancel()
	<-c.done
	c.mu.Lock()
	role, rep, eng := c.role, c.rep, c.eng
	c.mu.Unlock()
	if rep != nil {
		rep.stopStream()
	}
	if role == RoleWriter {
		c.lease.Release()
	}
	return eng.Close()
}
