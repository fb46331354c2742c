// Package serve exposes a dfpr.Engine as an HTTP/JSON service shaped for
// heavy mixed traffic: point rank lookups, top-k leaderboards and version
// deltas are answered from zero-copy Views (no copy of the rank vector per
// request; a lookup or a warm top-k does no O(|V|) work, a delta is one
// O(|V|) pass over two vectors), while edge batches POSTed to the write
// endpoint flow through the engine's ingest pipeline — the request never
// blocks on a rank refresh. Every response names the rank version it was
// served from in the X-DFPR-Version header, and a request may pin itself
// to a retained version by sending the same header.
//
// Endpoints (all JSON):
//
//	GET  /v1/rank/{u}            {"vertex":u,"score":s,"version":v}
//	GET  /v1/topk?k=10           {"version":v,"entries":[{"vertex":u,"score":s},…]}
//	GET  /v1/delta?from=&to=     {"from":a,"to":b,"movements":[{"vertex":u,"from":x,"to":y},…]}
//	POST /v1/apply               {"del":[{"u":..,"v":..}],"ins":[…]} → 202 {"version":..,"rank_version":..,"ranked":false}
//	POST /v1/apply?wait=ranked   same, but 200 once ranks cover the new version
//	GET  /v1/wait/{seq}          block until ranks (or ?for=applied: the graph) reach seq
//	GET  /v1/healthz             liveness: {"status":"ok","ready":bool,"role":"writer|replica","replication_lag_seq":n}
//	GET  /v1/stats               engine + ingest + serving counters
//	GET  /v1/feed                replication feed: the long-lived WAL stream
//	                             replicas tail (503 on an engine with no log)
//	GET  /metrics                Prometheus text exposition: per-endpoint RED
//	                             metrics plus the engine's ingest, rank and
//	                             durability series (see internal/telemetry)
//
// WithPprof additionally mounts net/http/pprof under /debug/pprof/.
//
// # Clusters
//
// A server can front any node of a replication cluster: the *dfpr.Cluster
// that dfpr.JoinCluster or dfpr.StartReplica returns. The /v1/feed endpoint
// streams the writer's WAL to replicas; it answers per request, so a
// replica promoted to writer starts feeding without a restart. healthz and stats report the node's role and
// replication lag. With WithCluster the write surface follows the leader: a
// POST /v1/apply landing on a replica is proxied to the current leader and
// the response (including its X-DFPR-Version) relayed, so clients write
// anywhere and read their writes everywhere. Versioned reads are
// watermark-aware: pinning a version the node has not ranked yet — by the
// X-DFPR-Version header, or as /v1/delta's from or to — parks the request
// until replication catches up (bounded by the 30 s server-side wait cap,
// then 504) instead of serving stale ranks or calling the version Gone —
// read-your-ranks survives fan-out through any replica.
//
// On a keyed engine (dfpr.Open) the read surface speaks external string
// keys: /v1/rank/{key} resolves the path as a key, topk and delta entries
// carry a "key" field alongside the dense id, and /v1/apply accepts keyed
// edges ({"from":"alice","to":"bob"}) that intern never-seen keys into new
// vertices — the open universe over HTTP. Append ?ids=dense to any read to
// opt back into dense-id addressing on a keyed engine. The universe is
// open on the dense side too: an applied edge naming an id beyond the
// current vertex count grows the graph instead of erroring.
//
// Writes are asynchronous: the batch is coalesced with whatever
// else is in flight, 202 Accepted names the version it landed in, and the
// rank refresh runs behind the engine's RankPolicy. `?wait=ranked` turns a
// request into read-your-ranks; under the default dfpr.RankImmediate a write
// arriving mid-refresh supersedes that refresh, so it waits for one refresh
// over both rounds rather than two in a row. A full ingest queue surfaces
// as 429.
//
// Errors are JSON too: {"error":"…"} with 400 (malformed request), 404
// (unknown vertex/route), 410 (version at or below the latest ranked one and
// no longer retained), 429 (ingest backpressure), 503 (no ranks yet / engine
// closed), 504 (wait deadline). Shutdown drains in-flight requests
// gracefully and then flushes the ingest queue so every accepted write is
// applied and ranked before the process exits.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"dfpr"
	"dfpr/internal/telemetry"
)

// VersionHeader is the response header naming the rank version a read was
// served from, and the request header that pins a read to a retained
// version.
const VersionHeader = "X-DFPR-Version"

// Server wraps an Engine with the HTTP query surface. Create one with New,
// mount Handler on any mux (or use ListenAndServe), and stop it with
// Shutdown for a graceful drain. The zero value is not usable.
type Server struct {
	eng   *dfpr.Engine
	mux   *http.ServeMux
	hs    *http.Server
	opts  options
	keyed bool // engine owns a key space: reads default to key addressing
	log   *slog.Logger

	started    time.Time // construction time, the uptime epoch
	goVersion  string
	modVersion string

	// reads counts rank/topk/delta requests answered, writes apply batches
	// accepted: the dfpr_serve_*_total series, shared by every Server over
	// the same engine.
	reads  *telemetry.Counter
	writes *telemetry.Counter

	// proxy carries replica-received writes to the leader (WithCluster).
	// Its timeout covers connect+response; the per-request context still
	// applies on top.
	proxy *http.Client
}

type options struct {
	maxWait time.Duration // defaultMaxWait; in-package tests shorten it
	pprof   bool
	log     *slog.Logger
	cluster *dfpr.Cluster
}

// The request caps. Each rejects outside input and has had one value in
// every deployment, so they are constants rather than options.
const (
	// defaultTopK is the k of a /v1/topk request that names none.
	defaultTopK = 10
	// maxTopK caps the k a /v1/topk request may ask for, so one query cannot
	// demand an O(|V|) response: k beyond the cap is a 400.
	maxTopK = 1000
	// maxBatch caps the edges (deletions plus insertions) one /v1/apply
	// request may carry.
	maxBatch = 100000
	// defaultMaxWait caps how long /v1/wait, /v1/apply?wait=ranked and a
	// read pinned ahead of the ranked version may block server-side before
	// answering 504. The request context still bounds every wait from the
	// client side.
	defaultMaxWait = 30 * time.Second
)

// Option configures a Server at construction.
type Option func(*options) error

// WithPprof mounts net/http/pprof under /debug/pprof/ (default off: the
// profile endpoints expose internals and can be expensive, so production
// deployments opt in deliberately).
func WithPprof(on bool) Option {
	return func(o *options) error {
		o.pprof = on
		return nil
	}
}

// WithCluster connects the server to its node's cluster (dfpr.JoinCluster
// or dfpr.StartReplica). On a replica, POST /v1/apply is proxied to the
// current leader instead of bouncing with 421 — clients keep one URL
// through failovers. The role and leader are read per request, so a node
// promoted mid-flight starts accepting writes locally on the next request.
func WithCluster(c *dfpr.Cluster) Option {
	return func(o *options) error {
		if c == nil {
			return fmt.Errorf("serve: nil cluster (omit the option on a standalone node)")
		}
		o.cluster = c
		return nil
	}
}

// WithLogger sets the structured logger the server emits operational events
// to (5xx responses, shutdown drains). Default: discard.
func WithLogger(l *slog.Logger) Option {
	return func(o *options) error {
		if l == nil {
			return fmt.Errorf("serve: nil logger (omit the option for the discard default)")
		}
		o.log = l
		return nil
	}
}

// New wraps the engine. The engine stays owned by the caller: Shutdown
// drains the HTTP side (and flushes the ingest queue) but does not Close
// the engine.
func New(eng *dfpr.Engine, opts ...Option) (*Server, error) {
	o := options{maxWait: defaultMaxWait}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	s := &Server{
		eng: eng, mux: http.NewServeMux(), opts: o, keyed: eng.Keyed(),
		log: o.log, started: time.Now(),
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		s.goVersion = bi.GoVersion
		s.modVersion = bi.Main.Version
	}
	s.mux.HandleFunc("GET /v1/rank/{u}", s.instrument("rank", s.handleRank))
	s.mux.HandleFunc("GET /v1/topk", s.instrument("topk", s.handleTopK))
	s.mux.HandleFunc("GET /v1/delta", s.instrument("delta", s.handleDelta))
	s.mux.HandleFunc("POST /v1/apply", s.instrument("apply", s.handleApply))
	s.mux.HandleFunc("GET /v1/wait/{seq}", s.instrument("wait", s.handleWait))
	s.mux.HandleFunc("GET /v1/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	// The feed is deliberately uninstrumented: a replica's stream stays open
	// for hours, and a duration histogram built from hour-long observations
	// would poison the RED latency series every read shares.
	s.mux.HandleFunc("GET /v1/feed", s.handleFeed)
	s.proxy = &http.Client{Timeout: o.maxWait}
	s.initTelemetry()
	return s, nil
}

// handleFeed streams the engine's write-ahead log to a replica. The handler
// re-resolves Engine.Feed on every request: a volatile engine (and a
// replica, until a failover promotes it) has no log to stream and answers
// 503, while a freshly promoted writer starts feeding immediately.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	if h := s.eng.Feed(); h != nil {
		h.ServeHTTP(w, r)
		return
	}
	writeErr(w, http.StatusServiceUnavailable, "no feed: this node has no write-ahead log to stream (replica or volatile engine)")
}

// Handler returns the HTTP handler serving the /v1 surface, for mounting
// on an existing server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe binds addr and serves until Shutdown (which makes it
// return http.ErrServerClosed) or a listener error.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves on an existing listener until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.hs = &http.Server{Handler: s.mux}
	return s.hs.Serve(l)
}

// Shutdown gracefully drains the server: the listener closes immediately,
// in-flight requests run to completion (bounded by ctx), and the engine's
// ingest queue is then flushed — every write accepted with a 202 is applied
// and ranked before Shutdown returns, the drain a rolling deploy needs.
// Calling it without a running listener still flushes the queue.
func (s *Server) Shutdown(ctx context.Context) error {
	t0 := time.Now()
	var err error
	if s.hs != nil {
		err = s.hs.Shutdown(ctx)
	}
	defer func() {
		s.log.Info("server drained", "duration", time.Since(t0), "err", err)
	}()
	// The handlers are gone, so the ingest queue is stable. Flush when the
	// PIPELINE has outstanding work — edits still queued (even ones whose
	// handler timed out before acknowledging: they were accepted and must
	// not be dropped at engine Close), or applied rounds the ranks have not
	// covered yet. An idle or never-written engine skips the flush, so
	// teardown never hands surprise work to an engine that saw no pipeline
	// traffic.
	st := s.eng.Stats()
	if st.QueuedEdits > 0 || (st.IngestRounds > 0 && s.eng.Behind() > 0) {
		if ferr := s.eng.Flush(ctx); ferr != nil && !errors.Is(ferr, dfpr.ErrClosed) && err == nil {
			err = ferr
		}
	}
	return err
}

// viewFor resolves the view a read request is served from: the version
// pinned by the request's X-DFPR-Version header (see pinnedView), or the
// latest. It writes the error response itself and returns nil when there is
// nothing to serve.
func (s *Server) viewFor(w http.ResponseWriter, r *http.Request) *dfpr.View {
	if h := r.Header.Get(VersionHeader); h != "" {
		seq, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "malformed %s header %q", VersionHeader, h)
			return nil
		}
		v, ok := s.pinnedView(w, r, seq)
		if v != nil || !ok {
			return v
		}
		// The watermark passed seq but a coalesced refresh skipped it: the
		// latest view (≥ seq by the wait) serves the read-your-ranks contract.
	}
	v, err := s.eng.View()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return nil
	}
	return v
}

// pinnedView resolves a rank version a request names — the X-DFPR-Version
// pin, or /v1/delta's from and to — to its exact view. It writes the error
// response itself and returns ok false when there is nothing to serve.
//
// The version is a watermark, which is what lets read-your-ranks survive
// fan-out across replicas: a version this node retains is served exactly; a
// version newer than anything ranked here parks the request until
// replication (or the local pipeline) catches up, bounded by the server's
// max wait — the node never calls a version Gone that the client saw
// elsewhere. Only a version at or below the latest ranked one that is not
// retained is Gone. After a wait the exact view may still be missing,
// because a coalesced refresh skipped seq: pinnedView then returns nil with
// ok true and the caller decides.
func (s *Server) pinnedView(w http.ResponseWriter, r *http.Request, seq uint64) (v *dfpr.View, ok bool) {
	if v, err := s.eng.ViewAt(seq); err == nil {
		return v, true
	}
	if lv, err := s.eng.View(); err == nil && seq <= lv.Seq() {
		// Retained window passed the version by: either it was ranked and
		// evicted, or a coalesced refresh skipped it. Serving the latest
		// would be correct for a watermark but wrong for a historical pin,
		// and the request cannot say which it meant — Gone keeps the pin
		// contract honest (watermark readers retry unpinned).
		writeErr(w, http.StatusGone, "rank version %d no longer retained here", seq)
		return nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.maxWait)
	defer cancel()
	if err := s.eng.WaitRanked(ctx, seq); err != nil {
		writeErr(w, waitStatusOf(r.Context(), err), "rank version %d not reached here yet: %v", seq, err)
		return nil, false
	}
	v, _ = s.eng.ViewAt(seq)
	return v, true
}

type rankResponse struct {
	Vertex  uint32  `json:"vertex"`
	Key     string  `json:"key,omitempty"`
	Score   float64 `json:"score"`
	Version uint64  `json:"version"`
}

// denseIDs reports whether a read request opted out of key addressing on a
// keyed server (?ids=dense). On a dense server it is always true.
func (s *Server) denseIDs(r *http.Request) bool {
	return !s.keyed || r.URL.Query().Get("ids") == "dense"
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	v := s.viewFor(w, r)
	if v == nil {
		return
	}
	raw := r.PathValue("u")
	resp := rankResponse{Version: v.Seq()}
	if s.denseIDs(r) {
		u64, err := strconv.ParseUint(raw, 10, 32)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "malformed vertex %q", raw)
			return
		}
		score, ok := v.ScoreOf(uint32(u64))
		if !ok {
			writeErr(w, http.StatusNotFound, "vertex %d out of range [0, %d)", u64, v.N())
			return
		}
		// ?ids=dense opted out of key addressing, so the response stays
		// dense too — matching topk/delta, which omit keys under the same
		// flag.
		resp.Vertex, resp.Score = uint32(u64), score
	} else {
		// Keyed addressing: the path segment is the external key, resolved
		// against the view's version (keys interned later do not exist here).
		id, ok := s.eng.Resolve(raw)
		if !ok || int(id) >= v.N() {
			writeErr(w, http.StatusNotFound, "key %q unknown at version %d", raw, v.Seq())
			return
		}
		score, _ := v.ScoreOf(id)
		resp.Vertex, resp.Key, resp.Score = id, raw, score
	}
	s.reads.Inc()
	writeJSON(w, v.Seq(), resp)
}

type topkEntry struct {
	Vertex uint32  `json:"vertex"`
	Key    string  `json:"key,omitempty"`
	Score  float64 `json:"score"`
}

type topkResponse struct {
	Version uint64      `json:"version"`
	K       int         `json:"k"`
	Entries []topkEntry `json:"entries"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	v := s.viewFor(w, r)
	if v == nil {
		return
	}
	k := defaultTopK
	if q := r.URL.Query().Get("k"); q != "" {
		kk, err := strconv.Atoi(q)
		if err != nil || kk <= 0 {
			writeErr(w, http.StatusBadRequest, "malformed k %q", q)
			return
		}
		k = kk
	}
	if k > maxTopK {
		writeErr(w, http.StatusBadRequest, "k %d exceeds the server cap %d", k, maxTopK)
		return
	}
	// Clamp to the universe before any selection or allocation: within the
	// cap, a k beyond |V| must cost |V|, never k.
	if k > v.N() {
		k = v.N()
	}
	var entries []topkEntry
	if s.denseIDs(r) {
		top := v.TopK(k)
		entries = make([]topkEntry, len(top))
		for i, e := range top {
			entries[i] = topkEntry{Vertex: e.V, Score: e.Score}
		}
	} else {
		top := v.TopKKeys(k)
		entries = make([]topkEntry, len(top))
		for i, e := range top {
			entries[i] = topkEntry{Vertex: e.V, Key: e.Key, Score: e.Score}
		}
	}
	s.reads.Inc()
	writeJSON(w, v.Seq(), topkResponse{Version: v.Seq(), K: len(entries), Entries: entries})
}

type deltaMovement struct {
	Vertex uint32  `json:"vertex"`
	Key    string  `json:"key,omitempty"`
	From   float64 `json:"from"`
	To     float64 `json:"to"`
}

type deltaResponse struct {
	From      uint64          `json:"from"`
	To        uint64          `json:"to"`
	Movements []deltaMovement `json:"movements"`
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fromSeq, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "malformed or missing from=%q", q.Get("from"))
		return
	}
	var toSeq uint64
	t := q.Get("to")
	if t != "" {
		if toSeq, err = strconv.ParseUint(t, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, "malformed to=%q", t)
			return
		}
	}
	limit := 0
	if l := q.Get("limit"); l != "" {
		if limit, err = strconv.Atoi(l); err != nil || limit < 0 {
			writeErr(w, http.StatusBadRequest, "malformed limit=%q", l)
			return
		}
	}
	// Both ends are pinned versions under pinnedView's rule; a delta needs
	// the exact views, so one a coalesced refresh skipped is Gone. to
	// resolves first: once it is ranked, an earlier from is too.
	exact := func(seq uint64) *dfpr.View {
		v, ok := s.pinnedView(w, r, seq)
		if v == nil && ok {
			writeErr(w, http.StatusGone, "rank version %d was coalesced into a later one", seq)
		}
		return v
	}
	var to *dfpr.View
	if t != "" {
		if to = exact(toSeq); to == nil {
			return
		}
	}
	from := exact(fromSeq)
	if from == nil {
		return
	}
	if to == nil {
		if to, err = s.eng.View(); err != nil {
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}
	moved := to.Delta(from)
	// Biggest movers first — the shape a "what changed" consumer wants.
	sort.Slice(moved, func(a, b int) bool {
		da, db := abs(moved[a].To-moved[a].From), abs(moved[b].To-moved[b].From)
		if da != db {
			return da > db
		}
		return moved[a].V < moved[b].V
	})
	if limit > 0 && len(moved) > limit {
		moved = moved[:limit]
	}
	out := deltaResponse{From: from.Seq(), To: to.Seq(), Movements: make([]deltaMovement, len(moved))}
	keyed := !s.denseIDs(r)
	for i, m := range moved {
		out.Movements[i] = deltaMovement{Vertex: m.V, From: m.From, To: m.To}
		if keyed {
			out.Movements[i].Key, _ = to.KeyOf(m.V)
		}
	}
	s.reads.Inc()
	writeJSON(w, to.Seq(), out)
}

// applyEdge is one edge of an apply batch, in either addressing mode: dense
// ids ({"u":1,"v":2}) or external keys ({"from":"alice","to":"bob"}). An
// edge is keyed iff it names a key; a batch must stick to one mode.
type applyEdge struct {
	U    uint32 `json:"u"`
	V    uint32 `json:"v"`
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
}

func (e applyEdge) isKeyed() bool { return e.From != "" || e.To != "" }

type applyRequest struct {
	Del []applyEdge `json:"del"`
	Ins []applyEdge `json:"ins"`
}

// splitApply converts a request body into exactly one addressing mode.
// keyed reports which; a mix (or keyed edges on a dense engine) errors.
func (s *Server) splitApply(req applyRequest) (del, ins []dfpr.Edge, kdel, kins []dfpr.KeyEdge, keyed bool, err error) {
	nKeyed := 0
	for _, e := range req.Del {
		if e.isKeyed() {
			nKeyed++
		}
	}
	for _, e := range req.Ins {
		if e.isKeyed() {
			nKeyed++
		}
	}
	switch {
	case nKeyed == 0:
		return toEdges(req.Del), toEdges(req.Ins), nil, nil, false, nil
	case nKeyed < len(req.Del)+len(req.Ins):
		return nil, nil, nil, nil, false, fmt.Errorf("batch mixes keyed and dense edges")
	case !s.keyed:
		return nil, nil, nil, nil, false, fmt.Errorf("keyed edges on a dense-ID engine (serve a dfpr.Open engine for keys)")
	}
	return nil, nil, toKeyEdges(req.Del), toKeyEdges(req.Ins), true, nil
}

type applyResponse struct {
	Version     uint64 `json:"version"`
	RankVersion uint64 `json:"rank_version"`
	Ranked      bool   `json:"ranked"`
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	// On a cluster replica the write surface lives at the leader: relay the
	// request there and the response back, so one URL works for writes
	// through any node and across failovers. Role is read per request — a
	// node promoted a moment ago takes the local path below.
	if c := s.opts.cluster; c != nil && c.Role() == dfpr.RoleReplica {
		s.proxyApply(w, r, c.LeaderURL())
		return
	}
	// A recovering engine is replaying its write-ahead log: reads serve the
	// pre-crash watermark, but accepting writes would interleave them with
	// the replay. Shed them with a retry hint scaled to how far the replay
	// still has to go.
	if s.eng.Recovering() {
		w.Header().Set("Retry-After", retryAfterRecovery(s.eng.Behind()))
		writeErr(w, http.StatusServiceUnavailable, "engine recovering: log replay has not caught up, retry shortly")
		return
	}
	var req applyRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed apply body: %v", err)
		return
	}
	if n := len(req.Del) + len(req.Ins); n == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	} else if n > maxBatch {
		writeErr(w, http.StatusBadRequest, "batch of %d edges exceeds the server cap %d", n, maxBatch)
		return
	}
	del, ins, kdel, kins, keyed, err := s.splitApply(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Enqueue onto the ingest pipeline. The only wait on the
	// request path is for the coalescing round that assigns the version —
	// the rank refresh runs behind the engine's policy, never here. Both
	// waits are bounded server-side by maxWait so a stalled pipeline (or a
	// client with no timeout) cannot park handler goroutines indefinitely.
	var tk *dfpr.Ticket
	if keyed {
		tk, err = s.eng.SubmitKeyed(r.Context(), kdel, kins)
	} else {
		tk, err = s.eng.Submit(r.Context(), del, ins)
	}
	if err != nil {
		if errors.Is(err, dfpr.ErrQueueFull) {
			// Backpressure, not rejection: tell the client when to come back
			// instead of leaving it to guess a retry cadence, scaling the
			// hint with how overfull the queue actually is.
			st := s.eng.Stats()
			w.Header().Set("Retry-After", retryAfterQueue(st.QueuedEdits, st.QueueBound))
		}
		writeErr(w, statusOf(err), "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.maxWait)
	defer cancel()
	seq, err := tk.Wait(ctx)
	if err != nil {
		writeErr(w, waitStatusOf(r.Context(), err), "batch queued but not observed applied: %v", err)
		return
	}
	s.writes.Inc()
	resp := applyResponse{Version: seq}
	if r.URL.Query().Get("wait") == "ranked" {
		if err := s.eng.WaitRanked(ctx, seq); err != nil {
			writeErr(w, waitStatusOf(r.Context(), err),
				"batch published as version %d but ranks did not catch up: %v", seq, err)
			return
		}
	}
	if v, err := s.eng.View(); err == nil {
		resp.RankVersion = v.Seq()
		resp.Ranked = resp.RankVersion >= seq
	}
	code := http.StatusAccepted
	if resp.Ranked {
		code = http.StatusOK
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(VersionHeader, strconv.FormatUint(resp.RankVersion, 10))
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}

// proxyApply relays a write that landed on a replica to the leader's apply
// endpoint, streaming the leader's status, version header and body back
// verbatim — the client cannot tell it did not talk to the leader directly.
// The X-DFPR-Version it relays is the leader's, which is exactly what a
// follow-up versioned read against this replica needs: viewFor treats it as
// a watermark and waits for replication to cover it.
func (s *Server) proxyApply(w http.ResponseWriter, r *http.Request, leader string) {
	if leader == "" {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "no leader known yet: election in progress, retry shortly")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading apply body: %v", err)
		return
	}
	target := leader + "/v1/apply"
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		writeErr(w, http.StatusBadGateway, "building leader request: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.proxy.Do(req)
	if err != nil {
		// The leader is unreachable — possibly mid-failover. 502 tells the
		// client the relay failed, not its request; retry hits the new
		// leader once the election settles.
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusBadGateway, "leader %s unreachable: %v", leader, err)
		return
	}
	defer resp.Body.Close()
	for _, hk := range []string{"Content-Type", VersionHeader, "Retry-After"} {
		if hv := resp.Header.Get(hk); hv != "" {
			w.Header().Set(hk, hv)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	if resp.StatusCode < 300 {
		s.writes.Inc()
	}
}

// retryAfterQueue derives the Retry-After hint of a queue-full 429 from how
// full the ingest queue actually is: a bounce off a mostly drained queue
// (one oversized batch) clears within a coalescing round, while a queue
// pressed against its bound needs the pipeline a few rounds to drain.
// Quarter-full steps, clamped to 1..8s so the hint stays actionable.
func retryAfterQueue(queued, bound int) string {
	secs := 1
	if bound > 0 && queued > 0 {
		secs = (4*queued + bound - 1) / bound // ceil(4·fullness)
		if secs < 1 {
			secs = 1
		}
		if secs > 8 {
			secs = 8
		}
	}
	return strconv.Itoa(secs)
}

// retryAfterRecovery derives the Retry-After hint of a recovery 503 from
// how many replayed versions the ranks still trail: replay progress is the
// engine's Behind gauge, and each retry step covers a few hundred versions
// of catch-up. Clamped to 1..8s like the queue hint.
func retryAfterRecovery(behind uint64) string {
	secs := 1 + int(behind/256)
	if secs > 8 {
		secs = 8
	}
	return strconv.Itoa(secs)
}

type waitResponse struct {
	Seq         uint64 `json:"seq"`
	For         string `json:"for"`
	Version     uint64 `json:"version"`
	RankVersion uint64 `json:"rank_version"`
	Behind      uint64 `json:"behind"`
}

// handleWait parks the request until the graph (?for=applied) or the ranks
// (default) reach the path's sequence number — the watermark primitive that
// lets a writer's reader read its own writes from another connection.
func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "malformed sequence %q", r.PathValue("seq"))
		return
	}
	target := r.URL.Query().Get("for")
	if target == "" {
		target = "ranked"
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.maxWait)
	defer cancel()
	switch target {
	case "ranked":
		err = s.eng.WaitRanked(ctx, seq)
	case "applied":
		err = s.eng.WaitVersion(ctx, seq)
	default:
		writeErr(w, http.StatusBadRequest, "unknown wait target %q (ranked|applied)", target)
		return
	}
	if err != nil {
		writeErr(w, waitStatusOf(r.Context(), err), "wait for %s %d: %v", target, seq, err)
		return
	}
	resp := waitResponse{Seq: seq, For: target, Version: s.eng.Version(), Behind: s.eng.Behind()}
	if v, err := s.eng.View(); err == nil {
		resp.RankVersion = v.Seq()
	}
	writeJSON(w, resp.RankVersion, resp)
}

type healthzResponse struct {
	Status string `json:"status"`
	Ready  bool   `json:"ready"`
	// Role and ReplicationLagSeq are the cluster fields a load balancer or
	// failover script reads: whether this node is the writer or a replica,
	// and how many WAL records it still trails the writer by (always 0 on
	// the writer itself). A standalone engine is trivially the writer of its
	// own state.
	Role              string `json:"role"`
	ReplicationLagSeq uint64 `json:"replication_lag_seq"`
}

// handleHealthz is the liveness probe: 200 whenever the process serves.
// Ready reports whether a rank version has been published — the signal a
// load balancer gates traffic on (also visible in /v1/stats). A durable
// engine that is still replaying its log reports status "recovering": the
// process is alive and reads work, but writes are shed with 503.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{Status: "ok", Role: dfpr.RoleWriter.String()}
	if s.eng.Recovering() {
		resp.Status = "recovering"
	}
	if rs := s.eng.Stats().ReplicationStats; rs.Enabled {
		resp.Role = rs.Role
		resp.ReplicationLagSeq = rs.LagRecords
	}
	if v, err := s.eng.View(); err == nil {
		resp.Ready = true
		writeJSON(w, v.Seq(), resp)
		return
	}
	writeJSON(w, 0, resp)
}

// statsResponse is the /v1/stats body: the engine's Stats (its JSON tags
// name the keys) plus what only the server knows — its request counters,
// how long it has been up and what built it (module version is "(devel)"
// outside a released build).
type statsResponse struct {
	dfpr.Stats
	Reads         uint64  `json:"reads_served"`
	Writes        uint64  `json:"writes_accepted"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version,omitempty"`
	ModVersion    string  `json:"module_version,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, st.RankVersion, statsResponse{
		Stats: st, Reads: s.reads.Value(), Writes: s.writes.Value(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		GoVersion:     s.goVersion, ModVersion: s.modVersion,
	})
}

func toEdges(in []applyEdge) []dfpr.Edge {
	if len(in) == 0 {
		return nil
	}
	out := make([]dfpr.Edge, len(in))
	for i, e := range in {
		out[i] = dfpr.Edge{U: e.U, V: e.V}
	}
	return out
}

func toKeyEdges(in []applyEdge) []dfpr.KeyEdge {
	if len(in) == 0 {
		return nil
	}
	out := make([]dfpr.KeyEdge, len(in))
	for i, e := range in {
		out[i] = dfpr.KeyEdge{From: e.From, To: e.To}
	}
	return out
}

// statusOf maps engine errors from request-shaped operations onto HTTP
// statuses; the default is 400 because what remains is input validation
// (out-of-range edges, malformed parameters).
func statusOf(err error) int {
	switch {
	case errors.Is(err, dfpr.ErrVersionEvicted):
		return http.StatusGone
	case errors.Is(err, dfpr.ErrQueueFull):
		return http.StatusTooManyRequests // ingest backpressure: retry later
	case errors.Is(err, dfpr.ErrNoRanks), errors.Is(err, dfpr.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, dfpr.ErrNotWriter):
		// A write reached a replica that has no cluster info to proxy with:
		// the client addressed the wrong node, and the body names the leader.
		return http.StatusMisdirectedRequest
	case errors.Is(err, context.Canceled), errors.Is(err, dfpr.ErrCanceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusBadRequest
	}
}

// waitStatusOf maps a failed watermark wait: a deadline the SERVER imposed
// is a 504 (the wait cap elapsed, the write is still in flight), a request
// context the CLIENT ended is 499, engine states map as usual.
func waitStatusOf(reqCtx context.Context, err error) int {
	if errors.Is(err, context.DeadlineExceeded) && reqCtx.Err() == nil {
		return http.StatusGatewayTimeout
	}
	if code := statusOf(err); code != http.StatusBadRequest {
		return code
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, version uint64, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(VersionHeader, strconv.FormatUint(version, 10))
	// An encode error here means the connection died mid-response; the
	// status line is already out, so there is nothing sound left to send.
	_ = json.NewEncoder(w).Encode(body)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
