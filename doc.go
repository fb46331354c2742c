// Package dfpr is a from-scratch Go reproduction of "Lock-Free Computation
// of PageRank in Dynamic Graphs" (Subhajit Sahu, IPPS 2024,
// arXiv:2407.19562), packaged as a service-grade library for keeping
// PageRanks fresh on a graph that keeps changing.
//
// The public surface is the Engine: a versioned dynamic graph plus a rank
// vector maintained by the paper's contribution, lock-free Dynamic Frontier
// PageRank (DF-LF), constructed with functional options and driven with
// contexts. The vertex universe is open and engine-owned: an engine built
// with Open starts empty and grows as submissions mention entities, with
// clients addressing vertices by their natural string keys — the key→id
// compaction lives inside the engine, not in every caller:
//
//	eng, err := dfpr.Open(dfpr.WithThreads(8))
//	t, err := eng.SubmitKeyed(ctx, nil, []dfpr.KeyEdge{
//		{From: "alice", To: "bob"},   // never-seen keys create vertices
//		{From: "bob", To: "carol"},
//	})
//	seq, err := t.Wait(ctx)              // version the edits landed in
//	err = eng.WaitRanked(ctx, seq)       // ranks at least that fresh
//	v, err := eng.View()
//	score, ok := v.ScoreOfKey("bob")     // keyed point lookup, 0 allocs
//	for _, e := range v.TopK(10) {       // ranked ids, cached per version
//		key, _ := v.KeyOf(e.V)           // each id's key, as of v's version
//		fmt.Println(key, e.Score)
//	}
//
// Dense-ID construction remains for callers that already hold compact ids:
//
//	eng, err := dfpr.New(n, edges,
//		dfpr.WithTolerance(1e-10),
//		dfpr.WithThreads(8))
//	res, err := eng.Rank(ctx)            // initial static convergence
//	seq, err := eng.Apply(ctx, del, ins) // publish a batch update
//	res, err = eng.Rank(ctx)             // incremental, frontier-sized refresh
//
// Apply and Submit are open-universe too: an edge naming a vertex beyond
// the current count grows the graph (Engine.Grow pre-sizes it), new
// vertices materialising with their dead-end self-loop. Growth keeps
// incremental ranking equivalent to a cold build: previous ranks rescale
// by n₀/n₁ and new vertices seed at 1/n₁ — the closed-form fixed point of
// the grown graph under self-loop dead-end elimination (the paper's §6
// future-work rescale, made exact; see DESIGN.md §8).
//
// Writes scale through the ingest pipeline: Submit enqueues a batch and
// returns a Ticket immediately, a background loop coalesces everything
// queued into one merged batch per round and publishes it, and a refresher
// ranks behind the loop, never blocking it — each refresh replays whatever
// was published meanwhile as one merged span, so the refresh cost is
// amortised over however many rounds arrived during the last one, and the
// delta-merge snapshot cost scales with the merged batch rather than the
// call count. WithRankPolicy sets how many unranked edits make a refresh
// due (RankImmediate: any; RankEveryN). Under RankImmediate a round
// published mid-refresh supersedes the stale refresh instead of queueing
// behind it:
//
//	t, err := eng.Submit(ctx, del, ins)  // enqueue; returns immediately
//	seq, err := t.Wait(ctx)              // version the edits landed in
//	err = eng.WaitRanked(ctx, seq)       // ranks at least that fresh
//	err = eng.Flush(ctx)                 // drain: applied AND ranked
//
// WithIngestQueue bounds the queue (Submit reports ErrQueueFull —
// backpressure, not an outage), and a Rank catching up across several
// pending versions always replays them as one merged incremental run.
//
// WithDurability(dir) makes all of it survive the process: every published
// round is appended to a write-ahead log (CRC-framed, fsynced per
// WithFsync: FsyncAlways, FsyncBatched group-commit, FsyncNone) before its
// version is visible to readers, and checkpoints snapshot graph, ranks and
// key space to bound replay: the engine streams one to disk at a rank
// publication once the WAL logged since the newest checkpoint is as large
// as it, so checkpoint bytes stay at most the WAL's (Checkpoint forces
// one). Construction against a directory
// with state warm-restarts instead of building: reads serve the
// checkpointed watermark immediately, the log tail replays through the
// incremental path, Recovering reports true until the first Rank catches
// the tip, and recovered ranks converge to the cold-build fixed point. A
// torn final record — the normal result of a crash mid-append — is
// truncated, never fatal. After startup, I/O failure degrades rather than
// wedges: applies continue in memory and Stats().DurabilityStats.Err
// surfaces ErrDurabilityDegraded wrapping the cause. HasDurableState probes a
// directory; keyed engines recover with Open, dense ones with New.
//
// The WAL doubles as a replication stream. Engine.Feed returns the HTTP
// handler replicas tail (a checkpoint bootstrap followed by CRC-framed
// records), and StartReplica dials it to build a read-only follower — a
// Cluster with a fixed leader whose Engine is a full engine: views,
// watermarks and WaitRanked semantics work unchanged, writes bounce as
// ErrNotWriter, and Stats().ReplicationStats reports role, applied
// sequence, lag and a stream's terminal error. A replica's apply loop only
// replays streamed rounds, at the writer's round boundaries; the engine's
// refresher ranks behind it, as behind the writer's ingest loop, so a
// replica applies while it ranks and a failed refresh is retried without
// stopping replication. A follower that keeps pace carries
// bitwise-identical ranks. JoinCluster returns the same Cluster type with
// membership and failover on top: nodes share the durability directory and a static peer
// list (which only orders their election stagger — nobody polls anybody),
// the writer holds a TTL lease, and when it dies a replica promotes itself
// — replaying the shared log tail, taking over the feed, and resuming the
// WAL sequence exactly where the dead writer stopped:
//
//	c, err := dfpr.JoinCluster(ctx, dfpr.ClusterConfig{
//		NodeID: "a", Dir: dir, SelfURL: self, Peers: peers,
//	})
//	eng := c.Engine()          // writer or follower, per c.Role()
//
// Reads go through Views — immutable, zero-copy handles pinned to one
// published version, shared by every reader of that version:
//
//	v, err := eng.View()       // latest ranks, one atomic load
//	score, ok := v.ScoreOf(u)  // point lookup, zero allocations
//	board := v.TopK(10)        // O(k) result from a cached shared selection
//	old, err := eng.ViewAt(s)  // retained history (WithHistory versions)
//	moved := v.Delta(old)      // movement set, one O(|V|) scan of two vectors
//
// Keyed engines add three calls: Engine.Resolve (key to id), View.KeyOf
// (id to key) and View.ScoreOfKey; every other keyed answer is a dense one
// plus View.KeyOf per entry. A view resolves exactly the keys that existed
// at its version — the key space is append-only, so "existed at that
// version" is nothing more than the bounds check the dense read performs —
// and the keyed hit path is one lock-free interner probe on top of it.
//
// Rank honours cancellation: a canceled context aborts a converging run
// promptly (workers joined, no goroutine leaks) with ErrCanceled, leaving
// the ranks at the last completed version. Subscribe streams the Result
// of each refresh — carrying the version's View — over a conflating
// channel sized for live serving; SetFaultPlan injects the paper's
// thread-delay and crash-stop faults for chaos drills, and a refresh that
// fails under a plan surfaces as itself with the ranks at the last good
// version; the next refresh replays that span. The store folds every batch
// the ranks have not replayed into one pending span (WithHistory counts
// retained views only), so ranks always catch up by replay, however far
// behind they are. Frontier size is
// observable from the run that served: the
// dfpr_rank_sweep_block_frontier_total counter over dfpr_rank_refreshes_total.
//
// The serve package exposes an Engine over HTTP/JSON (GET /v1/rank/{u},
// /v1/topk, /v1/delta, /v1/wait/{seq}, /v1/healthz, /v1/stats, and a
// non-blocking POST /v1/apply that answers 202 with the assigned version —
// ?wait=ranked for read-your-ranks — with per-request version pinning via
// the X-DFPR-Version header and a graceful drain that flushes the ingest
// queue); on a keyed engine the surface speaks keys (/v1/rank/{key}, keyed
// top-k/delta entries, keyed apply edges; ?ids=dense opts out). Clustered
// serving rides the same surface: GET /v1/feed streams the WAL,
// serve.WithCluster makes a replica proxy writes to the current leader,
// version pins wait at the replica's watermark so read-your-ranks survives
// fan-out, and /v1/healthz /v1/stats report role and replication lag.
// cmd/prserve is its ready-made binary (-keyed for string-keyed serving,
// -data for durable serving with crash-safe warm restarts, -cluster-node/
// -cluster-self/-cluster-peers to serve as a cluster member).
//
// Every engine is observable without dependencies: Engine.Metrics returns
// a telemetry registry (stdlib-only counters, gauges and histograms —
// instrument writes are lock-free and allocation-free) covering ingest,
// graph growth, rank refreshes, publish→ranked freshness and, on durable
// engines, WAL and checkpoint latencies. The serve layer adds per-endpoint
// RED series, exposes everything as Prometheus text exposition on GET
// /metrics, mounts net/http/pprof on request (WithPprof), and logs through
// a caller-supplied log/slog Logger (WithLogger; silent by default).
// The end-to-end benchmark (benchmark/, its own module) drives real
// prserve processes with a read/write mix and reconciles its own request
// counts against the final scrape. DESIGN.md §11 holds the metric
// inventory.
//
// The paper's contribution — the Dynamic Frontier approach for updating
// PageRank after batch edge updates, and its lock-free fault-tolerant
// implementation DFLF — lives in internal/core together with every
// baseline the paper compares against (Static, Naive-dynamic and
// Dynamic-Traversal PageRank, each barrier-based and lock-free).
// Supporting substrates:
//
//	internal/avec      atomic float64 and flag vectors
//	internal/keymap    append-only string↔id interner (lock-free reads)
//	internal/graph     CSR snapshots (incremental delta-merge + parallel
//	                   cold build), growable dynamic edge store, batches,
//	                   the DFPRCSR1 binary container
//	internal/gio       edge-list/MatrixMarket readers, binary CSR container
//	                   files and the zero-parse mmap loader
//	internal/gen       synthetic stand-ins for the paper's datasets
//	internal/batch     batch-update generation and temporal replay
//	internal/sched     dynamic chunk scheduling (uniform and edge-balanced),
//	                   instrumented barriers, abortable work pools
//	internal/fault     thread delay, crash-stop and filesystem-I/O injection
//	internal/wal       write-ahead log segments + checkpoint files
//	internal/repl      WAL feed streaming, replica client, writer lease,
//	                   peer health polling
//	internal/topk      top-k selection kernel, norms, geometric means, tables
//	internal/telemetry metrics registry + Prometheus exposition encoder/parser
//	internal/harness   one driver per table/figure of the evaluation
//	internal/snapshot  versioned store + Ranker composition layer
//
// Performance architecture (see README.md for the full story): graph
// snapshots are built incrementally — Dynamic tracks the rows a batch
// dirtied and Snapshot delta-merges them into the previous CSR instead of
// rebuilding, falling back to a parallel counting-sort cold build; the rank
// kernels gather a contribution cache contrib[u] = α·rank[u]/outdeg(u)
// maintained at every rank store, one memory read per edge instead of two;
// and the chunk schedulers place chunk boundaries by prefix in-degree so
// power-law hub rows do not serialise a pass behind one worker. The read
// path adds per-version views: one shared immutable vector and one shared
// top-k selection per version, so point lookups allocate nothing and
// leaderboards allocate O(k) (ScoreOf ≈ 3.6 ns, 0 allocs). The write path
// adds the coalescing ingest pipeline: 4 315 sustained asynchronous applies
// per second against 13 for the synchronous apply+rank baseline at an equal
// ranked-freshness deadline. Graphs load from the versioned binary CSR
// container (DFPRCSR1, the one on-disk layout) that a page-aligned mmap
// aliases zero-parse — 7.1 ms against 326 ms for parsing the text edge
// list; the pull kernels are cache-blocked (edge-balanced chunks capped at
// an LLC-sized working set, word-at-a-time frontier scans that see exactly
// what per-vertex probes would). Those figures were measured at PRs 3, 4
// and 9 on a 1-CPU box by a generator since removed; the figure of record
// is the end-to-end benchmark under benchmark/ (BENCHMARK.json), which
// measures the same layers inside whole requests. Thread-scaling beyond 2
// cores is unverified.
//
// Binaries: cmd/prbench regenerates every table and figure of the paper's
// evaluation, cmd/prgen emits datasets as edge lists or binary CSR
// containers (-csr), cmd/prrank ranks an edge list with DF-LF, before and
// after a batch (-keyed for string keys), cmd/prserve serves ranks over HTTP,
// cmd/prlint runs the invariant analyzers.
// Four runnable examples live under examples/, one per API surface
// (quickstart, liveranker, leaderboard, faultsim). The benchmarks in this root
// package (bench_test.go) run trimmed versions of every experiment under
// `go test -bench`.
//
// See README.md for a guided tour and DESIGN.md for the system inventory
// and the paper→reproduction substitution map.
package dfpr
