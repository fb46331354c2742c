// Command prserve serves PageRanks of a dynamic graph over HTTP: a
// dfpr.Engine behind the serve package's /v1 query surface. Point lookups,
// top-k leaderboards and version deltas are answered from zero-copy views;
// edge batches POSTed to /v1/apply flow through the engine's ingest
// pipeline — coalesced off the request path, ranked behind it per
// -rank-policy — and come back 202 with the assigned version (append
// ?wait=ranked for read-your-ranks). SIGINT/SIGTERM drains in-flight
// requests and flushes the ingest queue before exiting. The server
// refreshes with lock-free Dynamic Frontier PageRank (DFLF) at the paper's
// damping factor, as every engine does; comparing algorithms is prbench
// -exp's job.
//
// With -data the engine is durable: every applied batch is written to a
// write-ahead log under the directory, checkpoints bound replay, and a
// restart pointed at the same -data recovers the pre-crash graph and ranks
// (the input flags are then ignored — the directory is authoritative).
//
// Usage:
//
//	prserve -in graph.el -addr :8080
//	prserve -in web.csr                      # binary CSR container (prgen -csr): zero-parse mmap load
//	prserve -gen web -n 65536 -deg 12        # synthetic graph, no file needed
//	prserve -gen web -data /var/lib/dfpr     # durable: applied edits survive restarts
//	prserve -data /var/lib/dfpr              # warm restart from the directory alone
//	prserve -gen web -rank-policy every -rank-every 4096
//	prserve -keyed -in follows.kel           # string keys: 'alice bob' per line
//	prserve -keyed -gen web -n 65536         # synthetic v<id> keys
//
//	curl localhost:8080/v1/rank/alice        # keyed server: path is the key
//	curl localhost:8080/v1/rank/42
//	curl 'localhost:8080/v1/topk?k=5'
//	curl -X POST -d '{"ins":[{"u":1,"v":2}]}' localhost:8080/v1/apply
//	curl -X POST -d '{"ins":[{"u":3,"v":4}]}' 'localhost:8080/v1/apply?wait=ranked'
//	curl localhost:8080/v1/wait/2            # block until ranks cover version 2
//	curl localhost:8080/v1/healthz
//	curl 'localhost:8080/v1/delta?from=0'
//	curl localhost:8080/v1/stats
//	curl localhost:8080/metrics              # Prometheus text exposition
//
// With -cluster-node the process joins a replication cluster: the nodes
// race for the writer lease in the shared -data directory, the winner
// serves writes and streams its WAL from /v1/feed, and the others follow
// as read replicas. A replica proxies POST /v1/apply to the leader, so any
// node's URL accepts the full surface; when the writer dies, a replica
// promotes itself within the lease TTL and resumes the sequence. All nodes
// of one cluster must share -data (a shared filesystem) and list the same
// -cluster-peers:
//
//	prserve -gen web -data /shared/dfpr -addr :8081 \
//	  -cluster-node a -cluster-self http://127.0.0.1:8081 \
//	  -cluster-peers http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// Logs are structured (log/slog) on stderr; -log-format json machine-parses,
// -log-level debug|info|warn|error filters. -pprof mounts net/http/pprof
// under /debug/pprof/ for live profiling.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dfpr"
	"dfpr/internal/exutil"
	"dfpr/internal/gen"
	"dfpr/serve"
)

const (
	// genSeed seeds the -gen generators: one synthetic graph per
	// (class, n, deg), the same on every node and every restart.
	genSeed = 42
	// drainBudget bounds the graceful shutdown: in-flight requests and the
	// ingest flush get this long after SIGINT/SIGTERM.
	drainBudget = 10 * time.Second
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		in       = flag.String("in", "", "graph file: edge list ('u v' per line), MatrixMarket (.mtx), or binary CSR container (prgen -csr)")
		genClass = flag.String("gen", "", "generate a synthetic graph instead of -in: web|social|road|kmer")
		n        = flag.Int("n", 1<<14, "vertex count for -gen")
		deg      = flag.Int("deg", 12, "average degree for -gen")
		threads  = flag.Int("threads", 0, "worker goroutines (0 = NumCPU)")
		tol      = flag.Float64("tol", dfpr.DefaultTolerance, "iteration tolerance (L∞)")
		history  = flag.Int("history", dfpr.DefaultHistory, "retained rank views (ViewAt / delta window); each may pin up to a whole graph")
		policy   = flag.String("rank-policy", "immediate", "when the refresher ranks behind the ingest loop: immediate|every")
		everyN   = flag.Int("rank-every", 4096, "every: edits between refreshes")
		queue    = flag.Int("queue", dfpr.DefaultIngestQueue, "ingest queue bound in edits (backpressure above)")
		keyed    = flag.Bool("keyed", false, "serve an open-universe keyed engine: -in is a keyed edge list ('fromKey toKey' per line); with -gen, vertices get synthetic v<id> keys")
		data     = flag.String("data", "", "durability directory (WAL + checkpoints); applied edits survive restarts, and a directory with state warm-restarts the engine from it (-in/-gen then ignored)")
		fsyncS   = flag.String("fsync", "batched", "with -data, WAL fsync policy: always|batched|batched:<dur>|none")
		logFmt   = flag.String("log-format", "text", "log output format: text|json")
		logLvl   = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		clusterNode  = flag.String("cluster-node", "", "join a replication cluster under this node id (requires -data and -cluster-self)")
		clusterSelf  = flag.String("cluster-self", "", "cluster: this node's advertised base URL, e.g. http://127.0.0.1:8081")
		clusterPeers = flag.String("cluster-peers", "", "cluster: comma-separated base URLs of every node (including self)")
		leaseTTL     = flag.Duration("lease-ttl", 0, "cluster: writer lease TTL, the failover detection horizon (0 = default 3s)")
	)
	flag.Parse()

	logger, err := newLogger(*logFmt, *logLvl)
	if err != nil {
		fatalf("%v", err)
	}

	rp, err := parsePolicy(*policy, *everyN)
	if err != nil {
		fatalf("%v", err)
	}
	opts := []dfpr.Option{
		dfpr.WithTolerance(*tol),
		dfpr.WithThreads(*threads),
		dfpr.WithHistory(*history),
		dfpr.WithRankPolicy(rp),
		dfpr.WithIngestQueue(*queue),
	}
	warm := false
	if *data != "" {
		fp, err := dfpr.ParseFsyncPolicy(*fsyncS)
		if err != nil {
			fatalf("%v", err)
		}
		opts = append(opts, dfpr.WithFsync(fp))
		if *clusterNode == "" {
			// The cluster wires the directory itself (on the writer only);
			// standalone durability attaches it here.
			opts = append(opts, dfpr.WithDurability(*data))
			if warm, err = dfpr.HasDurableState(*data); err != nil {
				fatalf("probe -data %s: %v", *data, err)
			}
		}
	}
	var eng *dfpr.Engine
	var cl *dfpr.Cluster
	var nv, ne int
	var src *exutil.GraphSource
	switch {
	case *clusterNode != "":
		cl, err = joinCluster(*clusterNode, *clusterSelf, *clusterPeers, *data, *leaseTTL, *keyed, *in, *genClass, *n, *deg, opts, logger)
		if err != nil {
			fatalf("%v", err)
		}
		eng = cl.Engine()
	case warm:
		// The directory holds the authoritative state: skip loading any
		// input graph — recovery supersedes it.
		if *in != "" || *genClass != "" {
			logger.Warn("durable state present; ignoring -in/-gen", "data", *data)
		}
		if *keyed {
			eng, err = dfpr.Open(opts...)
		} else {
			eng, err = dfpr.New(0, nil, opts...)
		}
	case *keyed:
		eng, nv, ne, err = openKeyed(*in, *genClass, *n, *deg, opts)
	default:
		src, err = loadOrGenerate(*in, *genClass, *n, *deg)
		if err == nil {
			nv, ne = src.N, len(src.Edges)
			eng, err = dfpr.New(nv, src.Edges, opts...)
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
	if cl != nil {
		defer cl.Close() // releases the lease (when held) and closes the engine
	} else {
		defer eng.Close()
	}
	if src != nil && src.Layout != "text" && *in != "" {
		logger.Info("loaded binary CSR container", "path", *in,
			"layout", src.Layout, "file_bytes", src.FileBytes)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case cl != nil:
		logger.Info("cluster member ready", "node", *clusterNode,
			"role", cl.Role().String(), "leader", cl.LeaderURL(), "term", cl.Term())
	case warm:
		ds := eng.Stats().DurabilityStats
		logger.Info("warm restart",
			"data", *data, "version", eng.Version(),
			"checkpoint", ds.CheckpointSeq, "replayed", ds.ReplayedRecords)
	default:
		logger.Info("converging initial ranks", "vertices", nv, "edges", ne)
	}
	res, err := eng.Rank(ctx)
	if err != nil {
		fatalf("initial ranking failed: %v", err)
	}
	logger.Info("initial ranks ready",
		"version", res.Seq, "iterations", res.Iterations, "duration", res.Elapsed)

	srvOpts := []serve.Option{
		serve.WithLogger(logger), serve.WithPprof(*pprofOn),
	}
	if cl != nil {
		srvOpts = append(srvOpts, serve.WithCluster(cl))
	}
	srv, err := serve.New(eng, srvOpts...)
	if err != nil {
		fatalf("%v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	logger.Info("serving", "addr", *addr, "surface", "/v1", "mode", "async apply, policy "+rp.String(),
		"version", res.Seq, "pprof", *pprofOn)

	select {
	case err := <-errc:
		fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	logger.Info("draining", "budget", drainBudget)
	t0 := time.Now()
	dctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logger.Warn("drain incomplete", "err", err, "duration", time.Since(t0))
	}
	logger.Info("shutdown complete", "duration", time.Since(t0))
}

// newLogger resolves the -log-format/-log-level flags into a slog.Logger on
// stderr.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("prserve: unknown -log-level %q (debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("prserve: unknown -log-format %q (text|json)", format)
	}
}

// parsePolicy resolves the -rank-policy flags into a dfpr.RankPolicy.
func parsePolicy(name string, everyN int) (dfpr.RankPolicy, error) {
	switch strings.ToLower(name) {
	case "immediate":
		return dfpr.RankImmediate(), nil
	case "every":
		return dfpr.RankEveryN(everyN), nil
	default:
		return dfpr.RankPolicy{}, fmt.Errorf("prserve: unknown -rank-policy %q (immediate|every)", name)
	}
}

// joinCluster resolves the -cluster-* flags and joins the replication
// cluster: the seed graph (if any input flags were given) matters only when
// this node becomes the first-ever writer of a fresh directory — recovered
// or streamed state supersedes it everywhere else.
func joinCluster(node, self, peersCSV, data string, ttl time.Duration, keyed bool,
	in, genClass string, n, deg int, opts []dfpr.Option, logger *slog.Logger) (*dfpr.Cluster, error) {
	if data == "" || self == "" {
		return nil, fmt.Errorf("prserve: -cluster-node requires -data (the shared directory) and -cluster-self (this node's base URL)")
	}
	if keyed {
		return nil, fmt.Errorf("prserve: -keyed is not supported with -cluster-node (the cluster seeds a dense engine)")
	}
	var peers []string
	for _, p := range strings.Split(peersCSV, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	var seedN int
	var seedEdges []dfpr.Edge
	if in != "" || genClass != "" {
		src, err := loadOrGenerate(in, genClass, n, deg)
		if err != nil {
			return nil, err
		}
		seedN, seedEdges = src.N, src.Edges
	}
	// The join has its own bound: a replica keeps retrying the leader's feed
	// while the leader's listener comes up, but a misconfigured cluster must
	// not hang the process forever.
	jctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return dfpr.JoinCluster(jctx, dfpr.ClusterConfig{
		NodeID:    node,
		Dir:       data,
		SelfURL:   self,
		Peers:     peers,
		LeaseTTL:  ttl,
		Engine:    opts,
		SeedN:     seedN,
		SeedEdges: seedEdges,
		Logger:    logger,
	})
}

// openKeyed builds the -keyed serving engine: an open-universe dfpr.Open
// engine whose graph arrives entirely through the keyed write path — from a
// keyed edge-list file, or synthesised v<id> keys over a generated graph.
// The engine owns the key→id compaction; prserve never sees a dense id.
func openKeyed(in, genClass string, n, deg int, opts []dfpr.Option) (*dfpr.Engine, int, int, error) {
	var kedges []dfpr.KeyEdge
	if in != "" {
		var err error
		if kedges, err = exutil.LoadKeyEdges(in); err != nil {
			return nil, 0, 0, err
		}
	} else {
		src, err := loadOrGenerate(in, genClass, n, deg)
		if err != nil {
			return nil, 0, 0, err
		}
		kedges = exutil.KeyEdges(src.Edges, func(u uint32) string { return fmt.Sprintf("v%d", u) })
	}
	eng, err := dfpr.Open(opts...)
	if err != nil {
		return nil, 0, 0, err
	}
	if _, err := eng.ApplyKeyed(context.Background(), nil, kedges); err != nil {
		eng.Close()
		return nil, 0, 0, err
	}
	return eng, eng.Keys(), len(kedges), nil
}

// loadOrGenerate resolves the serving graph: a file via -in (text, .mtx, or
// a binary CSR container — sniffed by magic), or a synthetic family via
// -gen.
func loadOrGenerate(in, genClass string, n, deg int) (*exutil.GraphSource, error) {
	if (in == "") == (genClass == "") {
		return nil, fmt.Errorf("prserve: exactly one of -in or -gen is required")
	}
	if in != "" {
		return exutil.LoadGraphSource(in)
	}
	var class gen.Class
	switch strings.ToLower(genClass) {
	case "web":
		class = gen.Web
	case "social":
		class = gen.Social
	case "road":
		class = gen.Road
	case "kmer":
		class = gen.KMer
	default:
		return nil, fmt.Errorf("prserve: unknown -gen class %q (web|social|road|kmer)", genClass)
	}
	d := gen.Spec{Name: genClass, Class: class, N: n, Deg: deg, Seed: genSeed}.Build()
	nv, edges := exutil.Flatten(d)
	return &exutil.GraphSource{N: nv, Edges: edges, Layout: "gen"}, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "prserve: "+format+"\n", args...)
	os.Exit(2)
}
