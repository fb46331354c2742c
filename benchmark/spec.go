package main

import (
	"runtime"
	"time"
)

// The names in this file are the contract later issues cite. BENCHMARK.json
// repeats them; TestNamesMatchManifest fails when the two drift apart.

// Workload names.
const (
	wStreamRank  = "stream-rank"
	wServeMixed  = "serve-mixed"
	wIngestBurst = "ingest-burst"
	wReplicaRead = "replica-read"
)

var workloadNames = []string{wStreamRank, wServeMixed, wIngestBurst, wReplicaRead}

// metricDef names one metric. Bound is the share of the parent's median by
// which the metric may get worse before -compare calls it a regression; the
// driver's gate uses the copy in BENCHMARK.json and only for endToEnd.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// endToEnd are the metrics every workload emits on an untraced run. The
// driver's contract wants each of them from each workload, never zero, and
// steady: over ten seeds the distance between the quartiles, as a share of
// the median, must stay under a third of the bound. So this list holds the
// request-level figures that all four workloads share and that met that
// (README.md has the calibration); the others are in requestLevel below.
// The bounds are as wide as the contract allows because the spreads on the
// 2-core sandbox are 4 to 7 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ranked_p50_ms", "ms", "lower", 0.25},
	{"edits_ranked_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// requestLevel are the request-level metrics of ISSUE 11 that exist on some
// workloads only, or whose run-to-run spread needs a bound above 0.25
// (apply_p50_ms: 0.17 on serve-mixed). They are measured on every run,
// printed in the report and judged by -compare with these bounds, but reach
// the driver as per-layer (informational) names, zero where the workload
// has no such request.
var requestLevel = []metricDef{
	{"apply_p50_ms", "ms", "lower", 0.15},          // all
	{"update_p50_ms", "ms", "lower", 0.15},         // stream-rank
	{"rank_p50_ms", "ms", "lower", 0.10},           // serve-mixed, replica-read
	{"rank_p99_ms", "ms", "lower", 0.15},           // serve-mixed, replica-read
	{"topk_p50_ms", "ms", "lower", 0.10},           // serve-mixed
	{"apply_p99_ms", "ms", "lower", 0.15},          // ingest-burst
	{"applies_per_s", "1/s", "higher", 0.10},       // ingest-burst
	{"restart_ready_s", "s", "lower", 0.15},        // serve-mixed
	{"replica_ranked_p50_ms", "ms", "lower", 0.15}, // replica-read
	{"failed_share", "ratio", "lower", 0.001},      // all; absolute bound
}

// layerMetrics are the 44 per-layer names, one group per package.
var layerMetrics = []metricDef{
	{"core.refresh_ms", "ms", "lower", 0},
	{"core.iterations", "count", "lower", 0},
	{"core.frontier_share", "ratio", "lower", 0},
	{"core.ns_per_edge", "ns", "lower", 0},
	{"core.dflf_over_ndlf", "ratio", "higher", 0},
	{"core.dflf_over_static", "ratio", "higher", 0},
	{"core.busy_share", "ratio", "lower", 0},
	{"core.linf_over_tol", "ratio", "lower", 0},
	{"snapshot.apply_self_ms", "ms", "lower", 0},
	{"snapshot.refresh_self_ms", "ms", "lower", 0},
	{"snapshot.rebuilds", "count", "lower", 0},
	{"graph.delta_merge_ms", "ms", "lower", 0},
	{"graph.bytes_per_edge", "B/edge", "lower", 0},
	{"batch.merge_us", "us", "lower", 0},
	{"keymap.intern_ns", "ns", "lower", 0},
	{"keymap.resolve_ns", "ns", "lower", 0},
	{"dfpr.submissions", "count", "higher", 0},
	{"dfpr.rounds", "count", "higher", 0},
	{"dfpr.coalesce_ratio", "ratio", "higher", 0},
	{"dfpr.rejected", "count", "lower", 0},
	{"dfpr.publish_to_ranked_ms", "ms", "lower", 0},
	{"dfpr.queue_wait_ms", "ms", "lower", 0},
	{"dfpr.unexplained_share", "ratio", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsync_us", "us", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.bytes_per_edit", "B/edit", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.replay_ms", "ms", "lower", 0},
	{"serve.rank_self_us", "us", "lower", 0},
	{"serve.topk_self_us", "us", "lower", 0},
	{"serve.apply_self_us", "us", "lower", 0},
	{"serve.net_us", "us", "lower", 0},
	{"serve.errors", "count", "lower", 0},
	{"topk.select_ms", "ms", "lower", 0},
	{"topk.warm_ns", "ns", "lower", 0},
	{"repl.bootstrap_ms", "ms", "lower", 0},
	{"repl.transit_ms", "ms", "lower", 0},
	{"repl.replica_apply_ms", "ms", "lower", 0},
	{"repl.feed_records_per_s", "1/s", "higher", 0},
	{"repl.failover_s", "s", "lower", 0},
	{"gio.load_ms", "ms", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// Fixed load shape. The 30 s windows of ISSUE 11 do not fit the driver's
// budget (92 runs in 3420 s), so the window is 15 s, the warm-up a fifth of
// it, and the graphs one or two RMAT scales smaller so that every median
// still rests on at least 20 samples and every p99 on at least 1000.
const (
	edgeFactor    = 16    // RMAT edges per vertex
	tolerance     = 1e-10 // τ, the engine default
	linfBudget    = 32.0  // correctness: served ranks within 32 τ of core.Reference
	insertShare   = 0.8   // 80 % insertions, 20 % deletions (the paper's §5 mix)
	readRate      = 400   // open-loop reads/s on connection R
	topkShare     = 0.2   // of reads
	replWriteRate = 8     // open-loop writes/s in replica-read
	mixedBatch    = 10    // edits per write in serve-mixed and replica-read
	burstBatch    = 64    // keyed edges per write in ingest-burst
	burstNewKeys  = 0.02  // share of ingest-burst insertions naming a new key
	burstConns    = 2     // closed-loop connections in ingest-burst
	rankEvery     = 1024  // ingest-burst rank policy: refresh every N edits (16 batches)
	burstHistory  = 16    // ingest-burst -history: one refresh's worth of versions
	history       = 8     // -history / WithHistory everywhere else
	restartCycles = 3     // kill -9 / restart cycles after serve-mixed
	probeRounds   = 8     // recorded rounds replayed through the layers
	readTimeout   = 30 * time.Second
)

// sizing is what -smoke shrinks.
type sizing struct {
	streamScale, mixedScale, burstScale, replScale int
	setups                                         int // set-ups per run; setup_s is their median
	probes                                         int // rounds replayed through the layers
}

func fullSizing() sizing {
	return sizing{streamScale: 16, mixedScale: 14, burstScale: 11, replScale: 13,
		setups: 3, probes: probeRounds}
}

func smokeSizing() sizing {
	return sizing{streamScale: 10, mixedScale: 10, burstScale: 10, replScale: 10,
		setups: 1, probes: 2}
}

// Retention. The engine keeps -history graph versions and as many rank
// views, and every view pins the chain of versions since the view before
// it. With the default of 64 the retained set is still growing when a 15 s
// window ends (64 × 9 MB on stream-rank; 64 views × 64 rounds ≈ 4096
// versions on ingest-burst), and on the sandbox this benchmark is sized for
// a page the guest touches for the first time costs about 4.7 s per GB, ten
// times a recycled one — so a run's timings would depend on how much memory
// earlier runs happened to leave backed. The workloads therefore run with a
// retention that reaches its plateau during the warm-up: 8 where ranks never
// trail by more than two versions, 16 with a refresh every 16 batches on
// ingest-burst (the incremental refresh needs its pending chain retained).

// serveThreads leaves a core to HTTP and the loader; streamThreads gives the
// kernels the box, because the stream-rank driver blocks while ranks run.
func serveThreads() int  { return max(1, runtime.NumCPU()-1) }
func streamThreads() int { return min(runtime.NumCPU(), 4) }
