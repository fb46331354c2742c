package dfpr

import (
	"time"

	"dfpr/internal/core"
	"dfpr/internal/snapshot"
	"dfpr/internal/telemetry"
)

// This file wires the telemetry subsystem (internal/telemetry) into the
// engine. Every engine owns one registry, created at construction and shared
// with whatever sits on top (the serve layer registers its RED metrics on
// the same registry, so one /metrics scrape covers the whole stack).
//
// One source per number: a count lives in exactly one place and Stats,
// /v1/stats and /metrics all read it there. Counts of events are counters on
// engineMetrics, incremented where the event happens with lock-free 0-alloc
// calls; Stats reads their Value. State that already has a home — queue
// depth behind ingestMu, graph size behind the snapshot store, WAL sequence
// behind the log — is exported pull-style and read only at scrape time.

// engineMetrics holds the engine's hot-path instruments.
type engineMetrics struct {
	reg *telemetry.Registry

	submissions *telemetry.Counter // accepted Submit batches
	rejectFull  *telemetry.Counter // Submits bounced by the queue bound
	rejectSize  *telemetry.Counter // batches bounced by the universe bound
	applies     *telemetry.Counter // versions published through storeApply
	growEvents  *telemetry.Counter // publications that widened the universe

	ingestRounds    *telemetry.Counter // coalesced ingest rounds applied
	ingestCoalesced *telemetry.Counter // edits those rounds carried, after merge
	refreshes       *telemetry.Counter // incremental refreshes that advanced the ranks
	superseded      *telemetry.Counter // refreshes a newer published round canceled
	sweepBlocks     *telemetry.Counter // rank-sweep chunks dispatched, over every run
	frontierScanned *telemetry.Counter // frontier vertices the sweeps located, over every run
	// failovers counts writer promotions. It is registered with the
	// replication series (initReplicationTelemetry), before the engine
	// joins a cluster or follows a feed, and is nil on a standalone engine.
	failovers *telemetry.Counter

	rankSeconds    *telemetry.Histogram // successful rank refresh wall time
	publishSeconds *telemetry.Histogram // publish-to-ranked freshness lag
	walAppend      *telemetry.Histogram // WAL record append (durable only)
	walFsync       *telemetry.Histogram // WAL fsync (durable only)
	ckptSeconds    *telemetry.Histogram // checkpoint write (durable only)
}

// walBuckets resolve finer than the default latency buckets: an append is
// a buffered write (microseconds) and an fsync tens of micros to millis.
func walBuckets() []float64 { return telemetry.ExpBuckets(1e-5, 4, 10) }

// walFsyncHistogram get-or-creates the fsync latency series: openLog needs it
// for the log's fsync hook before the engine (and its instruments) exists.
func walFsyncHistogram(reg *telemetry.Registry) *telemetry.Histogram {
	return reg.Histogram("dfpr_wal_fsync_seconds",
		"WAL fsync latency (per Append under FsyncAlways, per flush otherwise).", walBuckets())
}

// Metrics returns the engine's telemetry registry. Mount
// Metrics().Handler() to expose it; layers above the engine register their
// own instruments on it so one scrape covers the stack.
func (e *Engine) Metrics() *telemetry.Registry { return e.met.reg }

// initTelemetry builds the engine's instruments and registers the
// pull-style views of state the engine already tracks. Called once from
// both constructors (newEngine and the recovery path) before the engine is
// visible to any other goroutine.
func (e *Engine) initTelemetry(reg *telemetry.Registry) {
	m := &engineMetrics{
		reg: reg,
		submissions: reg.Counter("dfpr_ingest_submissions_total",
			"Submit batches accepted into the ingest queue."),
		rejectFull: reg.Counter("dfpr_ingest_rejected_total",
			"Submit batches rejected before enqueue, by reason.",
			telemetry.L("reason", "queue_full")),
		rejectSize: reg.Counter("dfpr_ingest_rejected_total",
			"Submit batches rejected before enqueue, by reason.",
			telemetry.L("reason", "universe_bound")),
		applies: reg.Counter("dfpr_graph_applies_total",
			"Graph versions published (Apply calls, coalesced ingest rounds and replayed spans)."),
		growEvents: reg.Counter("dfpr_graph_grow_events_total",
			"Publications that widened the vertex universe."),
		ingestRounds: reg.Counter("dfpr_ingest_rounds_total",
			"Coalesced ingest rounds applied."),
		ingestCoalesced: reg.Counter("dfpr_ingest_coalesced_edits_total",
			"Edits applied through the ingest pipeline after coalescing."),
		refreshes: reg.Counter("dfpr_rank_refreshes_total",
			"Incremental rank refreshes completed."),
		superseded: reg.Counter("dfpr_rank_superseded_total",
			"RankImmediate refreshes canceled by a newer published round; the next refresh replays their span."),
		sweepBlocks: reg.Counter("dfpr_rank_sweep_block_scheduled_total",
			"Rank-sweep chunks dispatched by the chunk scheduler across all runs."),
		frontierScanned: reg.Counter("dfpr_rank_sweep_block_frontier_total",
			"Affected-frontier vertices located by the sorted word-at-a-time flag scans of the rank sweeps."),
		rankSeconds: reg.Histogram("dfpr_rank_refresh_seconds",
			"Wall time of successful rank refreshes that advanced the rank version, from taking the pending span to landing the ranks.", nil),
		publishSeconds: reg.Histogram("dfpr_publish_to_ranked_seconds",
			"Freshness lag from a version's publication to ranks covering it.", nil),
		walAppend: reg.Histogram("dfpr_wal_append_seconds",
			"WAL record append latency on the apply path.", walBuckets()),
		walFsync: walFsyncHistogram(reg),
		ckptSeconds: reg.Histogram("dfpr_checkpoint_seconds",
			"Durable checkpoint write duration.", telemetry.ExpBuckets(1e-3, 4, 8)),
	}
	e.met = m

	reg.GaugeFunc("dfpr_ingest_queue_edits",
		"Edits queued in the ingest pipeline, not yet drained into a round.",
		func() float64 {
			e.ingestMu.Lock()
			q := e.ingestEdits
			e.ingestMu.Unlock()
			return float64(q)
		})
	reg.GaugeFunc("dfpr_graph_bytes",
		"Resident bytes of the latest published graph snapshot's CSR arrays, by layout.",
		func() float64 { return float64(e.store.Current().G.Bytes()) },
		telemetry.L("layout", "plain"))
	reg.GaugeFunc("dfpr_graph_vertices",
		"Vertices in the latest published graph version.",
		func() float64 { return float64(e.store.Current().G.N()) })
	reg.GaugeFunc("dfpr_graph_edges",
		"Directed edges (including dead-end self-loops) in the latest published graph version.",
		func() float64 { return float64(e.store.Current().G.M()) })
	reg.GaugeFunc("dfpr_graph_version",
		"Latest published graph version.",
		func() float64 { return float64(e.store.Current().Seq) })
	reg.GaugeFunc("dfpr_rank_version",
		"Graph version the latest published ranks correspond to.",
		func() float64 {
			if v := e.latest.Load(); v != nil {
				return float64(v.seq)
			}
			return 0
		})
}

// initDurabilityTelemetry registers the pull-style durability gauges. Called
// by the durable constructors after e.dur is set.
func (e *Engine) initDurabilityTelemetry() {
	d := e.durable()
	reg := e.met.reg
	reg.GaugeFunc("dfpr_wal_degraded",
		"1 while the WAL is in its sticky degraded state (running volatile), else 0.",
		func() float64 {
			if d.log.Degraded() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dfpr_wal_seq",
		"Last WAL record sequence appended or recovered.",
		func() float64 { return float64(d.log.Stats().Seq) })
	reg.GaugeFunc("dfpr_checkpoint_seq",
		"Sequence of the newest durable checkpoint.",
		func() float64 { return float64(d.log.Stats().CheckpointSeq) })
	// Write amplification is the ratio of these two: the byte rule keeps
	// checkpoint bytes past the seed at most the WAL's.
	reg.CounterFunc("dfpr_wal_bytes_total",
		"WAL record bytes appended by this process.",
		func() float64 { return float64(d.log.Stats().WALBytes) })
	reg.CounterFunc("dfpr_checkpoint_bytes_total",
		"Checkpoint file bytes written by this process, the seed checkpoint included.",
		func() float64 { return float64(d.log.Stats().CheckpointBytes) })
	reg.GaugeFunc("dfpr_recovering",
		"1 while published ranks still trail the tail replayed at warm restart, else 0.",
		func() float64 {
			if d.recovering.Load() {
				return 1
			}
			return 0
		})
}

// notePublished records one publication: the applies counter and a grow
// event when the universe widened.
func (m *engineMetrics) notePublished(nBefore, nAfter int) {
	m.applies.Inc()
	if nAfter > nBefore {
		m.growEvents.Inc()
	}
}

// noteRun counts one rank run's sweep work. Failed runs count too: their
// sweeps happened.
func (m *engineMetrics) noteRun(res core.Result) {
	m.sweepBlocks.Add(uint64(res.SweepBlocks))
	m.frontierScanned.Add(uint64(res.FrontierScanned))
}

// noteRanked times the ranker's last landing: from the publication of the
// oldest version it covers (snapshot.Ranker.Oldest) to now. A landing
// covers exactly the versions published since the one before it, so each
// version is timed by the landing that covers it, however many it spans.
func (m *engineMetrics) noteRanked(rk *snapshot.Ranker) {
	if at := rk.Oldest(); !at.IsZero() {
		m.publishSeconds.Observe(time.Since(at).Seconds())
	}
}
