package main

import (
	"dfpr/internal/telemetry"
)

// Scrape source: the delta of the program's existing dfpr_* series between
// the start and the end of the timed window, read through the repo's own
// exposition parser. Nothing here adds an instrument to the program.

// counterDelta is after − before of one counter family summed over labels.
func counterDelta(before, after telemetry.Snapshot, name string) float64 {
	return after.Sum(name) - before.Sum(name)
}

// histDelta returns the count and the sum a histogram gained in the window.
func histDelta(before, after telemetry.Snapshot, name string, labels ...telemetry.Label) (count, sum float64) {
	c1, _ := after.Value(name+"_count", labels...)
	c0, _ := before.Value(name+"_count", labels...)
	s1, _ := after.Value(name+"_sum", labels...)
	s0, _ := before.Value(name+"_sum", labels...)
	return c1 - c0, s1 - s0
}

// histMean is the mean observation of the window, scaled (1e3 for ms).
func histMean(before, after telemetry.Snapshot, scale float64, name string, labels ...telemetry.Label) float64 {
	c, s := histDelta(before, after, name, labels...)
	if c == 0 {
		return 0
	}
	return s / c * scale
}

// handlerMeanUS is the program's own mean handler time for one endpoint.
func handlerMeanUS(before, after telemetry.Snapshot, endpoint string) float64 {
	return histMean(before, after, 1e6, "dfpr_http_request_seconds", telemetry.L("endpoint", endpoint))
}

// scrapeMetrics fills the per-layer names whose source is the scrape.
func scrapeMetrics(res *result, before, after telemetry.Snapshot, elapsed float64) {
	n, busy := histDelta(before, after, "dfpr_rank_refresh_seconds")
	if n > 0 {
		res.Layer["core.refresh_ms"] = busy / n * 1e3
		res.Samples["core.refresh_ms"] = int(n)
	}
	res.ratio("core.busy_share", busy, elapsed)
	res.Layer["snapshot.rebuilds"] = counterDelta(before, after, "dfpr_rank_rebuilds_total")
	bytes, _ := after.Value("dfpr_graph_bytes", telemetry.L("layout", "plain"))
	edges, _ := after.Value("dfpr_graph_edges")
	res.ratio("graph.bytes_per_edge", bytes, edges)

	subs := counterDelta(before, after, "dfpr_ingest_submissions_total")
	rounds := counterDelta(before, after, "dfpr_ingest_rounds_total")
	res.Layer["dfpr.submissions"] = subs
	res.Layer["dfpr.rounds"] = rounds
	res.ratio("dfpr.coalesce_ratio", subs, rounds)
	res.Layer["dfpr.rejected"] = counterDelta(before, after, "dfpr_ingest_rejected_total")
	res.Layer["dfpr.publish_to_ranked_ms"] = histMean(before, after, 1e3, "dfpr_publish_to_ranked_seconds")

	res.Layer["wal.append_us"] = histMean(before, after, 1e6, "dfpr_wal_append_seconds")
	res.Layer["wal.fsync_us"] = histMean(before, after, 1e6, "dfpr_wal_fsync_seconds")
	res.Layer["wal.fsyncs"], _ = histDelta(before, after, "dfpr_wal_fsync_seconds")
	if c, _ := histDelta(before, after, "dfpr_checkpoint_seconds"); c > 0 {
		res.Layer["wal.checkpoint_ms"] = histMean(before, after, 1e3, "dfpr_checkpoint_seconds")
	}
	res.Layer["serve.errors"] = counterDelta(before, after, "dfpr_http_errors_total")
}
