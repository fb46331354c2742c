package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfpr"
	"dfpr/internal/telemetry"
)

// TestServeSoakUnderFaults is the end-to-end soak: a real listener, a
// chaos-armed engine (the paper's delay faults firing inside every refresh),
// and concurrent read/write traffic for a while. Afterwards it follows the
// repo's eventual-consistency test style — act, then wait until converged —
// and scrapes /metrics over HTTP to check that the exposition parses and
// that the counters tell the same story the client saw.
func TestServeSoakUnderFaults(t *testing.T) {
	const n = 256
	var edges []dfpr.Edge
	for u := 0; u < n; u++ {
		edges = append(edges, dfpr.Edge{U: uint32(u), V: uint32((u + 1) % n)})
		if u%8 == 0 {
			edges = append(edges, dfpr.Edge{U: uint32(u), V: 0})
		}
	}
	// Delay faults only: they stress the lock-free refresh without ever
	// failing it, so "zero 5xx responses" stays a hard invariant below.
	eng, err := dfpr.New(n, edges, dfpr.WithThreads(4), dfpr.WithTolerance(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.SetFaultPlan(dfpr.FaultPlan{DelayProb: 5e-4, DelayDur: time.Millisecond, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
	s, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	base := "http://" + l.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	loadFor := 1500 * time.Millisecond
	if testing.Short() {
		loadFor = 300 * time.Millisecond
	}
	deadline := time.Now().Add(loadFor)
	var (
		wg        sync.WaitGroup
		reads     atomic.Int64 // completed rank/topk requests
		accepted  atomic.Int64 // apply responses 200/202
		rejected  atomic.Int64 // apply responses 429 (backpressure)
		completed atomic.Int64 // every completed /v1 request, any status
		failures  atomic.Int64 // transport errors or unexpected statuses
	)
	get := func(url string) int {
		resp, err := client.Get(url)
		if err != nil {
			failures.Add(1)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		completed.Add(1)
		return resp.StatusCode
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for time.Now().Before(deadline) {
				var code int
				if rng.Intn(5) == 0 {
					code = get(base + "/v1/topk?k=10")
				} else {
					code = get(fmt.Sprintf("%s/v1/rank/%d", base, rng.Intn(n)))
				}
				if code == http.StatusOK {
					reads.Add(1)
				} else if code >= 500 || code == 0 {
					failures.Add(1)
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for time.Now().Before(deadline) {
				var b strings.Builder
				b.WriteString(`{"ins":[`)
				for i := 0; i < 4; i++ {
					if i > 0 {
						b.WriteString(",")
					}
					fmt.Fprintf(&b, `{"u":%d,"v":%d}`, rng.Intn(n), rng.Intn(n))
				}
				b.WriteString(`]}`)
				resp, err := client.Post(base+"/v1/apply", "application/json", strings.NewReader(b.String()))
				if err != nil {
					failures.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				completed.Add(1)
				switch {
				case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
					accepted.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					rejected.Add(1)
					time.Sleep(5 * time.Millisecond)
				default:
					failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d requests failed during the soak", failures.Load())
	}
	if reads.Load() == 0 || accepted.Load() == 0 {
		t.Fatalf("soak produced no traffic: reads=%d accepted=%d", reads.Load(), accepted.Load())
	}

	// Wait until converged: the queue drains and ranks cover the last
	// published version.
	waitDeadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Version     uint64 `json:"version"`
			RankVersion uint64 `json:"rank_version"`
			Behind      uint64 `json:"behind"`
			Ready       bool   `json:"ready"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Behind == 0 && st.Ready && st.RankVersion >= st.Version && st.Version > 0 {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("engine did not converge after the soak: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The RED counters increment after the handler returns, so the very last
	// responses a client saw may not be counted yet — poll until the scrape
	// catches up with the client-side tally instead of sleeping.
	want := float64(completed.Load())
	var snap telemetry.Snapshot
	for {
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
			t.Fatalf("scrape content type %q, want %q", ct, telemetry.ContentType)
		}
		snap, err = telemetry.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		if snap.Sum("dfpr_http_requests_total") >= want {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("http_requests_total stuck at %v, client completed %v",
				snap.Sum("dfpr_http_requests_total"), want)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Ingest truth: every accepted apply was exactly one submission, every
	// rejection was queue backpressure.
	if v, ok := snap.Value("dfpr_ingest_submissions_total"); !ok || v != float64(accepted.Load()) {
		t.Errorf("ingest_submissions_total=%v ok=%v, client saw %d accepted", v, ok, accepted.Load())
	}
	if v, _ := snap.Value("dfpr_ingest_rejected_total", telemetry.L("reason", "queue_full")); v != float64(rejected.Load()) {
		t.Errorf("rejected_total{queue_full}=%v, client saw %d 429s", v, rejected.Load())
	}
	// Batches coalesce, so published versions ≤ submissions — but every
	// publish is one apply, and each carried at least one edit.
	applies, _ := snap.Value("dfpr_graph_applies_total")
	version, _ := snap.Value("dfpr_graph_version")
	if applies != version || applies < 1 || applies > float64(accepted.Load()) {
		t.Errorf("applies=%v version=%v accepted=%d", applies, version, accepted.Load())
	}
	if v, _ := snap.Value("dfpr_ingest_coalesced_edits_total"); v < applies {
		t.Errorf("coalesced_edits_total=%v < applies=%v", v, applies)
	}
	// The dynamic refresh ran and its freshness histogram saw every publish.
	if v, _ := snap.Value("dfpr_rank_refreshes_total"); v < 1 {
		t.Errorf("rank_refreshes_total=%v", v)
	}
	if v, _ := snap.Value("dfpr_rank_refresh_seconds_count"); v < 1 {
		t.Errorf("rank_refresh_seconds_count=%v", v)
	}
	if v, _ := snap.Value("dfpr_publish_to_ranked_seconds_count"); v < 1 || v > applies {
		t.Errorf("publish_to_ranked_seconds_count=%v, applies=%v", v, applies)
	}
	// The blocked sweeps ran: every refresh dispatched scheduler chunks and
	// the dynamic variants scanned the affected frontier word-at-a-time.
	if v, _ := snap.Value("dfpr_rank_sweep_block_scheduled_total"); v < 1 {
		t.Errorf("rank_sweep_block_scheduled_total=%v, want ≥1 after ranked soak", v)
	}
	if v, _ := snap.Value("dfpr_rank_sweep_block_frontier_total"); v < 1 {
		t.Errorf("rank_sweep_block_frontier_total=%v, want ≥1 (dynamic refreshes scan the frontier)", v)
	}
	// The graph footprint gauge reports the live snapshot's CSR bytes.
	if v, ok := snap.Value("dfpr_graph_bytes", telemetry.L("layout", "plain")); !ok || v <= 0 {
		t.Errorf("graph_bytes{layout=plain}=%v ok=%v", v, ok)
	}
	// Delay faults never fail a request: the 5xx counters must all be zero.
	for _, ep := range []string{"rank", "topk", "apply", "stats"} {
		if v, _ := snap.Value("dfpr_http_errors_total",
			telemetry.L("endpoint", ep), telemetry.L("class", "5xx")); v != 0 {
			t.Errorf("endpoint %s served %v 5xx responses under delay faults", ep, v)
		}
	}
	// Per-endpoint traffic reached every route the soak exercised.
	for _, ep := range []string{"rank", "topk", "apply", "stats"} {
		if v, ok := snap.Value("dfpr_http_requests_total", telemetry.L("endpoint", ep)); !ok || v < 1 {
			t.Errorf("http_requests_total{endpoint=%q}=%v ok=%v", ep, v, ok)
		}
	}
	if v, _ := snap.Value("dfpr_serve_uptime_seconds"); v <= 0 {
		t.Errorf("serve_uptime_seconds=%v", v)
	}
	if v, _ := snap.Value("dfpr_serve_reads_total"); v < float64(reads.Load()) {
		t.Errorf("serve_reads_total=%v, client saw %d successful reads", v, reads.Load())
	}

	// The liveness surface carries the replication fields a failover script
	// reads: a standalone engine is trivially its own writer with zero lag,
	// and the fields must be present (not omitted) for it to parse.
	resp, err := client.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz["role"] != "writer" {
		t.Errorf("healthz role %v, want writer on a standalone engine", hz["role"])
	}
	if lag, ok := hz["replication_lag_seq"].(float64); !ok || lag != 0 {
		t.Errorf("healthz replication_lag_seq %v (present %v), want 0", hz["replication_lag_seq"], ok)
	}
}
