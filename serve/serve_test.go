package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dfpr"
)

// testServer converges a small engine built with engOpts and wraps it; the
// graph is a ring plus a hub so top-k has structure.
func testServer(t *testing.T, engOpts ...dfpr.Option) (*Server, *dfpr.Engine) {
	t.Helper()
	const n = 64
	var edges []dfpr.Edge
	for u := 0; u < n; u++ {
		edges = append(edges, dfpr.Edge{U: uint32(u), V: uint32((u + 1) % n)})
		if u%4 == 0 {
			edges = append(edges, dfpr.Edge{U: uint32(u), V: 0}) // hub
		}
	}
	eng, err := dfpr.New(n, edges, append([]dfpr.Option{dfpr.WithThreads(2), dfpr.WithTolerance(1e-8)}, engOpts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
	s, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

// do issues one request against the handler and decodes the JSON body.
func do(t *testing.T, h http.Handler, method, target, body string, hdr map[string]string) (int, map[string]any, http.Header) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: body is not JSON: %v (%q)", method, target, err, w.Body.String())
	}
	return w.Code, out, w.Result().Header
}

func TestServeRankTopKStats(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()

	code, body, hdr := do(t, h, "GET", "/v1/rank/0", "", nil)
	if code != http.StatusOK {
		t.Fatalf("rank: %d %v", code, body)
	}
	if body["vertex"].(float64) != 0 || body["score"].(float64) <= 0 {
		t.Errorf("rank body %v", body)
	}
	if hdr.Get(VersionHeader) != "0" {
		t.Errorf("version header %q", hdr.Get(VersionHeader))
	}

	code, body, _ = do(t, h, "GET", "/v1/topk?k=5", "", nil)
	if code != http.StatusOK {
		t.Fatalf("topk: %d %v", code, body)
	}
	entries := body["entries"].([]any)
	if len(entries) != 5 || body["k"].(float64) != 5 {
		t.Fatalf("topk body %v", body)
	}
	// Vertex 0 is the hub: it must lead the board.
	first := entries[0].(map[string]any)
	if first["vertex"].(float64) != 0 {
		t.Errorf("top entry %v, want the hub 0", first)
	}
	prev := first["score"].(float64)
	for _, e := range entries[1:] {
		sc := e.(map[string]any)["score"].(float64)
		if sc > prev {
			t.Errorf("topk not descending: %v", entries)
		}
		prev = sc
	}

	code, body, _ = do(t, h, "GET", "/v1/stats", "", nil)
	if code != http.StatusOK || body["vertices"].(float64) != 64 {
		t.Fatalf("stats: %d %v", code, body)
	}
	if body["reads_served"].(float64) != 2 {
		t.Errorf("reads_served %v, want 2", body["reads_served"])
	}
}

func TestServeErrors(t *testing.T) {
	// One rank view retained: a ranked write evicts version 0, so it is a
	// version that existed and is Gone, while 77 lies ahead and is waited
	// for — briefly, on this server.
	s, _ := testServer(t, dfpr.WithHistory(1))
	s.opts.maxWait = 50 * time.Millisecond
	h := s.Handler()
	if code, body, _ := do(t, h, "POST", "/v1/apply?wait=ranked", `{"ins":[{"u":1,"v":5}]}`, nil); code != http.StatusOK {
		t.Fatalf("apply: %d %v", code, body)
	}
	cases := []struct {
		method, target, body string
		want                 int
	}{
		{"GET", "/v1/rank/999", "", http.StatusNotFound},
		{"GET", "/v1/rank/notanumber", "", http.StatusBadRequest},
		{"GET", "/v1/topk?k=0", "", http.StatusBadRequest},
		{"GET", "/v1/topk?k=99999999", "", http.StatusBadRequest},
		{"GET", "/v1/delta?from=notanumber", "", http.StatusBadRequest},
		{"GET", "/v1/delta?from=0", "", http.StatusGone},
		{"GET", "/v1/delta?from=1&to=0", "", http.StatusGone},
		{"GET", "/v1/delta?from=77", "", http.StatusGatewayTimeout},
		{"GET", "/v1/delta?from=1&to=77", "", http.StatusGatewayTimeout},
		{"GET", "/v1/delta?from=1&limit=-1", "", http.StatusBadRequest},
		{"POST", "/v1/apply", "{", http.StatusBadRequest},
		{"POST", "/v1/apply", `{"del":[],"ins":[]}`, http.StatusBadRequest},
		{"POST", "/v1/apply", `{"nonsense":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body, _ := do(t, h, tc.method, tc.target, tc.body, nil)
		if code != tc.want {
			t.Errorf("%s %s: %d (%v), want %d", tc.method, tc.target, code, body, tc.want)
		}
		if body["error"] == "" {
			t.Errorf("%s %s: error body missing", tc.method, tc.target)
		}
	}
}

func TestServeApplyDeltaAndVersionPinning(t *testing.T) {
	s, eng := testServer(t)
	h := s.Handler()

	// Remember the hub's score at version 0, then reroute the spokes.
	_, rank0, _ := do(t, h, "GET", "/v1/rank/0", "", nil)
	var b strings.Builder
	b.WriteString(`{"del":[`)
	for i, u := range []int{4, 8, 12, 16} {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"u":%d,"v":0}`, u)
	}
	b.WriteString(`],"ins":[`)
	for i, u := range []int{4, 8, 12, 16} {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"u":%d,"v":32}`, u)
	}
	b.WriteString(`]}`)
	// wait=ranked makes the write read-your-ranks: 200 with ranks covering
	// the assigned version, so the pinned reads below are deterministic.
	code, body, _ := do(t, h, "POST", "/v1/apply?wait=ranked", b.String(), nil)
	if code != http.StatusOK {
		t.Fatalf("apply: %d %v", code, body)
	}
	if body["version"].(float64) != 1 || body["rank_version"].(float64) < 1 || body["ranked"].(bool) != true {
		t.Fatalf("apply body %v", body)
	}

	// Unpinned read serves the new version; pinned read serves version 0.
	code, now, hdr := do(t, h, "GET", "/v1/rank/0", "", nil)
	if code != http.StatusOK || hdr.Get(VersionHeader) != "1" {
		t.Fatalf("post-apply rank: %d %v %v", code, now, hdr)
	}
	if now["score"].(float64) >= rank0["score"].(float64) {
		t.Errorf("hub score did not drop after losing spokes: %v → %v", rank0["score"], now["score"])
	}
	code, pinned, hdr := do(t, h, "GET", "/v1/rank/0", "", map[string]string{VersionHeader: "0"})
	if code != http.StatusOK || hdr.Get(VersionHeader) != "0" {
		t.Fatalf("pinned rank: %d %v %v", code, pinned, hdr)
	}
	if pinned["score"].(float64) != rank0["score"].(float64) {
		t.Errorf("pinned read drifted: %v vs %v", pinned["score"], rank0["score"])
	}
	// A pin ahead of anything ranked here is a watermark, not a miss: the
	// read parks until the version arrives (read-your-ranks through any
	// node) and 504s server-side when it never does. A short-wait server
	// over the same engine keeps the park testable.
	sw, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	sw.opts.maxWait = 50 * time.Millisecond
	if code, _, _ := do(t, sw.Handler(), "GET", "/v1/topk", "", map[string]string{VersionHeader: "7"}); code != http.StatusGatewayTimeout {
		t.Errorf("read pinned to a future version: %d, want 504", code)
	}
	if code, _, _ := do(t, h, "GET", "/v1/topk", "", map[string]string{VersionHeader: "x"}); code != http.StatusBadRequest {
		t.Errorf("read pinned to garbage: %d, want 400", code)
	}

	// Delta between the two retained versions: the hub and the rerouted
	// target must both appear.
	code, delta, _ := do(t, h, "GET", "/v1/delta?from=0&to=1", "", nil)
	if code != http.StatusOK {
		t.Fatalf("delta: %d %v", code, delta)
	}
	moves := delta["movements"].([]any)
	if len(moves) == 0 {
		t.Fatal("delta reported no movements after a reroute")
	}
	seen := map[float64]bool{}
	for _, m := range moves {
		mm := m.(map[string]any)
		seen[mm["vertex"].(float64)] = true
		if mm["from"].(float64) == mm["to"].(float64) {
			t.Errorf("movement without movement: %v", mm)
		}
	}
	if !seen[0] || !seen[32] {
		t.Errorf("delta missing the reroute endpoints: %v", moves)
	}
	// limit trims to the biggest movers.
	_, limited, _ := do(t, h, "GET", "/v1/delta?from=0&to=1&limit=2", "", nil)
	if lm := limited["movements"].([]any); len(lm) != 2 {
		t.Errorf("limited delta returned %d movements", len(lm))
	}
}

// TestServeDeltaWaitsForAheadVersion pins /v1/delta's watermark rule: a to
// this node has not ranked yet parks the request instead of answering Gone,
// and the write that lands and is ranked releases it with the exact delta.
func TestServeDeltaWaitsForAheadVersion(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	type reply struct {
		code int
		body map[string]any
	}
	done := make(chan reply, 1)
	go func() {
		req := httptest.NewRequest("GET", "/v1/delta?from=0&to=1", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var out map[string]any
		_ = json.Unmarshal(w.Body.Bytes(), &out)
		done <- reply{w.Code, out}
	}()
	select {
	case r := <-done:
		t.Fatalf("delta to an unranked version answered %d %v before any write landed", r.code, r.body)
	case <-time.After(100 * time.Millisecond):
	}
	if code, body, _ := do(t, h, "POST", "/v1/apply?wait=ranked", `{"del":[{"u":4,"v":0}],"ins":[{"u":4,"v":32}]}`, nil); code != http.StatusOK {
		t.Fatalf("apply: %d %v", code, body)
	}
	select {
	case r := <-done:
		if r.code != http.StatusOK || r.body["from"].(float64) != 0 || r.body["to"].(float64) != 1 {
			t.Fatalf("parked delta: %d %v, want 200 from 0 to 1", r.code, r.body)
		}
		if len(r.body["movements"].([]any)) == 0 {
			t.Error("parked delta reported no movements after a reroute")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked delta not released by the ranked write")
	}
}

func TestServeGracefulDrain(t *testing.T) {
	s, _ := testServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()

	// A real request over the listener, then a drain.
	resp, err := http.Get("http://" + l.Addr().String() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// Shutdown without a listener is a no-op.
	empty, err := New(mustEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Shutdown(context.Background()); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
}

// TestServeApplyRefreshFailureIs5xx arms a crash-everything fault plan: the
// batch is accepted and published, so a read-your-ranks apply whose refresh
// keeps failing must surface as a server error (5xx, never 4xx) and the
// write must still be counted.
func TestServeApplyRefreshFailureIs5xx(t *testing.T) {
	const n = 32
	var edges []dfpr.Edge
	for u := 0; u < n; u++ {
		edges = append(edges, dfpr.Edge{U: uint32(u), V: uint32((u + 1) % n)})
	}
	eng, err := dfpr.New(n, edges,
		dfpr.WithThreads(2), dfpr.WithTolerance(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetFaultPlan(dfpr.FaultPlan{CrashWorkers: dfpr.CrashSet(2, 2), Seed: 5}); err != nil {
		t.Fatal(err)
	}
	s, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	s.opts.maxWait = 100 * time.Millisecond
	code, body, _ := do(t, s.Handler(), "POST", "/v1/apply?wait=ranked", `{"ins":[{"u":1,"v":3}]}`, nil)
	if code < 500 || code >= 600 {
		t.Fatalf("failing refresh after accepted apply: %d (%v), want 5xx", code, body)
	}
	if eng.Version() != 1 {
		t.Fatalf("batch not published: version %d", eng.Version())
	}
	_, stats, _ := do(t, s.Handler(), "GET", "/v1/stats", "", nil)
	if stats["writes_accepted"].(float64) != 1 {
		t.Errorf("writes_accepted %v, want 1 (the batch was published)", stats["writes_accepted"])
	}
}

func TestServeOptionValidation(t *testing.T) {
	eng := mustEngine(t)
	for i, opt := range []Option{WithCluster(nil), WithLogger(nil)} {
		if _, err := New(eng, opt); err == nil {
			t.Errorf("bad option %d accepted", i)
		}
	}
}

// TestServeAsyncApplyDoesNotBlockOnRank is the acceptance pin for the
// asynchronous write path: with a rank policy that will not fire for these
// edits, POST /v1/apply must come back 202 with the assigned version while
// the engine is still visibly behind — the handler never ran a Rank.
func TestServeAsyncApplyDoesNotBlockOnRank(t *testing.T) {
	const n = 64
	var edges []dfpr.Edge
	for u := 0; u < n; u++ {
		edges = append(edges, dfpr.Edge{U: uint32(u), V: uint32((u + 1) % n)})
	}
	eng, err := dfpr.New(n, edges,
		dfpr.WithThreads(2), dfpr.WithTolerance(1e-8),
		dfpr.WithRankPolicy(dfpr.RankEveryN(1<<20))) // never fires for a handful of edits
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
	s, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	code, body, hdr := do(t, s.Handler(), "POST", "/v1/apply", `{"ins":[{"u":1,"v":5}]}`, nil)
	if code != http.StatusAccepted {
		t.Fatalf("async apply: %d %v, want 202", code, body)
	}
	if body["version"].(float64) != 1 || body["ranked"].(bool) != false || body["rank_version"].(float64) != 0 {
		t.Fatalf("async apply body %v", body)
	}
	if hdr.Get(VersionHeader) != "0" {
		t.Errorf("async apply served rank version %q, want the still-current 0", hdr.Get(VersionHeader))
	}
	if eng.Behind() == 0 {
		t.Fatal("engine not behind after async apply: the handler must have ranked")
	}
	// The wait endpoint observes the applied watermark without a rank…
	code, wbody, _ := do(t, s.Handler(), "GET", "/v1/wait/1?for=applied", "", nil)
	if code != http.StatusOK || wbody["version"].(float64) != 1 {
		t.Fatalf("wait for=applied: %d %v", code, wbody)
	}
	// …and stats expose the write-side gauges.
	_, stats, _ := do(t, s.Handler(), "GET", "/v1/stats", "", nil)
	if stats["ingest_rounds"].(float64) < 1 || stats["behind"].(float64) != 1 {
		t.Errorf("stats after async apply: %v", stats)
	}
	if _, ok := stats["ingest_queue_depth"]; !ok {
		t.Error("stats missing ingest_queue_depth")
	}
	if stats["rank_version"].(float64) != 0 || stats["ready"].(bool) != true {
		t.Errorf("stats readiness fields: %v", stats)
	}
	// Shutdown (no listener) still flushes the queue: afterwards the engine
	// is caught up.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown flush: %v", err)
	}
	if eng.Behind() != 0 {
		t.Errorf("behind=%d after drain flush", eng.Behind())
	}
}

// TestServeApplyWaitRanked covers the read-your-ranks form on a default
// engine (immediate policy): 200, ranked true, rank_version ≥ version.
func TestServeApplyWaitRanked(t *testing.T) {
	s, eng := testServer(t)
	code, body, _ := do(t, s.Handler(), "POST", "/v1/apply?wait=ranked", `{"ins":[{"u":2,"v":9}]}`, nil)
	if code != http.StatusOK {
		t.Fatalf("apply wait=ranked: %d %v", code, body)
	}
	if body["ranked"].(bool) != true || body["rank_version"].(float64) < body["version"].(float64) {
		t.Fatalf("apply wait=ranked body %v", body)
	}
	if eng.Behind() != 0 {
		t.Errorf("behind=%d after ranked apply", eng.Behind())
	}
	// /v1/wait for the ranked watermark answers immediately once covered.
	code, wbody, _ := do(t, s.Handler(), "GET", "/v1/wait/1", "", nil)
	if code != http.StatusOK || wbody["for"].(string) != "ranked" || wbody["rank_version"].(float64) < 1 {
		t.Fatalf("wait ranked: %d %v", code, wbody)
	}
	if code, _, _ := do(t, s.Handler(), "GET", "/v1/wait/notanumber", "", nil); code != http.StatusBadRequest {
		t.Errorf("malformed wait seq: %d", code)
	}
	if code, _, _ := do(t, s.Handler(), "GET", "/v1/wait/1?for=nonsense", "", nil); code != http.StatusBadRequest {
		t.Errorf("unknown wait target: %d", code)
	}
}

// TestServeWaitTimeout pins the server-side wait cap: a watermark that will
// never be reached answers 504 after maxWait, not a hang.
func TestServeWaitTimeout(t *testing.T) {
	eng := mustEngine(t)
	s, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	s.opts.maxWait = 50 * time.Millisecond
	start := time.Now()
	code, body, _ := do(t, s.Handler(), "GET", "/v1/wait/999", "", nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("unreachable wait: %d %v, want 504", code, body)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("wait cap did not bound the request: %v", took)
	}
}

func TestServeHealthz(t *testing.T) {
	// Before ranks exist: alive but not ready.
	eng, err := dfpr.New(8, []dfpr.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	code, body, _ := do(t, s.Handler(), "GET", "/v1/healthz", "", nil)
	if code != http.StatusOK || body["status"].(string) != "ok" || body["ready"].(bool) != false {
		t.Fatalf("healthz before ranks: %d %v", code, body)
	}
	if _, err := eng.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, body, _ = do(t, s.Handler(), "GET", "/v1/healthz", "", nil)
	if code != http.StatusOK || body["ready"].(bool) != true {
		t.Fatalf("healthz after ranks: %d %v", code, body)
	}
}

// TestServeNoRanksYet hits a server whose engine has not ranked.
func TestServeNoRanksYet(t *testing.T) {
	eng, err := dfpr.New(8, []dfpr.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	code, body, _ := do(t, s.Handler(), "GET", "/v1/rank/0", "", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("rank before Rank: %d %v", code, body)
	}
}

func mustEngine(t *testing.T) *dfpr.Engine {
	t.Helper()
	eng, err := dfpr.New(8, []dfpr.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
	return eng
}
