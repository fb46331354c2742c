package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"dfpr"
	"dfpr/internal/telemetry"
)

// listenServe binds a loopback listener for a server and returns its base
// URL. The listener dies with the test; Shutdown is the caller's business.
func listenServe(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { l.Close() })
	return "http://" + l.Addr().String()
}

// engineLinf is the L∞ distance between two engines' latest views, which
// must name the same version over the same universe.
func engineLinf(t *testing.T, a, b *dfpr.Engine) float64 {
	t.Helper()
	va, err := a.View()
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	if va.Seq() != vb.Seq() || va.N() != vb.N() {
		t.Fatalf("views disagree: seq %d/%d, n %d/%d", va.Seq(), vb.Seq(), va.N(), vb.N())
	}
	var linf float64
	for u := uint32(0); int(u) < va.N(); u++ {
		sa, _ := va.ScoreOf(u)
		sb, _ := vb.ScoreOf(u)
		if d := math.Abs(sa - sb); d > linf {
			linf = d
		}
	}
	return linf
}

func waitUntil(t *testing.T, what string, timeout time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeClusterEquivalence is the end-to-end replication equivalence
// check over real listeners: a chaos-armed durable writer and two replicas,
// a churn workload POSTed through the writer AND through replica proxies,
// and at the end every replica's ranks equal the writer's within L∞ ≤
// 1e-12 while versioned reads through any replica are never stale.
func TestServeClusterEquivalence(t *testing.T) {
	ctx := context.Background()
	const n = 64
	var edges []dfpr.Edge
	for u := 0; u < n; u++ {
		edges = append(edges, dfpr.Edge{U: uint32(u), V: uint32((u + 1) % n)})
		if u%4 == 0 {
			edges = append(edges, dfpr.Edge{U: uint32(u), V: 0})
		}
	}
	// Writer and replicas replay different spans of the same stream, so at
	// tolerance τ they agree to ~2ατ/(1−α); τ = 1e-14 on both sides makes
	// the 1e-12 assertion hold by construction.
	tight := dfpr.WithTolerance(1e-14)
	// Delay faults fire inside the writer's refreshes (internal/fault via
	// the engine's fault plan): replication equivalence must hold under
	// scheduling noise, not just on the happy path.
	writer, err := dfpr.New(n, edges,
		dfpr.WithDurability(t.TempDir()), dfpr.WithThreads(4), tight)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { writer.Close() })
	if err := writer.SetFaultPlan(dfpr.FaultPlan{DelayProb: 5e-4, DelayDur: time.Millisecond, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	ws, err := New(writer)
	if err != nil {
		t.Fatal(err)
	}
	wbase := listenServe(t, ws)

	reps := make([]*dfpr.Cluster, 2)
	rbases := make([]string, 2)
	for i := range reps {
		rep, err := dfpr.StartReplica(ctx, wbase, tight)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		t.Cleanup(func() { rep.Close() })
		rs, err := New(rep.Engine(), WithCluster(rep))
		if err != nil {
			t.Fatal(err)
		}
		reps[i], rbases[i] = rep, listenServe(t, rs)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	post := func(base, body string) (int, http.Header, map[string]any) {
		t.Helper()
		resp, err := client.Post(base+"/v1/apply?wait=ranked", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("apply via %s: %v", base, err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header, decodeBody(t, resp)
	}

	// Churn: writes alternate between the writer's own URL and the two
	// replica proxies — the client cannot tell which node it hit.
	var lastVersion uint64
	for i := 0; i < 18; i++ {
		target := wbase
		if i%3 != 0 {
			target = rbases[i%2]
		}
		body := fmt.Sprintf(`{"ins":[{"u":%d,"v":%d}]}`, (i*7)%n, (i*13+5)%n)
		code, hdr, out := post(target, body)
		if code != http.StatusOK {
			t.Fatalf("churn write %d via %s: %d %v", i, target, code, out)
		}
		v := uint64(out["version"].(float64))
		if v != lastVersion+1 {
			t.Fatalf("churn write %d: version %d, want %d (one WAL record per batch)", i, v, lastVersion+1)
		}
		lastVersion = v
		if hdr.Get(VersionHeader) == "" {
			t.Fatalf("churn write %d: proxied response lost %s", i, VersionHeader)
		}
	}

	// Versioned read-your-ranks through every replica: pin the last write's
	// version; the answer must carry ranks at least that fresh, never stale.
	for i, base := range rbases {
		req, _ := http.NewRequest("GET", base+"/v1/rank/0", nil)
		req.Header.Set(VersionHeader, strconv.FormatUint(lastVersion, 10))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("versioned read via replica %d: %v", i, err)
		}
		out := decodeBody(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("versioned read via replica %d: %d %v", i, resp.StatusCode, out)
		}
		got, err := strconv.ParseUint(resp.Header.Get(VersionHeader), 10, 64)
		if err != nil || got < lastVersion {
			t.Fatalf("versioned read via replica %d served version %q, want ≥ %d", i, resp.Header.Get(VersionHeader), lastVersion)
		}
	}

	// Both replicas converge to the writer's exact ranks.
	for i, rep := range reps {
		eng := rep.Engine()
		waitUntil(t, fmt.Sprintf("replica %d catch-up", i), 15*time.Second, func() bool {
			v, err := eng.View()
			return err == nil && v.Seq() == lastVersion
		})
		if d := engineLinf(t, writer, eng); d > 1e-12 {
			t.Fatalf("replica %d diverges from the writer: L∞ = %g", i, d)
		}
	}

	// The role surface: the standalone writer's healthz still names it
	// writer, its feed gauge counts both streams, and a replica reports its
	// role and lag fields.
	get := func(url string) map[string]any {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return decodeBody(t, resp)
	}
	if hz := get(wbase + "/v1/healthz"); hz["role"] != "writer" {
		t.Fatalf("writer healthz role = %v", hz["role"])
	}
	mresp, err := client.Get(wbase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.ParseExposition(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("dfpr_repl_feed_connections"); !ok || v != 2 {
		t.Fatalf("writer feed_connections gauge = %v (present %v), want 2", v, ok)
	}
	if v, _ := snap.Value("dfpr_repl_feed_records_total"); v < float64(lastVersion) {
		t.Fatalf("feed_records_total = %v, want ≥ %d (every record streamed to each replica)", v, lastVersion)
	}
	hz := get(rbases[0] + "/v1/healthz")
	if hz["role"] != "replica" {
		t.Fatalf("replica healthz role = %v", hz["role"])
	}
	if _, ok := hz["replication_lag_seq"].(float64); !ok {
		t.Fatalf("replica healthz lacks replication_lag_seq: %v", hz)
	}
	stats := get(rbases[0] + "/v1/stats")
	if stats["role"] != "replica" || stats["leader_url"] != wbase {
		t.Fatalf("replica stats role=%v leader_url=%v, want replica/%s", stats["role"], stats["leader_url"], wbase)
	}

	// A replica served WITHOUT cluster info cannot proxy: the write bounces
	// with 421 and must not grow the replica's state.
	bare, err := New(reps[0].Engine())
	if err != nil {
		t.Fatal(err)
	}
	code, out, _ := do(t, bare.Handler(), "POST", "/v1/apply", `{"ins":[{"u":1,"v":2}]}`, nil)
	if code != http.StatusMisdirectedRequest {
		t.Fatalf("write on a bare replica: %d %v, want 421", code, out)
	}

	// The feed endpoint itself: live on the writer, 503 on a replica.
	resp, err := client.Get(rbases[1] + "/v1/feed")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("feed on a replica: %d, want 503", resp.StatusCode)
	}
}

// decodeBody decodes a JSON response body into a map.
func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out
}

// TestServeClusterFailover kills the writer of a three-node cluster (Halt:
// the in-process stand-in for kill -9 — the lease is NOT released) and
// asserts a replica promotes itself, resumes the WAL sequence, and keeps
// the whole serve surface working: writes through any surviving node land
// on the new leader, versioned reads follow the new watermark.
func TestServeClusterFailover(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	dir := t.TempDir()

	// Listeners first, so every node's SelfURL is known before any joins.
	type node struct {
		l   net.Listener
		url string
		c   *dfpr.Cluster
		s   *Server
	}
	nodes := make([]*node, 3)
	var peers []string
	for i := range nodes {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &node{l: l, url: "http://" + l.Addr().String()}
		peers = append(peers, nodes[i].url)
		t.Cleanup(func() { l.Close() })
	}
	join := func(i int) {
		t.Helper()
		c, err := dfpr.JoinCluster(ctx, dfpr.ClusterConfig{
			NodeID:   fmt.Sprintf("node-%d", i),
			Dir:      dir,
			SelfURL:  nodes[i].url,
			Peers:    peers,
			LeaseTTL: 500 * time.Millisecond,
			// τ = 1e-14 on every role: the promoted node and the survivor
			// replay different spans, so the 1e-12 check below needs it
			// (see TestServeClusterEquivalence).
			Engine: []dfpr.Option{dfpr.WithTolerance(1e-14)},
			SeedN:  16,
			SeedEdges: []dfpr.Edge{
				{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
				{U: 4, V: 0}, {U: 5, V: 0}, {U: 6, V: 4}, {U: 7, V: 4},
			},
		})
		if err != nil {
			t.Fatalf("join node-%d: %v", i, err)
		}
		s, err := New(c.Engine(), WithCluster(c))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].c, nodes[i].s = c, s
		go s.Serve(nodes[i].l)
	}
	join(0)
	if nodes[0].c.Role() != dfpr.RoleWriter {
		t.Fatalf("first joiner role %v, want writer", nodes[0].c.Role())
	}
	if _, err := nodes[0].c.Engine().Rank(ctx); err != nil {
		t.Fatal(err)
	}
	join(1)
	join(2)

	client := &http.Client{Timeout: 30 * time.Second}
	apply := func(base string, u, v int) (int, map[string]any) {
		t.Helper()
		body := fmt.Sprintf(`{"ins":[{"u":%d,"v":%d}]}`, u, v)
		resp, err := client.Post(base+"/v1/apply?wait=ranked", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("apply via %s: %v", base, err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, decodeBody(t, resp)
	}

	// Writes through a replica proxy land on the leader.
	code, out := apply(nodes[1].url, 8, 0)
	if code != http.StatusOK {
		t.Fatalf("proxied write: %d %v", code, out)
	}
	preFailover := uint64(out["version"].(float64))

	// Kill the writer: membership halts without releasing the lease, then
	// the listener drops. Halt fences the feed, so draining finishes.
	nodes[0].c.Halt()
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	nodes[0].s.Shutdown(dctx)
	dcancel()
	nodes[0].l.Close()

	var promoted, survivor *node
	waitUntil(t, "promotion", 30*time.Second, func() bool {
		for _, n := range nodes[1:] {
			if n.c.Role() == dfpr.RoleWriter {
				promoted = n
				return true
			}
		}
		return false
	})
	for _, n := range nodes[1:] {
		if n != promoted {
			survivor = n
		}
	}

	// The promoted node resumed the WAL sequence: the next write is exactly
	// preFailover+1, accepted through the SURVIVOR's proxy once it re-points
	// at the new leader.
	waitUntil(t, "survivor re-point", 30*time.Second, func() bool {
		return survivor.c.LeaderURL() == promoted.url
	})
	code, out = apply(survivor.url, 9, 0)
	if code != http.StatusOK {
		t.Fatalf("post-failover write via survivor: %d %v", code, out)
	}
	if v := uint64(out["version"].(float64)); v != preFailover+1 {
		t.Fatalf("post-failover version %d, want %d (WAL sequence must resume)", v, preFailover+1)
	}

	// Versioned read through the survivor at the new watermark: never stale.
	req, _ := http.NewRequest("GET", survivor.url+"/v1/rank/0", nil)
	req.Header.Set(VersionHeader, strconv.FormatUint(preFailover+1, 10))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versioned read after failover: %d", resp.StatusCode)
	}
	if got, _ := strconv.ParseUint(resp.Header.Get(VersionHeader), 10, 64); got < preFailover+1 {
		t.Fatalf("survivor served version %d, want ≥ %d", got, preFailover+1)
	}

	// The new leader's healthz says writer; the survivor's says replica.
	hz := func(base string) map[string]any {
		t.Helper()
		resp, err := client.Get(base + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return decodeBody(t, resp)
	}
	if role := hz(promoted.url)["role"]; role != "writer" {
		t.Fatalf("promoted healthz role %v", role)
	}
	if role := hz(survivor.url)["role"]; role != "replica" {
		t.Fatalf("survivor healthz role %v", role)
	}

	// Survivor converges on the post-failover state with identical ranks.
	peng, seng := promoted.c.Engine(), survivor.c.Engine()
	waitUntil(t, "survivor convergence", 30*time.Second, func() bool {
		v, err := seng.View()
		return err == nil && v.Seq() == preFailover+1
	})
	if d := engineLinf(t, peng, seng); d > 1e-12 {
		t.Fatalf("survivor diverges after failover: L∞ = %g", d)
	}

	for _, n := range nodes[1:] {
		if err := n.c.Close(); err != nil {
			t.Fatalf("close %s: %v", n.url, err)
		}
	}
	nodes[0].c.Engine().Close()
}
