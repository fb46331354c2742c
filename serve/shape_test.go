package serve

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"dfpr"
)

var updateShape = flag.Bool("update-shape", false, "rewrite testdata/shape.golden from the running code")

// TestStatsMetricsShapeGolden pins the names operators and scripts read: the
// /v1/stats key set with each key's JSON type, and the /metrics family set
// with each family's kind and label names, on every node kind — a volatile
// dense engine, a keyed one, a durable one, a StartReplica follower of it, a
// cluster writer, its replica, and that replica once promoted by a failover.
// Values are not pinned, only
// what appears. A deliberate change reruns with -update-shape and commits
// the new testdata/shape.golden.
func TestStatsMetricsShapeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a three-role cluster")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var got []string
	shape := func(kind, base string) {
		t.Helper()
		got = append(got, statsShape(t, kind, base)...)
		got = append(got, metricsShape(t, kind, base)...)
	}
	serveHTTP := func(s *Server) string {
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	applyRanked := func(base string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/apply?wait=ranked", "application/json", strings.NewReader(`{"ins":[{"u":1,"v":3}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("apply via %s: %d", base, resp.StatusCode)
		}
	}

	s, _ := testServer(t)
	vol := serveHTTP(s)
	applyRanked(vol)
	shape("volatile", vol)

	_, keyed := keyedServer(t)
	shape("keyed", keyed.URL)

	s, eng := durableServer(t, t.TempDir(), nil)
	dur := serveHTTP(s)
	applyRanked(dur)
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	shape("durable", dur)

	// A StartReplica follower of the durable engine: a replica with a fixed
	// leader and no election, so its stats carry no node_id or term.
	follower, err := dfpr.StartReplica(ctx, dur)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	fs, err := New(follower.Engine(), WithCluster(follower))
	if err != nil {
		t.Fatal(err)
	}
	fol := serveHTTP(fs)
	durVersion := float64(eng.Version())
	waitUntil(t, "follower catch-up", 15*time.Second, func() bool {
		var body map[string]any
		getJSON(t, fol+"/v1/stats", &body)
		return body["rank_version"] == durVersion && body["writer_seq"] == durVersion
	})
	shape("follower", fol)

	// A two-node cluster over one directory: node 0 takes the lease, node 1
	// streams its feed; halting node 0 promotes node 1.
	dir := t.TempDir()
	var ls []net.Listener
	var peers []string
	for range 2 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		ls = append(ls, l)
		peers = append(peers, "http://"+l.Addr().String())
	}
	join := func(i int) *dfpr.Cluster {
		t.Helper()
		c, err := dfpr.JoinCluster(ctx, dfpr.ClusterConfig{
			NodeID: fmt.Sprintf("node-%d", i), Dir: dir, SelfURL: peers[i], Peers: peers,
			LeaseTTL: 300 * time.Millisecond, SeedN: 8,
			SeedEdges: []dfpr.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 0}},
		})
		if err != nil {
			t.Fatalf("join node-%d: %v", i, err)
		}
		srv, err := New(c.Engine(), WithCluster(c))
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ls[i])
		return c
	}
	writer := join(0)
	t.Cleanup(func() { writer.Engine().Close() })
	if _, err := writer.Engine().Rank(ctx); err != nil {
		t.Fatal(err)
	}
	replica := join(1)
	t.Cleanup(func() { replica.Close() })
	applyRanked(peers[0])
	want := float64(writer.Engine().Version())
	waitUntil(t, "replica catch-up", 15*time.Second, func() bool {
		var body map[string]any
		getJSON(t, peers[1]+"/v1/stats", &body)
		return body["rank_version"] == want && body["writer_seq"] == want
	})
	if err := writer.Engine().Flush(ctx); err != nil {
		t.Fatal(err)
	}
	shape("writer", peers[0])
	shape("replica", peers[1])

	writer.Halt()
	ls[0].Close()
	waitUntil(t, "promotion", 15*time.Second, func() bool { return replica.Role() == dfpr.RoleWriter })
	applyRanked(peers[1])
	if err := replica.Engine().Flush(ctx); err != nil {
		t.Fatal(err)
	}
	shape("promoted", peers[1])

	sort.Strings(got)
	const golden = "testdata/shape.golden"
	if *updateShape {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for _, g := range diff(got, pinned) {
		t.Errorf("new on the wire, not in %s: %s", golden, g)
	}
	for _, w := range diff(pinned, got) {
		t.Errorf("in %s, gone from the wire: %s", golden, w)
	}
}

// diff returns the entries of sorted a missing from sorted b.
func diff(a, b []string) []string {
	var out []string
	for _, s := range a {
		if i := sort.SearchStrings(b, s); i == len(b) || b[i] != s {
			out = append(out, s)
		}
	}
	return out
}

// statsShape lists "kind stats key type" for every /v1/stats key.
func statsShape(t *testing.T, kind, base string) []string {
	t.Helper()
	var body map[string]any
	if code := getJSON(t, base+"/v1/stats", &body); code != http.StatusOK {
		t.Fatalf("%s stats: %d", kind, code)
	}
	var out []string
	for k, v := range body {
		typ := "null"
		switch v.(type) {
		case float64:
			typ = "number"
		case string:
			typ = "string"
		case bool:
			typ = "bool"
		case []any:
			typ = "array"
		case map[string]any:
			typ = "object"
		}
		out = append(out, fmt.Sprintf("%s stats %s %s", kind, k, typ))
	}
	return out
}

var (
	sampleName = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? `)
	labelName  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
)

// metricsShape lists "kind metrics family type labels" for every /metrics
// family, labels being the sorted union of its series' label names (le
// excluded; "-" for none).
func metricsShape(t *testing.T, kind, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	types := map[string]string{}
	labels := map[string]map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]], labels[f[2]] = f[3], map[string]bool{}
			continue
		}
		m := sampleName.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		fam := m[1]
		if _, ok := types[fam]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, cut := strings.CutSuffix(fam, suf); cut && types[base] == "histogram" {
					fam = base
				}
			}
		}
		for _, l := range labelName.FindAllStringSubmatch(m[2], -1) {
			if l[1] != "le" {
				labels[fam][l[1]] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var out []string
	for fam, typ := range types {
		var names []string
		for n := range labels[fam] {
			names = append(names, n)
		}
		sort.Strings(names)
		ln := "-"
		if len(names) > 0 {
			ln = strings.Join(names, ",")
		}
		out = append(out, fmt.Sprintf("%s metrics %s %s %s", kind, fam, typ, ln))
	}
	return out
}
