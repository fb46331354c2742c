package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dfpr"
)

// keyedServer boots a keyed engine with a small social graph and wraps it
// in an httptest server.
func keyedServer(t *testing.T) (*dfpr.Engine, *httptest.Server) {
	t.Helper()
	eng, err := dfpr.Open(dfpr.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	_, err = eng.ApplyKeyed(context.Background(), nil, []dfpr.KeyEdge{
		{From: "alice", To: "bob"},
		{From: "bob", To: "carol"},
		{From: "carol", To: "alice"},
		{From: "dave", To: "alice"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return eng, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestRankByKey(t *testing.T) {
	_, ts := keyedServer(t)
	var got struct {
		Vertex  uint32  `json:"vertex"`
		Key     string  `json:"key"`
		Score   float64 `json:"score"`
		Version uint64  `json:"version"`
	}
	if code := getJSON(t, ts.URL+"/v1/rank/alice", &got); code != http.StatusOK {
		t.Fatalf("rank/alice = %d", code)
	}
	if got.Key != "alice" || got.Vertex != 0 || got.Score <= 0 {
		t.Fatalf("rank/alice = %+v", got)
	}
	// Unknown key is a 404, not a parse error.
	var e map[string]string
	if code := getJSON(t, ts.URL+"/v1/rank/mallory", &e); code != http.StatusNotFound {
		t.Fatalf("rank/mallory = %d", code)
	}
	// Dense opt-out still works on a keyed server, and — like topk/delta
	// under the same flag — stays dense: no key field.
	got.Key = "" // absent fields keep stale values through json decode
	if code := getJSON(t, ts.URL+"/v1/rank/1?ids=dense", &got); code != http.StatusOK {
		t.Fatalf("rank/1?ids=dense = %d", code)
	}
	if got.Vertex != 1 || got.Key != "" {
		t.Fatalf("dense rank = %+v (want no key)", got)
	}
}

func TestTopKAndDeltaKeyed(t *testing.T) {
	eng, ts := keyedServer(t)
	var top struct {
		K       int `json:"k"`
		Entries []struct {
			Vertex uint32  `json:"vertex"`
			Key    string  `json:"key"`
			Score  float64 `json:"score"`
		} `json:"entries"`
	}
	if code := getJSON(t, ts.URL+"/v1/topk?k=3", &top); code != http.StatusOK {
		t.Fatalf("topk = %d", code)
	}
	if top.K != 3 || top.Entries[0].Key == "" {
		t.Fatalf("topk = %+v", top)
	}
	if top.Entries[0].Key != "alice" {
		t.Errorf("top key %q, want alice", top.Entries[0].Key)
	}
	// Dense opt-out drops the key fields.
	var raw struct {
		Entries []map[string]any `json:"entries"`
	}
	if code := getJSON(t, ts.URL+"/v1/topk?k=2&ids=dense", &raw); code != http.StatusOK {
		t.Fatalf("dense topk = %d", code)
	}
	if _, hasKey := raw.Entries[0]["key"]; hasKey {
		t.Errorf("dense topk still carries keys: %v", raw.Entries[0])
	}

	// Grow through the keyed write path, then delta across the growth.
	if _, err := eng.ApplyKeyed(context.Background(), nil, []dfpr.KeyEdge{{From: "erin", To: "alice"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
	var delta struct {
		Movements []struct {
			Vertex uint32  `json:"vertex"`
			Key    string  `json:"key"`
			From   float64 `json:"from"`
			To     float64 `json:"to"`
		} `json:"movements"`
	}
	// The first published rank version is 1 (the batch that built the
	// graph); erin's growth landed in version 2.
	if code := getJSON(t, ts.URL+"/v1/delta?from=1", &delta); code != http.StatusOK {
		t.Fatalf("delta = %d", code)
	}
	var sawErin bool
	for _, m := range delta.Movements {
		if m.Key == "erin" {
			sawErin = true
			if m.From != 0 {
				t.Errorf("erin From = %g, want 0 (did not exist at version 1)", m.From)
			}
		}
	}
	if !sawErin {
		t.Errorf("delta across growth missing the new key: %+v", delta.Movements)
	}
}

func TestApplyKeyedEndpoint(t *testing.T) {
	eng, ts := keyedServer(t)
	body := `{"ins":[{"from":"frank","to":"alice"},{"from":"alice","to":"frank"}]}`
	resp, err := http.Post(ts.URL+"/v1/apply?wait=ranked", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed apply = %d", resp.StatusCode)
	}
	if _, ok := eng.Resolve("frank"); !ok {
		t.Fatal("apply did not intern frank")
	}
	var got struct {
		Score float64 `json:"score"`
	}
	if code := getJSON(t, ts.URL+"/v1/rank/frank", &got); code != http.StatusOK || got.Score <= 0 {
		t.Fatalf("rank/frank = %d, %+v", code, got)
	}

	// A batch mixing keyed and dense edges is rejected.
	mixed := `{"ins":[{"from":"x","to":"y"},{"u":0,"v":1}]}`
	resp2, err := http.Post(ts.URL+"/v1/apply", "application/json", strings.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed batch = %d, want 400", resp2.StatusCode)
	}

	// Stats reflect the key space.
	var st struct {
		Keyed bool `json:"keyed"`
		Keys  int  `json:"keys"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if !st.Keyed || st.Keys != eng.Keys() {
		t.Fatalf("stats = %+v (engine keys %d)", st, eng.Keys())
	}
}

// TestApplyKeyedOnDenseEngine: keyed edges against a dense-ID engine are a
// client error, not an internment into nowhere.
func TestApplyKeyedOnDenseEngine(t *testing.T) {
	eng, err := dfpr.New(4, []dfpr.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Rank(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v1/apply", "application/json",
		strings.NewReader(`{"ins":[{"from":"a","to":"b"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("keyed apply on dense engine = %d, want 400", resp.StatusCode)
	}
}

// TestTopKClampedToUniverse: within the server cap, k beyond |V| costs and
// returns |V| entries — the response's K reports the clamp.
func TestTopKClampedToUniverse(t *testing.T) {
	_, ts := keyedServer(t)
	var top struct {
		K       int              `json:"k"`
		Entries []map[string]any `json:"entries"`
	}
	if code := getJSON(t, ts.URL+"/v1/topk?k=1000", &top); code != http.StatusOK {
		t.Fatalf("k at the cap = %d", code)
	}
	if top.K != 4 || len(top.Entries) != 4 {
		t.Fatalf("k clamp: K=%d entries=%d, want 4 (the universe)", top.K, len(top.Entries))
	}
	// Beyond the cap is still a 400.
	var e map[string]string
	if code := getJSON(t, ts.URL+"/v1/topk?k=1001", &e); code != http.StatusBadRequest {
		t.Fatalf("k beyond cap = %d, want 400", code)
	}
}
