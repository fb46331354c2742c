package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"dfpr/internal/graph"
)

// Correctness checks: what the program serves against the harness's own
// mirror of the writes it acknowledged.

func sampleVertices(n, k int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed ^ 0xc4ec))
	out := make([]uint32, min(k, n))
	for i := range out {
		out[i] = uint32(rng.Intn(n))
	}
	return out
}

// fetchNamed reads the scores of the top 1000 and of the named vertices,
// pinned to version pin when it is not 0. It returns the scores by name and
// the one rank version every reply came from.
func fetchNamed(srv *server, ctl *conn, names []string, keyed bool, pin uint64) (map[string]float64, uint64, error) {
	out := make(map[string]float64, len(names)+1000)
	var version uint64
	note := func(v uint64) error {
		if version != 0 && v != version {
			return fmt.Errorf("%s answered from rank versions %d and %d while idle", srv.name, version, v)
		}
		version = v
		return nil
	}
	r, err := ctl.do(context.Background(), "GET", srv.base+"/v1/topk?k=1000", nil, pin)
	if err := checkStatus(r, err, 200); err != nil {
		return nil, 0, fmt.Errorf("%s topk: %w", srv.name, err)
	}
	var t topkReply
	if err := json.Unmarshal(r.Body, &t); err != nil {
		return nil, 0, err
	}
	if err := note(t.Version); err != nil {
		return nil, 0, err
	}
	for _, en := range t.Entries {
		name := en.Key
		if !keyed {
			name = strconv.FormatUint(uint64(en.Vertex), 10)
		}
		if en.Score == nil {
			return nil, 0, fmt.Errorf("%s topk entry %s carries no score", srv.name, name)
		}
		out[name] = *en.Score
	}
	for _, name := range names {
		r, err := ctl.do(context.Background(), "GET", srv.base+"/v1/rank/"+name, nil, pin)
		if err := checkStatus(r, err, 200); err != nil {
			return nil, 0, fmt.Errorf("%s rank %s: %w", srv.name, name, err)
		}
		var rr rankReply
		if err := json.Unmarshal(r.Body, &rr); err != nil || rr.Score == nil {
			return nil, 0, fmt.Errorf("%s rank %s carries no score: %s", srv.name, name, r.Body)
		}
		if err := note(rr.Version); err != nil {
			return nil, 0, err
		}
		out[name] = *rr.Score
	}
	return out, version, nil
}

// fetchScores is fetchNamed for a dense-id server, keyed by vertex id.
func fetchScores(srv *server, ctl *conn, verts []uint32, pin uint64) (map[uint32]float64, error) {
	names := make([]string, len(verts))
	for i, u := range verts {
		names[i] = strconv.FormatUint(uint64(u), 10)
	}
	byName, _, err := fetchNamed(srv, ctl, names, false, pin)
	if err != nil {
		return nil, err
	}
	out := make(map[uint32]float64, len(byName))
	for nm, s := range byName {
		u, err := strconv.ParseUint(nm, 10, 32)
		if err != nil {
			return nil, err
		}
		out[uint32(u)] = s
	}
	return out, nil
}

// appliedBatch is one acknowledged write in dense ids, with the client
// sample that carried it.
type appliedBatch struct {
	editBatch
	sample sample
}

// keyMirror is the harness's copy of a keyed server's graph. A keyed server
// interns keys in first-mention order, and with two connections the harness
// cannot know that order for new keys; PageRank does not depend on the
// numbering, so the mirror numbers vertices in its own first-mention order
// and every comparison goes through the keys.
type keyMirror struct {
	initial *graph.Dynamic
	ids     map[string]uint32
	keys    []string
}

func (m *keyMirror) intern(k string) uint32 {
	if id, ok := m.ids[k]; ok {
		return id
	}
	id := uint32(len(m.keys))
	m.ids[k] = id
	m.keys = append(m.keys, k)
	return id
}

// keyedMirror compacts the initial graph the way a keyed load does (only
// mentioned vertices exist) and converts the acknowledged keyed batches of
// version ≤ upTo to the mirror's ids, in version order.
func keyedMirror(d *graph.Dynamic, sched []keyedBatch, ss []sample, upTo uint64) (*keyMirror, []appliedBatch) {
	m := &keyMirror{ids: map[string]uint32{}}
	var edges []graph.Edge
	for u := uint32(0); int(u) < d.N(); u++ {
		for _, v := range d.Out(u) {
			edges = append(edges, graph.Edge{U: m.intern(vkey(u)), V: m.intern(vkey(v))})
		}
	}
	m.initial = graph.NewDynamic(len(m.keys))
	for _, e := range edges {
		m.initial.AddEdge(e.U, e.V)
	}
	var ws []sample
	for _, s := range ss {
		if writeClass(s) && s.OK && s.Version <= upTo {
			ws = append(ws, s)
		}
	}
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].Version < ws[b].Version })
	applied := make([]appliedBatch, len(ws))
	for i, s := range ws {
		kb := sched[s.Batch]
		ab := appliedBatch{sample: s}
		for _, e := range kb.Del {
			ab.Del = append(ab.Del, graph.Edge{U: m.intern(e.From), V: m.intern(e.To)})
		}
		for _, e := range kb.Ins {
			ab.Ins = append(ab.Ins, graph.Edge{U: m.intern(e.From), V: m.intern(e.To)})
		}
		applied[i] = ab
	}
	return m, applied
}

// replay applies batches to a copy of the initial graph, growing it for the
// vertices new keys brought, and returns the CSR the engine would hold.
func replay(initial *graph.Dynamic, applied []appliedBatch, n int) *graph.CSR {
	d := initial.Clone()
	d.Grow(n)
	for _, ab := range applied {
		d.Apply(ab.Del, ab.Ins)
	}
	d.EnsureSelfLoops()
	return d.Snapshot()
}

// checkKeyedServer compares the keyed server with the mirror at the version
// its ranks stopped at. The ingest loop acknowledges a round before it runs
// the refresh that round triggered, so one refresh may still land after the
// last reply: /v1/stats and the reads are taken again until all of them came
// from one rank version. Nothing is queued behind that refresh, so the second
// attempt already finds an idle server; the third is margin.
func checkKeyedServer(res *result, srv *server, ctl *conn, d *graph.Dynamic, sched []keyedBatch, ss []sample, seed int64) {
	var (
		st     stats
		m      *keyMirror
		final  *graph.CSR
		byName map[string]float64
		err    error
	)
	for attempt := 0; attempt < 3; attempt++ {
		if st, err = srv.stats(ctl); err != nil {
			break
		}
		var applied []appliedBatch
		m, applied = keyedMirror(d, sched, ss, st.RankVersion)
		final = replay(m.initial, applied, len(m.keys))
		var names []string
		for _, u := range sampleVertices(len(m.keys), 256, seed) {
			names = append(names, m.keys[u])
		}
		var version uint64
		if byName, version, err = fetchNamed(srv, ctl, names, true, 0); err == nil && version != st.RankVersion {
			err = fmt.Errorf("reads came from rank version %d, /v1/stats said %d", version, st.RankVersion)
		}
		if err == nil {
			break
		}
	}
	if err != nil {
		res.problem("%v", err)
		return
	}
	if st.Vertices != final.N() || st.Edges != final.M() {
		res.problem("at rank version %d the server holds %d vertices / %d edges; the mirror of acknowledged writes says %d / %d",
			st.RankVersion, st.Vertices, st.Edges, final.N(), final.M())
	}
	verts := make([]uint32, 0, len(byName))
	scores := make(map[uint32]float64, len(byName))
	for name, s := range byName {
		id, ok := m.ids[name]
		if !ok {
			res.problem("the server ranks key %q, which no acknowledged write named", name)
			return
		}
		verts = append(verts, id)
		scores[id] = s
	}
	linf := linfAgainstReference(final, func(u uint32) (float64, bool) { s, ok := scores[u]; return s, ok }, verts)
	res.ratio("core.linf_over_tol", linf, tolerance)
	if linf > linfBudget*tolerance {
		res.problem("served ranks are %.3g from core.Reference, budget %g τ = %.3g", linf, linfBudget, linfBudget*tolerance)
	}
}
