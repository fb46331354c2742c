package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dfpr/internal/graph"
	"dfpr/internal/telemetry"
)

// The three served workloads share one shape: set up (generate inputs,
// start prserve, wait until it serves ranks), warm up, run the traffic
// classes over the timed window, then run the workload's after-window legs
// (kill -9 and restart, failover) and the correctness checks.

type applyReply struct {
	Version     uint64 `json:"version"`
	RankVersion uint64 `json:"rank_version"`
}

type rankReply struct {
	Score   *float64 `json:"score"`
	Version uint64   `json:"version"`
}

type topkReply struct {
	Version uint64 `json:"version"`
	Entries []struct {
		Vertex uint32   `json:"vertex"`
		Key    string   `json:"key"`
		Score  *float64 `json:"score"`
	} `json:"entries"`
}

// readFire sends one scheduled read and judges the reply: a 2xx read of an
// existing vertex must carry a positive score, a top-k ten scored entries.
func readFire(c *conn, base string, rec *recorder, reads []readOp) func(int, time.Time) sample {
	return func(i int, _ time.Time) sample {
		op := reads[i]
		s := sample{Class: "rank", Op: nextOp(), Sent: time.Now()}
		if op.TopK {
			s.Class = "topk"
		}
		r, err := c.do(context.Background(), "GET", base+op.Path, nil, 0)
		s.Done, s.Ranked = r.Done, r.Version
		if err == nil && r.Status == 200 {
			if op.TopK {
				var t topkReply
				s.OK = json.Unmarshal(r.Body, &t) == nil && len(t.Entries) == 10
				for _, en := range t.Entries {
					s.OK = s.OK && en.Score != nil && *en.Score > 0
				}
			} else {
				var rr rankReply
				s.OK = json.Unmarshal(r.Body, &rr) == nil && rr.Score != nil && *rr.Score > 0
			}
		}
		rec.add("client."+s.Class, s.Op, s.Sent, s.Done)
		return s
	}
}

// postApply sends one apply body and fills the sample from the reply.
func postApply(c *conn, url string, body []byte, s *sample) {
	s.Sent = time.Now()
	r, err := c.do(context.Background(), "POST", url, body, 0)
	s.Done = r.Done
	var a applyReply
	if err == nil && (r.Status == 200 || r.Status == 202) && json.Unmarshal(r.Body, &a) == nil {
		s.OK, s.Version, s.Ranked = true, a.Version, a.RankVersion
	}
}

func dues(reads []readOp) []time.Duration {
	out := make([]time.Duration, len(reads))
	for i, r := range reads {
		out[i] = r.Due
	}
	return out
}

// phases fixes the run's clock: traffic begins at begin, the timed window is
// [start, end).
type phases struct{ begin, start, end time.Time }

func newPhases(e *env) phases {
	begin := time.Now().Add(20 * time.Millisecond)
	return phases{begin, begin.Add(e.warm), begin.Add(e.warm + e.window)}
}

func (p phases) elapsed() float64 { return p.end.Sub(p.start).Seconds() }

// observed is the part of the window the samples cover, in seconds: from
// the window's start to the last reply inside it. Rates divide by this
// measured span, not by the nominal window.
func (p phases) observed(ss []sample) float64 {
	last := p.start
	for _, s := range ss {
		if s.Done.After(last) && !s.Done.After(p.end) {
			last = s.Done
		}
	}
	if last.Equal(p.start) {
		return p.elapsed()
	}
	return last.Sub(p.start).Seconds()
}

// window runs the classes until the window ends and, on a traced run,
// scrapes every server at both edges of it.
func (p phases) window(e *env, ctl *conn, servers []*server, classes ...func(ctx context.Context) []sample) (all []sample, before, after []telemetry.Snapshot, err error) {
	ctx, cancel := context.WithDeadline(context.Background(), p.end)
	defer cancel()
	var wg sync.WaitGroup
	outs := make([][]sample, len(classes))
	for i, c := range classes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = c(ctx)
		}()
	}
	scrapeAll := func() ([]telemetry.Snapshot, error) {
		if !e.trace {
			return nil, nil
		}
		out := make([]telemetry.Snapshot, len(servers))
		for i, s := range servers {
			snap, err := s.scrape(ctl)
			if err != nil {
				return nil, err
			}
			out[i] = snap
		}
		return out, nil
	}
	time.Sleep(time.Until(p.start))
	before, errBefore := scrapeAll()
	time.Sleep(time.Until(p.end))
	after, errAfter := scrapeAll()
	wg.Wait() // the classes must have stopped before any return
	for _, o := range outs {
		all = append(all, o...)
	}
	if errBefore != nil {
		return nil, nil, nil, errBefore
	}
	return all, before, after, errAfter
}

// rankedAt returns the highest rank version any reply finished by t named.
func rankedAt(ss []sample, t time.Time) uint64 {
	var v uint64
	for _, s := range ss {
		if !s.Done.After(t) && s.Ranked > v {
			v = s.Ranked
		}
	}
	return v
}

// editsRanked counts the edits of the window's acknowledged writes whose
// version the published ranks covered when the window ended.
func editsRanked(ss []sample, p phases) int {
	covered := rankedAt(ss, p.end)
	n := 0
	for _, s := range ss {
		if writeClass(s) && s.OK && !s.Due.Before(p.start) && s.Version <= covered {
			n += s.Edits
		}
	}
	return n
}

func writeClass(s sample) bool { return s.Edits > 0 }

// fill stores a median with its sample count.
func (r *result) fill(into map[string]float64, name string, xs []float64) {
	into[name] = median(xs)
	r.Samples[name] = len(xs)
	if len(xs) >= 10 {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		r.Dist[name] = [6]float64{percentile(sorted, 10), percentile(sorted, 25), percentile(sorted, 50),
			percentile(sorted, 75), percentile(sorted, 90), summarize(xs).Tail}
	}
}

// fillRank stores the point-read latencies: median, and p99 from 1000
// samples up.
func (r *result) fillRank(ss []sample, p phases) {
	rank := latenciesMS(ss, "rank", p.start, p.end)
	r.fill(r.Req, "rank_p50_ms", rank)
	r.Req["rank_p99_ms"], r.Samples["rank_p99_ms"] = tailAt(rank, 99), len(rank)
}

func (r *result) count(ss []sample, p phases) {
	a, f := counts(ss, p.start, p.end)
	r.Attempted += a
	r.Failed += f
}

func (r *result) needSamples(name string, want int) {
	if got := r.Samples[name]; got < want {
		r.problem("%s rests on %d samples; it needs %d", name, got, want)
	}
}

// setUp runs one set-up e.sz.setups times, tearing every instance but the
// last down again, and stores the median duration as setup_s.
func (r *result) setUp(e *env, up, down func() error) error {
	var took []float64
	for i := 0; i < e.sz.setups; i++ {
		if i > 0 {
			if err := down(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := up(); err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	r.fill(r.E2E, "setup_s", took)
	return nil
}

// sumRSS adds up VmHWM over the program's processes.
func sumRSS(servers ...*server) (float64, error) {
	total := 0.0
	for _, s := range servers {
		v, err := s.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// ackedGraph replays onto d the dense batches whose write was acknowledged
// with a version of at most upTo and returns the final CSR (self-loops
// ensured, as the engine does).
func ackedGraph(d *graph.Dynamic, sched []editBatch, ss []sample, upTo uint64) *graph.CSR {
	for _, s := range ss {
		if writeClass(s) && s.OK && s.Version <= upTo {
			d.Apply(sched[s.Batch].Del, sched[s.Batch].Ins)
		}
	}
	d.EnsureSelfLoops()
	return d.Snapshot()
}

func maxVersion(ss []sample) uint64 {
	var v uint64
	for _, s := range ss {
		if writeClass(s) && s.OK && s.Version > v {
			v = s.Version
		}
	}
	return v
}

// ---------------------------------------------------------------- serve-mixed

func runServeMixed(e *env) (*result, error) {
	res := newResult(e)
	threads := serveThreads()
	data := filepath.Join(e.dir, "data")
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-in", filepath.Join(e.dir, "g.csr"), "-data", data, "-threads", strconv.Itoa(threads), "-history", strconv.Itoa(history)}
	res.Command = append([]string{"prserve", "-addr", addr}, args...)
	ctl, rc, wc := newConn(), newConn(), newConn()
	defer ctl.close()
	defer rc.close()
	defer wc.close()

	var (
		srv *server
		in  *inputs
	)
	err = res.setUp(e, func() (err error) {
		if in, err = makeInputs(e); err != nil {
			return err
		}
		if srv, err = startServer(e.prserve, "prserve", addr, e.dir, args...); err != nil {
			return err
		}
		return srv.waitReady(ctl, "", time.Minute)
	}, func() error {
		srv.kill9()
		return os.RemoveAll(data)
	})
	if err != nil {
		return nil, err
	}
	if res.InputHash, err = in.hash(); err != nil {
		return nil, err
	}
	sched, bodies, reads := in.dense, in.bodies, in.reads
	st0, err := srv.stats(ctl)
	if err != nil {
		return nil, err
	}

	p := newPhases(e)
	next := 0
	writes := func(ctx context.Context) []sample {
		return closedLoop(ctx, func() (sample, bool) {
			if next >= len(bodies) {
				return sample{}, false
			}
			s := sample{Class: "apply", Op: nextOp(), Batch: next, Edits: sched[next].size()}
			url := srv.base + "/v1/apply"
			if next%2 == 1 {
				s.Class, url = "ranked", url+"?wait=ranked"
			}
			postApply(wc, url, bodies[next], &s)
			s.Due = s.Sent
			next++
			e.rec.add("client."+s.Class, s.Op, s.Sent, s.Done)
			return s, true
		})
	}
	readsClass := func(ctx context.Context) []sample {
		return openLoop(ctx, p.begin, dues(reads), readFire(rc, srv.base, e.rec, reads))
	}
	ss, before, after, err := p.window(e, ctl, []*server{srv}, readsClass, writes)
	if err != nil {
		return nil, err
	}
	res.count(ss, p)
	if res.E2E["peak_rss_mb"], err = sumRSS(srv); err != nil {
		return nil, err
	}
	res.fillRank(ss, p)
	res.fill(res.Req, "topk_p50_ms", latenciesMS(ss, "topk", p.start, p.end))
	res.fill(res.Req, "apply_p50_ms", latenciesMS(ss, "apply", p.start, p.end))
	res.fill(res.E2E, "ranked_p50_ms", latenciesMS(ss, "ranked", p.start, p.end))
	res.E2E["edits_ranked_per_s"] = float64(editsRanked(ss, p)) / p.observed(ss)
	res.needSamples("apply_p50_ms", 20)
	res.needSamples("ranked_p50_ms", 20)
	res.needSamples("rank_p99_ms", 1000)

	// Everything acknowledged must be in the graph, and ranked before the
	// reads of the check.
	last := maxVersion(ss)
	if err := srv.waitRanked(ctl, last); err != nil {
		res.problem("ranks never covered the last acknowledged version %d: %v", last, err)
	}
	final := ackedGraph(in.d.Clone(), sched, ss, last)
	checkDenseServer(res, srv, ctl, st0, final, last, e.seed)

	// kill -9, restart on the same directory, until ready with ranks that
	// cover the recovered version; the graph must be the acknowledged one.
	var readyS []float64
	for i := 0; i < restartCycles; i++ {
		t0 := time.Now()
		srv.kill9()
		if err := srv.start(); err != nil {
			return nil, err
		}
		if err := srv.waitReady(ctl, "", time.Minute); err != nil {
			return nil, err
		}
		st, err := srv.stats(ctl)
		if err != nil {
			return nil, err
		}
		for st.RankVersion < st.Version { // ready, but ranks still replaying the tail
			time.Sleep(5 * time.Millisecond)
			if st, err = srv.stats(ctl); err != nil {
				return nil, err
			}
		}
		readyS = append(readyS, time.Since(t0).Seconds())
		if st.Version != last || st.Edges != final.M() || st.Vertices != final.N() {
			res.problem("restart %d recovered version %d with %d vertices / %d edges; acknowledged was version %d with %d / %d",
				i+1, st.Version, st.Vertices, st.Edges, last, final.N(), final.M())
		}
	}
	res.fill(res.Req, "restart_ready_s", readyS)

	if e.trace {
		scrapeMetrics(res, before[0], after[0], p.elapsed())
		res.Layer["loadgen.late_p99_ms"] = lateTail(ss)
		srv.kill9()
		pr := &prober{e: e, res: res, threads: threads, samples: ss, start: p.start, rootName: "client.ranked",
			durable: true, served: true, before: before[0], after: after[0]}
		if err := pr.run(in.d, appliedInOrder(sched, ss)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// lateTail is the generator's own lateness at the highest percentile the
// sample count allows (p99 from 1000 idle-connection sends).
func lateTail(ss []sample) float64 {
	l := lateness(ss)
	s := summarize(l)
	if s.TailPct == 0 {
		return s.P50
	}
	return s.Tail
}

// appliedInOrder lists the acknowledged dense batches in version order.
func appliedInOrder(sched []editBatch, ss []sample) []appliedBatch {
	var ws []sample
	for _, s := range ss {
		if writeClass(s) && s.OK {
			ws = append(ws, s)
		}
	}
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].Version < ws[b].Version })
	out := make([]appliedBatch, len(ws))
	for i, s := range ws {
		out[i] = appliedBatch{editBatch: sched[s.Batch], sample: s}
	}
	return out
}

// checkDenseServer compares a dense-id server with the harness's mirror:
// graph version and size, and the served ranks of the top 1000 and of 256
// seeded vertices against core.Reference on the mirror.
func checkDenseServer(res *result, srv *server, ctl *conn, st0 stats, final *graph.CSR, last uint64, seed int64) {
	st, err := srv.stats(ctl)
	if err != nil {
		res.problem("%v", err)
		return
	}
	if st.Version != last || st.Vertices != final.N() || st.Edges != final.M() {
		res.problem("server holds version %d with %d vertices / %d edges; the mirror of acknowledged writes says version %d with %d / %d (it started at %d / %d)",
			st.Version, st.Vertices, st.Edges, last, final.N(), final.M(), st0.Vertices, st0.Edges)
	}
	scores, err := fetchScores(srv, ctl, sampleVertices(final.N(), 256, seed), 0)
	if err != nil {
		res.problem("%v", err)
		return
	}
	verts := make([]uint32, 0, len(scores))
	for u := range scores {
		verts = append(verts, u)
	}
	linf := linfAgainstReference(final, func(u uint32) (float64, bool) { s, ok := scores[u]; return s, ok }, verts)
	res.ratio("core.linf_over_tol", linf, tolerance)
	if linf > linfBudget*tolerance {
		res.problem("served ranks are %.3g from core.Reference, budget %g τ = %.3g", linf, linfBudget, linfBudget*tolerance)
	}
}

// ---------------------------------------------------------------- ingest-burst

func runIngestBurst(e *env) (*result, error) {
	res := newResult(e)
	threads := serveThreads()
	data := filepath.Join(e.dir, "data")
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-keyed", "-in", filepath.Join(e.dir, "g.kel"), "-data", data, "-fsync", "always",
		"-rank-policy", "every", "-rank-every", strconv.Itoa(rankEvery), "-history", strconv.Itoa(burstHistory),
		"-threads", strconv.Itoa(threads)}
	res.Command = append([]string{"prserve", "-addr", addr}, args...)
	ctl := newConn()
	defer ctl.close()

	var (
		srv *server
		in  *inputs
	)
	err = res.setUp(e, func() (err error) {
		if in, err = makeInputs(e); err != nil {
			return err
		}
		if srv, err = startServer(e.prserve, "prserve", addr, e.dir, args...); err != nil {
			return err
		}
		return srv.waitReady(ctl, "", time.Minute)
	}, func() error {
		srv.kill9()
		return os.RemoveAll(data)
	})
	if err != nil {
		return nil, err
	}
	if res.InputHash, err = in.hash(); err != nil {
		return nil, err
	}
	d, sched, bodies := in.d, in.keyed, in.bodies

	p := newPhases(e)
	var next atomic.Int64
	classes := make([]func(context.Context) []sample, burstConns)
	for i := range classes {
		c := newConn()
		defer c.close()
		classes[i] = func(ctx context.Context) []sample {
			time.Sleep(time.Until(p.begin))
			return closedLoop(ctx, func() (sample, bool) {
				b := int(next.Add(1)) - 1
				if b >= len(bodies) {
					return sample{}, false
				}
				s := sample{Class: "apply", Op: nextOp(), Batch: b, Edits: sched[b].size()}
				postApply(c, srv.base+"/v1/apply", bodies[b], &s)
				s.Due = s.Sent
				e.rec.add("client.apply", s.Op, s.Sent, s.Done)
				return s, true
			})
		}
	}
	ss, before, after, err := p.window(e, ctl, []*server{srv}, classes...)
	if err != nil {
		return nil, err
	}
	res.count(ss, p)
	if res.E2E["peak_rss_mb"], err = sumRSS(srv); err != nil {
		return nil, err
	}
	apply := latenciesMS(ss, "apply", p.start, p.end)
	res.fill(res.Req, "apply_p50_ms", apply)
	res.Req["apply_p99_ms"], res.Samples["apply_p99_ms"] = tailAt(apply, 99), len(apply)
	res.Req["applies_per_s"] = float64(len(apply)) / p.observed(ss)
	res.E2E["edits_ranked_per_s"] = float64(editsRanked(ss, p)) / p.observed(ss)
	res.fill(res.E2E, "ranked_p50_ms", freshnessMS(ss, p))
	res.needSamples("apply_p50_ms", 20)
	res.needSamples("ranked_p50_ms", 20)

	// The rank policy refreshes every 4096 edits and nothing over HTTP can
	// force a refresh, so the check is made at the version the ranks stopped
	// at: the graph of every write acknowledged up to it.
	st, err := srv.stats(ctl)
	if err != nil {
		return nil, err
	}
	if last := maxVersion(ss); st.Version != last {
		res.problem("server holds version %d, the last acknowledged write was version %d", st.Version, last)
	}
	checkKeyedServer(res, srv, ctl, d, sched, ss, e.seed)

	if e.trace {
		scrapeMetrics(res, before[0], after[0], p.elapsed())
		srv.kill9()
		pr := &prober{e: e, res: res, threads: threads, samples: ss, start: p.start, rootName: "client.apply",
			durable: true, fsyncAlways: true, served: true, keyed: true, before: before[0], after: after[0]}
		mirror, applied := keyedMirror(d, sched, ss, ^uint64(0))
		pr.keys = mirror.keys
		if err := pr.run(mirror.initial, applied); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// freshnessMS is, for each write of the window, the time from its send to
// the first reply on any connection that named a rank version covering it:
// the moment the client could know its write was ranked. Writes the ranks
// had not covered when the traffic stopped have no sample.
func freshnessMS(ss []sample, p phases) []float64 {
	byDone := append([]sample(nil), ss...)
	sort.Slice(byDone, func(a, b int) bool { return byDone[a].Done.Before(byDone[b].Done) })
	cum := make([]uint64, len(byDone))
	var hi uint64
	for i, s := range byDone {
		hi = max(hi, s.Ranked)
		cum[i] = hi
	}
	var out []float64
	for _, s := range ss {
		if !writeClass(s) || !s.OK || s.Due.Before(p.start) || !s.Due.Before(p.end) {
			continue
		}
		i := sort.Search(len(cum), func(i int) bool { return cum[i] >= s.Version })
		if i < len(cum) {
			out = append(out, ms(byDone[i].Done.Sub(s.Sent)))
		}
	}
	return out
}

// ---------------------------------------------------------------- replica-read

func runReplicaRead(e *env) (*result, error) {
	res := newResult(e)
	threads := serveThreads()
	csr, data := filepath.Join(e.dir, "g.csr"), filepath.Join(e.dir, "shared")
	addrA, err := freeAddr()
	if err != nil {
		return nil, err
	}
	addrB, err := freeAddr()
	if err != nil {
		return nil, err
	}
	peers := "http://" + addrA + ",http://" + addrB
	nodeArgs := func(id, addr string) []string {
		return []string{"-in", csr, "-data", data, "-threads", strconv.Itoa(threads), "-history", strconv.Itoa(history), "-lease-ttl", "1s",
			"-cluster-node", id, "-cluster-self", "http://" + addr, "-cluster-peers", peers}
	}
	res.Command = append([]string{"prserve", "-addr", addrA}, nodeArgs("a", addrA)...)
	ctl, rc, wc := newConn(), newConn(), newConn()
	defer ctl.close()
	defer rc.close()
	defer wc.close()

	var (
		a, b      *server
		in        *inputs
		bootstrap []float64
	)
	err = res.setUp(e, func() (err error) {
		if in, err = makeInputs(e); err != nil {
			return err
		}
		if a, err = startServer(e.prserve, "node-a", addrA, e.dir, nodeArgs("a", addrA)...); err != nil {
			return err
		}
		if err := a.waitReady(ctl, "writer", time.Minute); err != nil {
			return err
		}
		t1 := time.Now()
		if b, err = startServer(e.prserve, "node-b", addrB, e.dir, nodeArgs("b", addrB)...); err != nil {
			return err
		}
		if err := b.waitReady(ctl, "replica", time.Minute); err != nil {
			return err
		}
		bootstrap = append(bootstrap, ms(time.Since(t1)))
		return nil
	}, func() error {
		b.kill9()
		a.kill9()
		return os.RemoveAll(data)
	})
	if err != nil {
		return nil, err
	}
	if res.InputHash, err = in.hash(); err != nil {
		return nil, err
	}
	sched, bodies, reads := in.dense, in.bodies, in.reads
	st0, err := a.stats(ctl)
	if err != nil {
		return nil, err
	}

	p := newPhases(e)
	nWrites := int((e.warm + e.window).Seconds() * replWriteRate)
	if nWrites > len(bodies) {
		nWrites = len(bodies)
	}
	wdues := make([]time.Duration, nWrites)
	for i := range wdues {
		wdues[i] = time.Duration(i) * time.Second / replWriteRate
	}
	// One write: POST to the writer, then read a vertex the batch touched on
	// the replica, pinned to the acknowledged version. The pinned read parks
	// on the replica until replication and its own refresh cover the version.
	var pinned []sample
	writes := func(ctx context.Context) []sample {
		return openLoop(ctx, p.begin, wdues, func(i int, due time.Time) sample {
			s := sample{Class: "apply", Op: nextOp(), Batch: i, Edits: sched[i].size()}
			postApply(wc, a.base+"/v1/apply", bodies[i], &s)
			e.rec.add("client.apply", s.Op, s.Sent, s.Done)
			if s.OK {
				u := sched[i].Ins[0].U
				r, err := wc.do(context.Background(), "GET", fmt.Sprintf("%s/v1/rank/%d", b.base, u), nil, s.Version)
				ps := sample{Class: "replica_ranked", Op: s.Op, Due: due, Sent: s.Sent, Done: r.Done, Ranked: r.Version,
					OK: err == nil && r.Status == 200 && r.Version >= s.Version}
				pinned = append(pinned, ps)
				e.rec.add("client.replica_ranked", s.Op, due, r.Done)
			}
			return s
		})
	}
	readsClass := func(ctx context.Context) []sample {
		return openLoop(ctx, p.begin, dues(reads), readFire(rc, b.base, e.rec, reads))
	}
	ss, before, after, err := p.window(e, ctl, []*server{a, b}, readsClass, writes)
	if err != nil {
		return nil, err
	}
	ss = append(ss, pinned...)
	res.count(ss, p)
	if res.E2E["peak_rss_mb"], err = sumRSS(a, b); err != nil {
		return nil, err
	}
	res.fillRank(ss, p)
	res.fill(res.Req, "apply_p50_ms", latenciesMS(ss, "apply", p.start, p.end))
	rr := latenciesMS(ss, "replica_ranked", p.start, p.end)
	res.fill(res.E2E, "ranked_p50_ms", rr)
	res.fill(res.Req, "replica_ranked_p50_ms", rr)
	// Ranked here means ranked on the replica: the pinned read proves it.
	ranked := 0
	for _, s := range pinned {
		if s.OK && !s.Due.Before(p.start) && !s.Done.After(p.end) {
			ranked += mixedBatch
		}
	}
	res.E2E["edits_ranked_per_s"] = float64(ranked) / p.observed(ss)
	res.needSamples("apply_p50_ms", 20)
	res.needSamples("ranked_p50_ms", 20)
	res.needSamples("rank_p99_ms", 1000)

	last := maxVersion(ss)
	final := ackedGraph(in.d.Clone(), sched, ss, last)
	for _, n := range []*server{a, b} {
		if err := n.waitRanked(ctl, last); err != nil {
			res.problem("%s never ranked the last acknowledged version %d: %v", n.name, last, err)
		}
	}
	checkDenseServer(res, a, ctl, st0, final, last, e.seed)
	// The replica must answer what the writer answers at the same version.
	verts := sampleVertices(final.N(), 256, e.seed)
	sa, errA := fetchScores(a, ctl, verts, last)
	sb, errB := fetchScores(b, ctl, verts, last)
	if errA != nil || errB != nil {
		res.problem("pinned reads at version %d: writer %v, replica %v", last, errA, errB)
	}
	for u, x := range sa {
		if y, ok := sb[u]; !ok || math.Abs(x-y) > linfBudget*tolerance {
			res.problem("vertex %d at version %d: writer %.12g, replica %.12g", u, last, x, y)
			break
		}
	}

	if e.trace {
		scrapeMetrics(res, before[0], after[0], p.elapsed())
		res.Layer["loadgen.late_p99_ms"] = lateTail(ss)
		res.fill(res.Layer, "repl.bootstrap_ms", bootstrap)
		fed := counterDelta(before[0], after[0], "dfpr_repl_feed_records_total")
		res.ratio("repl.feed_records_per_s", fed, p.elapsed())
		// What the replica does with a record: it applies it and refreshes.
		res.Layer["repl.replica_apply_ms"] = histMean(before[1], after[1], 1e3, "dfpr_rank_refresh_seconds")
	}

	// Failover: kill -9 the writer, then post to the survivor until a write
	// is accepted. The rejected attempts are the measurement, not operations.
	t0 := time.Now()
	a.kill9()
	var failover float64
	body := bodies[nWrites%len(bodies)]
	for time.Since(t0) < 30*time.Second {
		var s sample
		postApply(wc, b.base+"/v1/apply", body, &s)
		if s.OK {
			failover = time.Since(t0).Seconds()
			if s.Version != last+1 {
				res.problem("after failover the survivor assigned version %d; the sequence stood at %d", s.Version, last)
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if failover == 0 {
		res.problem("the survivor accepted no write within 30 s of the writer's kill -9:\n%s", b.logTail())
	}
	if e.trace {
		res.Layer["repl.failover_s"] = failover
		b.kill9()
		pr := &prober{e: e, res: res, threads: threads, samples: ss, start: p.start, rootName: "client.replica_ranked",
			durable: true, served: true, repl: true, before: before[1], after: after[1]}
		if err := pr.run(in.d, appliedInOrder(sched, ss)); err != nil {
			return nil, err
		}
	}
	return res, nil
}
