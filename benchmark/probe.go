package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"dfpr"
	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/exutil"
	"dfpr/internal/gio"
	"dfpr/internal/graph"
	"dfpr/internal/keymap"
	"dfpr/internal/repl"
	"dfpr/internal/snapshot"
	"dfpr/internal/telemetry"
	"dfpr/internal/wal"
	"dfpr/serve"
)

// Probe source: after the window of a traced run, the batches the program
// acknowledged are replayed through each layer's public functions on state
// the harness owns, one span per call, attached under the client span of
// the operation that carried the batch. The probes run on the same machine
// with the same thread count as the program, so their times are the
// layer's cost for this input; what they cannot see — queueing, scheduling,
// the network — is what dfpr.unexplained_share reports.

type prober struct {
	e        *env
	res      *result
	threads  int
	samples  []sample
	start    time.Time // of the timed window
	rootName string    // the client span whose unexplained share is reported

	durable, fsyncAlways, served, keyed, repl bool
	keys                                      []string // keyed: the mirror's keys in id order
	// before and after are the scrapes of the node the reads went to, at the
	// window's edges, for the program's own handler times.
	before, after telemetry.Snapshot
}

// round is one probed ingest round: the batches the program coalesced into
// one version, as far as the harness can tell (consecutive acknowledged
// batches in groups of the observed coalesce ratio).
type round struct {
	up    batch.Update
	parts []batch.Update
	roots []int // client spans of the batches
	edits int
}

func (p *prober) run(initial *graph.Dynamic, applied []appliedBatch) error {
	cfg := core.Config{Threads: p.threads}
	group := 1
	if b, ok := p.res.Bases["dfpr.coalesce_ratio"]; ok && b[1] > 0 {
		group = max(1, int(math.Round(b[0]/b[1])))
	}
	skip := 0
	for skip < len(applied) && applied[skip].sample.Sent.Before(p.start) {
		skip++
	}
	roots := p.rootSpans()
	var rounds []round
	for i := skip; i+group <= len(applied) && len(rounds) < p.e.sz.probes; i += group {
		var r round
		for _, ab := range applied[i : i+group] {
			up := batch.Update{Del: ab.Del, Ins: ab.Ins}
			up.N = up.Universe(0)
			r.parts = append(r.parts, up)
			r.roots = append(r.roots, roots[ab.sample.Op])
			r.edits += ab.size()
		}
		r.up = batch.Merge(r.parts...)
		rounds = append(rounds, r)
	}
	if len(rounds) == 0 {
		return fmt.Errorf("no acknowledged batch inside the window to probe")
	}

	// Bring the harness's state to where the first probed round found the
	// program's: every earlier batch applied, ranks converged.
	var early []batch.Update
	for _, ab := range applied[:skip] {
		early = append(early, batch.Update{Del: ab.Del, Ins: ab.Ins})
	}
	pre := batch.Merge(early...)
	pre.N = pre.Universe(initial.N())
	initial.EnsureSelfLoops()
	flat := initial.Clone()
	store := snapshot.NewStore(initial, history)
	//lint:allow lockorder the probe times the store layer alone, on a harness-owned store with no WAL around it
	store.Apply(pre)
	flat.Grow(pre.N)
	flat.Apply(pre.Del, pre.Ins)
	flat.EnsureSelfLoops()
	ctx := context.Background()
	ranker, _, err := snapshot.NewRanker(ctx, store, core.AlgoDFLF, cfg)
	if err != nil {
		return err
	}
	ranker.CoalesceSpans = true

	// The same rounds through a whole in-process engine, for the layers that
	// only exist above the store: views (top-k) and the serve handlers.
	n0, edges0 := exutil.Flatten(flat)
	eng, err := dfpr.New(n0, edges0, dfpr.WithThreads(p.threads), dfpr.WithHistory(history), dfpr.WithRankPolicy(dfpr.RankEveryN(1<<30)))
	if err != nil {
		return err
	}
	defer eng.Close()
	if _, err := eng.Rank(ctx); err != nil {
		return err
	}

	var mergeMS, applySelfMS, refreshSelfMS, coreMS, iters, nsPerEdge, selectMS, warmNS, mergeUS []float64
	var dflf, ndlf, static []float64
	var frontier, swept float64
	for i, r := range rounds {
		t := time.Now()
		batch.Merge(r.parts...)
		mergeUS = append(mergeUS, float64(time.Since(t))/1e3)

		t = time.Now()
		flat.Grow(r.up.Universe(flat.N()))
		flat.Apply(r.up.Del, r.up.Ins)
		flat.EnsureSelfLoops()
		flat.Snapshot()
		merge := time.Since(t)

		t = time.Now()
		//lint:allow lockorder as above: the WAL append is probed separately in probeWAL
		store.Apply(r.up)
		apply := time.Since(t)

		prev := ranker.Ranks()
		t = time.Now()
		run, _, err := ranker.Refresh(ctx)
		refresh := time.Since(t)
		if err != nil {
			return fmt.Errorf("probe refresh: %w", err)
		}
		cur := store.Current().G
		mergeMS = append(mergeMS, ms(merge))
		applySelfMS = append(applySelfMS, ms(max(0, apply-merge)))
		refreshSelfMS = append(refreshSelfMS, ms(max(0, refresh-run.Elapsed)))
		coreMS = append(coreMS, ms(run.Elapsed))
		iters = append(iters, float64(run.Iterations))
		nsPerEdge = append(nsPerEdge, float64(run.Elapsed)/float64(cur.M())/float64(max(1, run.Iterations)))
		frontier += float64(run.FrontierScanned)
		swept += float64(cur.N()) * float64(run.Iterations)
		for _, root := range r.roots {
			a := p.e.rec.child(root, "snapshot.apply", apply)
			p.e.rec.child(a, "graph.delta_merge", merge)
			// A refresh is on the operation's path only when the client
			// waited for ranks; a 202 apply returns before it.
			if p.e.rec.name(root) != "client.apply" {
				f := p.e.rec.child(root, "snapshot.refresh", refresh)
				p.e.rec.child(f, "core.run", run.Elapsed)
			}
		}

		// The paper's comparison, on the same input: ND-LF from the previous
		// ranks and a cold static LF run, every 8th round.
		if i%8 == 0 {
			grown := prev
			if cur.N() > len(prev) {
				grown = core.GrowRanks(prev, cur.N())
			}
			dflf = append(dflf, ms(run.Elapsed))
			ndlf = append(ndlf, ms(core.Run(core.AlgoNDLF, core.Input{GNew: cur, Prev: grown}, cfg).Elapsed))
			static = append(static, ms(core.Run(core.AlgoStaticLF, core.Input{GNew: cur}, cfg).Elapsed))
		}

		// First and repeated top-10 on the version the engine publishes.
		if _, err := eng.Apply(ctx, exutil.Convert(r.up.Del), exutil.Convert(r.up.Ins)); err != nil {
			return fmt.Errorf("probe engine apply: %w", err)
		}
		out, err := eng.Rank(ctx)
		if err != nil {
			return fmt.Errorf("probe engine rank: %w", err)
		}
		t = time.Now()
		out.View.TopK(10)
		selectMS = append(selectMS, ms(time.Since(t)))
		const reps = 256
		t = time.Now()
		for j := 0; j < reps; j++ {
			out.View.TopK(10)
		}
		warmNS = append(warmNS, float64(time.Since(t))/reps)
	}
	L := p.res.Layer
	set := func(name string, xs []float64) { L[name], p.res.Samples[name] = median(xs), len(xs) }
	set("graph.delta_merge_ms", mergeMS)
	set("snapshot.apply_self_ms", applySelfMS)
	set("snapshot.refresh_self_ms", refreshSelfMS)
	set("core.iterations", iters)
	set("core.ns_per_edge", nsPerEdge)
	set("topk.select_ms", selectMS)
	set("topk.warm_ns", warmNS)
	set("batch.merge_us", mergeUS)
	if _, scraped := L["core.refresh_ms"]; !scraped {
		set("core.refresh_ms", coreMS)
	}
	p.res.ratio("core.frontier_share", frontier, swept)
	// "Over" as in speed-up: above 1 means DF-LF is the faster one.
	p.res.ratio("core.dflf_over_ndlf", median(ndlf), median(dflf))
	p.res.ratio("core.dflf_over_static", median(static), median(dflf))

	if p.keyed {
		p.probeKeymap()
	}
	dir := filepath.Join(p.e.dir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if p.durable {
		if err := p.probeWAL(filepath.Join(dir, "wal"), store.Current().G, ranker.Ranks(), rounds); err != nil {
			return err
		}
	}
	if p.repl {
		if err := p.probeRepl(filepath.Join(dir, "feed"), store.Current().G, ranker.Ranks(), rounds); err != nil {
			return err
		}
	}
	if err := p.probeGIO(filepath.Join(dir, "g.csr"), store.Current().G); err != nil {
		return err
	}
	if p.served {
		if err := p.probeServe(eng, rounds); err != nil {
			return err
		}
	}
	L["dfpr.unexplained_share"] = p.e.rec.unexplainedShare(p.rootName)
	return nil
}

// rootSpans maps an operation to the client span probes attach under: the
// span named rootName when the operation has one, else its first root.
func (p *prober) rootSpans() map[int]int {
	out := make(map[int]int)
	p.e.rec.mu.Lock()
	defer p.e.rec.mu.Unlock()
	for _, s := range p.e.rec.spans {
		if s.Parent != 0 {
			continue
		}
		if _, ok := out[s.Op]; !ok || s.Name == p.rootName {
			out[s.Op] = s.ID
		}
	}
	return out
}

// probeKeymap times Intern and Resolve on the workload's own keys.
func (p *prober) probeKeymap() {
	km := keymap.New()
	t := time.Now()
	for _, k := range p.keys {
		km.Intern(k)
	}
	p.res.Layer["keymap.intern_ns"] = float64(time.Since(t)) / float64(len(p.keys))
	km.Sync()
	t = time.Now()
	for _, k := range p.keys {
		km.Resolve(k)
	}
	p.res.Layer["keymap.resolve_ns"] = float64(time.Since(t)) / float64(len(p.keys))
	p.res.Samples["keymap.intern_ns"], p.res.Samples["keymap.resolve_ns"] = len(p.keys), len(p.keys)
}

func (p *prober) walMode() wal.SyncMode {
	if p.fsyncAlways {
		return wal.SyncAlways
	}
	return wal.SyncBatched
}

func (p *prober) records(rounds []round, n int) []wal.Record {
	recs := make([]wal.Record, len(rounds))
	for i, r := range rounds {
		recs[i] = wal.Record{Seq: uint64(i + 1), N: uint64(max(n, r.up.Universe(n))), Del: r.up.Del, Ins: r.up.Ins}
	}
	return recs
}

// probeWAL appends the probed rounds to a log of the workload's fsync
// policy in a temporary directory, writes one checkpoint of the final state
// and reads the log back. The append and fsync times of record are the
// program's own histograms (scrape); the probe's appends attach under the
// client spans and give the bytes per edit.
func (p *prober) probeWAL(dir string, g *graph.CSR, ranks []float64, rounds []round) error {
	log, _, err := wal.Open(dir, wal.Options{Mode: p.walMode()})
	if err != nil {
		return err
	}
	defer log.Close()
	if err := log.WriteCheckpoint(&wal.State{Seq: 0, Graph: g, Ranks: ranks, Keys: p.keys}); err != nil {
		return err
	}
	var logged, edits int
	recs := p.records(rounds, g.N())
	for i := range recs {
		t := time.Now()
		if err := log.Append(&recs[i]); err != nil {
			return err
		}
		d := time.Since(t)
		for _, root := range rounds[i].roots {
			p.e.rec.child(root, "wal.append", d)
		}
		logged += len(wal.EncodeRecord(nil, &recs[i]))
		edits += rounds[i].edits
	}
	if err := log.Sync(); err != nil {
		return err
	}
	p.res.ratio("wal.bytes_per_edit", float64(logged), float64(edits))

	t := time.Now()
	sr := log.SegmentReader(0)
	read := 0
	for {
		if _, err := sr.Next(); err != nil {
			break // io.EOF at the tail; a damaged log shows as read < len(recs)
		}
		read++
	}
	p.res.Layer["wal.replay_ms"] = ms(time.Since(t))
	if read != len(recs) {
		return fmt.Errorf("wal probe: appended %d records, read back %d", len(recs), read)
	}
	if _, scraped := p.res.Layer["wal.checkpoint_ms"]; !scraped {
		t = time.Now()
		if err := log.WriteCheckpoint(&wal.State{Seq: uint64(len(recs)), Graph: g, Ranks: ranks, Keys: p.keys}); err != nil {
			return err
		}
		p.res.Layer["wal.checkpoint_ms"] = ms(time.Since(t))
	}
	return nil
}

// probeRepl streams the probed rounds from a repl.Feed to a repl.Dial
// client over loopback and times each record from its append to its
// delivery.
func (p *prober) probeRepl(dir string, g *graph.CSR, ranks []float64, rounds []round) error {
	log, _, err := wal.Open(dir, wal.Options{Mode: wal.SyncNone})
	if err != nil {
		return err
	}
	defer log.Close()
	if err := log.WriteCheckpoint(&wal.State{Seq: 0, Graph: g, Ranks: ranks}); err != nil {
		return err
	}
	srv := httptest.NewServer(repl.NewFeed(log, repl.FeedOptions{}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cl, err := repl.Dial(ctx, repl.ClientOptions{URL: srv.URL})
	if err != nil {
		return err
	}
	defer cl.Close()
	var transit []float64
	recs := p.records(rounds, g.N())
	for i := range recs {
		t := time.Now()
		if err := log.Append(&recs[i]); err != nil {
			return err
		}
		select {
		case ev := <-cl.Records():
			if ev.Rec.Seq != recs[i].Seq {
				return fmt.Errorf("feed probe: sent record %d, received %d", recs[i].Seq, ev.Rec.Seq)
			}
		case <-time.After(10 * time.Second):
			return fmt.Errorf("feed probe: record %d not delivered within 10 s", recs[i].Seq)
		}
		d := time.Since(t)
		transit = append(transit, ms(d))
		for _, root := range rounds[i].roots {
			p.e.rec.child(root, "repl.transit", d)
		}
	}
	p.res.Layer["repl.transit_ms"], p.res.Samples["repl.transit_ms"] = median(transit), len(transit)
	return nil
}

// probeGIO times the container round trip of the workload graph; load_ms
// is the mmap load alone, the part every start and restart pays.
func (p *prober) probeGIO(path string, g *graph.CSR) error {
	if err := gio.WriteCSRFile(path, g); err != nil {
		return err
	}
	var loads []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		m, err := gio.LoadCSRMapped(path)
		if err != nil {
			return err
		}
		if m.CSR().N() != g.N() {
			m.Close()
			return fmt.Errorf("gio probe: loaded %d vertices, wrote %d", m.CSR().N(), g.N())
		}
		loads = append(loads, ms(time.Since(t)))
		m.Close()
	}
	p.res.Layer["gio.load_ms"], p.res.Samples["gio.load_ms"] = median(loads), len(loads)
	return nil
}

// probeServe separates the serve layer from the engine below and the
// network above: a request through serve's handler in-process (httptest, no
// socket) minus the same work as a direct engine call is the handler's self
// time; the client's loopback service time minus the program's own handler
// histogram is the network's.
func (p *prober) probeServe(eng *dfpr.Engine, rounds []round) error {
	srv, err := serve.New(eng)
	if err != nil {
		return err
	}
	h := srv.Handler()
	view, err := eng.View()
	if err != nil {
		return err
	}
	n := view.N()
	call := func(method, url string, body []byte) (time.Duration, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, url, rd)
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t)
		if rec.Code >= 300 {
			return 0, fmt.Errorf("serve probe %s %s: status %d: %s", method, url, rec.Code, rec.Body)
		}
		return d, nil
	}
	const reps = 512
	var viaRank, direct, viaTopK, directTopK []float64
	for i := 0; i < reps; i++ {
		u := uint32(i * 7919 % n)
		d, err := call("GET", "/v1/rank/"+strconv.Itoa(int(u))+"?ids=dense", nil)
		if err != nil {
			return err
		}
		viaRank = append(viaRank, float64(d)/1e3)
		t := time.Now()
		v, _ := eng.View() // cannot fail: ranks were published above
		v.ScoreOf(u)
		direct = append(direct, float64(time.Since(t))/1e3)

		if d, err = call("GET", "/v1/topk?k=10&ids=dense", nil); err != nil {
			return err
		}
		viaTopK = append(viaTopK, float64(d)/1e3)
		t = time.Now()
		v.TopK(10)
		directTopK = append(directTopK, float64(time.Since(t))/1e3)
	}
	L := p.res.Layer
	L["serve.rank_self_us"] = max(0, median(viaRank)-median(direct))
	L["serve.topk_self_us"] = max(0, median(viaTopK)-median(directTopK))

	// Apply: the handler (decode, submit, wait for the round, encode) against
	// Submit+Wait, alternating a batch and its inverse so the graph ends where
	// it was. Both sides are dominated by the round's snapshot, whose time
	// varies more than the handler costs; the minimum of each side is the
	// deterministic part, and their difference the handler's own work.
	const applyReps = 16
	viaApply, directApply := math.Inf(1), math.Inf(1)
	up := rounds[0].up
	inv := up.Inverse()
	fwd, back := denseBody(editBatch{Del: up.Del, Ins: up.Ins}), denseBody(editBatch{Del: inv.Del, Ins: inv.Ins})
	for i := 0; i < applyReps; i++ {
		d, err := call("POST", "/v1/apply", back)
		if err != nil {
			return err
		}
		viaApply = min(viaApply, float64(d)/1e3)
		t := time.Now()
		tk, err := eng.Submit(context.Background(), exutil.Convert(up.Del), exutil.Convert(up.Ins))
		if err == nil {
			_, err = tk.Wait(context.Background())
		}
		if err != nil {
			return fmt.Errorf("serve probe submit: %w", err)
		}
		directApply = min(directApply, float64(time.Since(t))/1e3)
		// And the mirror image, so neither side always gets the same batch.
		t = time.Now()
		if tk, err = eng.Submit(context.Background(), exutil.Convert(inv.Del), exutil.Convert(inv.Ins)); err == nil {
			_, err = tk.Wait(context.Background())
		}
		if err != nil {
			return fmt.Errorf("serve probe submit: %w", err)
		}
		directApply = min(directApply, float64(time.Since(t))/1e3)
		if d, err = call("POST", "/v1/apply", fwd); err != nil {
			return err
		}
		viaApply = min(viaApply, float64(d)/1e3)
	}
	selfApply := max(0, viaApply-directApply)
	L["serve.apply_self_us"] = selfApply
	p.res.Bases["serve.apply_self_us"] = [2]float64{viaApply, directApply}
	p.res.Samples["serve.rank_self_us"], p.res.Samples["serve.apply_self_us"] = reps, 2*applyReps

	// Network: what the client saw on loopback beyond the program's handler.
	// Top-k reads where the workload has them — the rank endpoint's histogram
	// also holds replica-read's pinned reads, which park for a whole refresh —
	// else the applies.
	serviceUS := func(class string) (out []float64) {
		for _, s := range p.samples {
			if s.Class == class && s.OK && !s.Due.Before(p.start) {
				out = append(out, float64(s.service())/1e3)
			}
		}
		return out
	}
	endpoint := "topk"
	svc := serviceUS(endpoint)
	if len(svc) == 0 {
		endpoint = "apply"
		svc = serviceUS(endpoint)
	}
	handler := handlerMeanUS(p.before, p.after, endpoint)
	L["serve.net_us"] = max(0, mean(svc)-handler)
	p.res.Bases["serve.net_us"] = [2]float64{mean(svc), handler}

	// Queue wait: the client's apply, minus the handler's own work, minus the
	// round's probed work below it (delta-merge and publish, WAL append and
	// fsync): what is left is an apply waiting for a refresh to end.
	applyMS := mean(serviceUS("apply")) / 1e3
	work := L["graph.delta_merge_ms"] + L["snapshot.apply_self_ms"] + (L["wal.append_us"]+L["wal.fsync_us"])/1e3
	L["dfpr.queue_wait_ms"] = max(0, applyMS-selfApply/1e3-work)
	p.res.Bases["dfpr.queue_wait_ms"] = [2]float64{applyMS, selfApply/1e3 + work}
	for _, r := range rounds {
		for _, root := range r.roots {
			p.e.rec.child(root, "serve.apply", time.Duration(selfApply*1e3))
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
