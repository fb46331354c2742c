package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"time"

	"dfpr"
	"dfpr/internal/core"
	"dfpr/internal/exutil"
	"dfpr/internal/graph"
	"dfpr/internal/telemetry"
)

// stream-rank: the paper's own experiment. A volatile in-process engine on
// RMAT 2^16 × 16, DF-LF, one caller in a closed loop: Engine.Apply(del, ins)
// then Engine.Rank per batch of 1e-5·|E| edits. core, snapshot and graph do
// all the work; serve, wal, repl and keymap do none.

// streamBatchSize is the paper's smallest batch fraction, 1e-5 of the edges.
func streamBatchSize(m int) int { return max(1, int(math.Round(1e-5*float64(m)))) }

func runStreamRank(e *env) (*result, error) {
	ctx := context.Background()
	res := newResult(e)
	threads := streamThreads()
	res.Command = []string{"dfpr.New", fmt.Sprintf("WithThreads(%d)", threads), fmt.Sprintf("WithHistory(%d)", history), "Engine.Apply", "Engine.Rank"}

	var (
		eng *dfpr.Engine
		in  *inputs
	)
	closeEng := func() error {
		if eng == nil {
			return nil
		}
		err := eng.Close()
		eng = nil
		return err
	}
	defer closeEng() // error paths; a volatile engine's Close only stops goroutines
	err := res.setUp(e, func() (err error) {
		if in, err = makeInputs(e); err != nil {
			return err
		}
		src, err := exutil.LoadGraphSource(in.graphFile)
		if err != nil {
			return err
		}
		if eng, err = dfpr.New(src.N, src.Edges, dfpr.WithThreads(threads), dfpr.WithHistory(history)); err != nil {
			return err
		}
		if _, err := eng.Rank(ctx); err != nil {
			return fmt.Errorf("initial rank: %w", err)
		}
		return nil
	}, closeEng)
	if err != nil {
		return nil, err
	}
	if res.InputHash, err = in.hash(); err != nil {
		return nil, err
	}
	sched := in.dense
	in.d, in.bodies = nil, nil // the harness's copies must not sit in the peak RSS

	next := 0
	var applies []sample // the Apply half of every operation
	var last *dfpr.Result
	// one is one closed-loop operation: Apply, then Rank until current.
	one := func() (sample, bool) {
		if next >= len(sched) {
			return sample{}, false
		}
		b := sched[next]
		s := sample{Class: "update", Op: nextOp(), Batch: next, Edits: b.size(), Sent: time.Now()}
		s.Due = s.Sent
		next++
		seq, err := eng.Apply(ctx, exutil.Convert(b.Del), exutil.Convert(b.Ins))
		applied := time.Now()
		if err == nil {
			last, err = eng.Rank(ctx)
		}
		s.Done = time.Now()
		s.OK = err == nil && last.Seq == seq
		s.Version = seq
		// The apply half is its own sample, so that apply_p50_ms means the
		// same here as on the served workloads: write issued → acknowledged.
		applies = append(applies, sample{Class: "apply", Op: s.Op, Due: s.Sent, Sent: s.Sent, Done: applied, OK: err == nil})
		e.rec.add("update", s.Op, s.Sent, s.Done)
		return s, true
	}

	// Warm-up, untimed: lets the view ring, the ranker's buffers and the
	// heap settle.
	wctx, cancel := context.WithTimeout(ctx, e.warm)
	updates := closedLoop(wctx, one)
	cancel()
	debug.FreeOSMemory()
	resetPeakRSS()

	var before telemetry.Snapshot
	if e.trace {
		if before, err = scrapeRegistry(eng); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	wctx, cancel = context.WithTimeout(ctx, e.window)
	updates = append(updates, closedLoop(wctx, one)...)
	cancel()
	end := time.Now()
	elapsed := end.Sub(start).Seconds()
	if res.E2E["peak_rss_mb"], err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}

	upd := latenciesMS(updates, "update", start, end)
	res.fill(res.E2E, "ranked_p50_ms", upd)
	res.fill(res.Req, "update_p50_ms", upd)
	res.fill(res.Req, "apply_p50_ms", latenciesMS(applies, "apply", start, end))
	edits := 0
	for _, s := range updates {
		if s.OK && !s.Due.Before(start) && !s.Done.After(end.Add(time.Millisecond)) {
			edits += s.Edits
		}
	}
	res.E2E["edits_ranked_per_s"] = float64(edits) / elapsed
	res.Attempted, res.Failed = counts(updates, start, end)
	res.needSamples("ranked_p50_ms", 20)

	// Correctness: the served ranks against a sequential reference on the
	// harness's own copy of the final graph.
	d := genGraph(e.sz.streamScale, e.seed)
	for _, b := range sched[:next] {
		d.Apply(b.Del, b.Ins)
	}
	d.EnsureSelfLoops()
	final := d.Snapshot()
	view, err := eng.View()
	if err != nil {
		return nil, err
	}
	if view.N() != final.N() || view.M() != final.M() {
		res.problem("engine graph is %d vertices / %d edges, the harness's mirror %d / %d", view.N(), view.M(), final.N(), final.M())
	}
	linf := linfAgainstReference(final, func(u uint32) (float64, bool) { return view.ScoreOf(u) }, allVertices(final.N()))
	res.ratio("core.linf_over_tol", linf, tolerance)
	if linf > linfBudget*tolerance {
		res.problem("served ranks are %.3g from core.Reference, budget %g τ = %.3g", linf, linfBudget, linfBudget*tolerance)
	}

	if e.trace {
		after, err := scrapeRegistry(eng)
		if err != nil {
			return nil, err
		}
		scrapeMetrics(res, before, after, elapsed)
		closeEng()
		eng = nil
		p := &prober{e: e, res: res, threads: threads, samples: updates, start: start, rootName: "update"}
		var applied []appliedBatch
		for _, s := range updates {
			if s.OK {
				applied = append(applied, appliedBatch{editBatch: sched[s.Batch], sample: s})
			}
		}
		if err := p.run(genGraph(e.sz.streamScale, e.seed), applied); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// scrapeRegistry reads an in-process engine's registry through the same
// exposition text and parser a /metrics scrape goes through.
func scrapeRegistry(eng *dfpr.Engine) (telemetry.Snapshot, error) {
	var buf bytes.Buffer
	if err := eng.Metrics().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return telemetry.ParseExposition(&buf)
}

// linfAgainstReference is max |served − reference| over the given vertices,
// the reference being core.Reference on g. A vertex the program does not
// know counts as infinitely wrong.
func linfAgainstReference(g *graph.CSR, score func(uint32) (float64, bool), verts []uint32) float64 {
	ref := core.Reference(g, core.Config{})
	worst := 0.0
	for _, u := range verts {
		s, ok := score(u)
		if !ok {
			return math.Inf(1)
		}
		worst = max(worst, math.Abs(s-ref[u]))
	}
	return worst
}
