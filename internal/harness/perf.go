package harness

import (
	"fmt"
	"runtime"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/gen"
	"dfpr/internal/topk"
)

// Fig1 regenerates Figure 1: computation time vs barrier wait time of
// barrier-based Static PageRank under dynamic vertex-chunk scheduling with
// chunk sizes 4 … 16384 (multiples of 16), on three web-class graphs.
func Fig1(o Options) []Section {
	o = o.norm()
	specs := gen.SuiteSparse12(o.Scale)
	webs := []gen.Spec{specs[5], specs[2], specs[0]} // sk-2005, uk-2005, indochina-2004
	chunks := []int{4, 64, 1024, 16384}
	if o.Quick {
		webs = webs[2:]
		chunks = []int{64, 16384}
	}
	t := topk.NewTable("Graph", "Chunk", "Runtime", "TotalWait", "Wait%")
	for _, spec := range webs {
		g := spec.Build().Snapshot()
		for _, chunk := range chunks {
			cfg := o.cfgFor(g.N())
			cfg.Chunk = chunk
			dur, res := timeRun(core.AlgoStaticBB, core.Input{GNew: g}, cfg, o.Reps)
			threadTime := float64(dur) * float64(cfg.Threads)
			share := 0.0
			if threadTime > 0 {
				share = 100 * float64(res.BarrierWait) / threadTime
			}
			t.AddRow(spec.Name, chunk, dur, res.BarrierWait, fmt.Sprintf("%.0f%%", share))
		}
	}
	return []Section{{
		Title: "Figure 1: computation vs barrier wait time (StaticBB, dynamic vertex chunks)",
		Note:  "Wait% = cumulative barrier wait / (threads × runtime). Expected shape: wait share grows with chunk size (coarse chunks strand threads at the barrier); tiny chunks instead pay scheduling overhead in runtime.",
		Table: t,
	}}
}

// Fig5 regenerates Figure 5: mean runtime of the six approaches on the two
// temporal graphs with batch sizes 1e-4·|E_T| and 1e-3·|E_T|, with DFLF
// speedup annotations. Each dynamic approach carries its own rank vector
// across batches, as a deployed system would.
func Fig5(o Options) []Section {
	o = o.norm()
	maxBatches := 20
	if o.Quick {
		maxBatches = 4
	}
	t := topk.NewTable("Graph", "BatchSize", "Algo", "MeanRuntime", "Batches")
	var note string
	for _, spec := range gen.Temporal2(o.Scale) {
		stream := spec.Build()
		for _, frac := range []float64{1e-4, 1e-3} {
			size := batchSizeFor(frac, len(stream))
			rep := batch.NewReplay(stream, spec.N, 0.9)
			cfg := o.cfgFor(spec.N)

			// Converge every approach's rank vector on the preloaded graph.
			g0 := rep.Graph().Snapshot()
			base := core.StaticBB(g0, cfg).Ranks
			prevOf := map[core.Algo][]float64{}
			for _, a := range sixAlgos {
				prevOf[a] = base
			}

			times := map[core.Algo][]float64{}
			batches := 0
			for batches < maxBatches {
				up, g, ok := rep.NextBatch(size)
				if !ok {
					break
				}
				batches++
				for _, a := range sixAlgos {
					in := core.Input{GNew: g, Del: up.Del, Ins: up.Ins, Prev: prevOf[a]}
					dur, res := timeRun(a, in, cfg, o.Reps)
					times[a] = append(times[a], float64(dur))
					prevOf[a] = res.Ranks
				}
			}
			label := fmt.Sprintf("%s @ %s", spec.Name, fmtFrac(frac))
			for _, a := range sixAlgos {
				t.AddRow(label, size, a.String(), time.Duration(topk.GeoMean(times[a])), batches)
			}
			note += label + " — " + geoSpeedupNote(times) + "\n"
		}
	}
	return []Section{{
		Title: "Figure 5: runtime on real-world dynamic graphs (temporal replay, 90% preload)",
		Note:  note + "Expected shape: DF fastest, LF ≥ BB per approach (paper: DFLF 2.5× NDLF, 1.6× DFBB on these graphs).",
		Table: t,
	}}
}

// Fig6 regenerates Figure 6: strong scaling of DFBB and DFLF on a fixed
// batch of 1e-4·|E| with thread counts 1,2,4,… — speedup relative to the
// single-threaded run of the same algorithm, geomeaned over graphs.
func Fig6(o Options) []Section {
	o = o.norm()
	threads := []int{1, 2, 4, 8, 16, 32, 64}
	if o.Quick {
		threads = []int{1, 2, 4}
	}
	specs := specsFor(o)
	algos := []core.Algo{core.AlgoDFBB, core.AlgoDFLF}
	base := map[core.Algo][]float64{} // 1-thread runtimes per graph
	speed := map[string][]float64{}   // key: algo/threads → speedups per graph
	for _, spec := range specs {
		p := prepare(spec, o)
		_, in, _ := makeBatch(p, 1e-4, o.Seed+int64(spec.Seed), false)
		for _, a := range algos {
			var t1 time.Duration
			for _, th := range threads {
				cfg := p.cfg
				cfg.Threads = th
				dur, _ := timeRun(a, in, cfg, o.Reps)
				if th == 1 {
					t1 = dur
					base[a] = append(base[a], float64(dur))
				}
				key := fmt.Sprintf("%s/%d", a, th)
				speed[key] = append(speed[key], topk.Speedup(t1, dur))
			}
		}
	}
	t := topk.NewTable("Threads", "DFBB speedup", "DFLF speedup")
	for _, th := range threads {
		t.AddRow(th,
			topk.GeoMean(speed[fmt.Sprintf("%s/%d", core.AlgoDFBB, th)]),
			topk.GeoMean(speed[fmt.Sprintf("%s/%d", core.AlgoDFLF, th)]))
	}
	return []Section{{
		Title: "Figure 6: strong scaling at batch 1e-4·|E| (speedup vs 1 thread)",
		Note: fmt.Sprintf("Host has %d hardware thread(s); speedups saturate there — the paper reports 14.5× (DFBB) and 21.3× (DFLF) at 64 cores on a 64-core EPYC. Workers beyond the core count time-slice and add only scheduling noise.",
			runtime.NumCPU()),
		Table: t,
	}}
}

// Fig7 regenerates Figure 7: per-graph and geomean runtime of the six
// approaches over batch fractions 1e-8 … 0.1, plus the L∞ error of DFBB and
// DFLF against reference ranks. Static runtimes are measured once per graph
// (they do not depend on the batch), exactly as the flat Static lines in the
// paper's plots suggest.
func Fig7(o Options) []Section {
	o = o.norm()
	fracs := fractionsFor(o)
	specs := specsFor(o)

	perGraph := topk.NewTable("Graph", "Batch", "StaticBB", "NDBB", "DFBB", "StaticLF", "NDLF", "DFLF")
	geoTimes := map[string]map[core.Algo][]float64{} // frac → algo → runtimes
	errTab := topk.NewTable("Batch", "DFBB err", "DFLF err", "NDLF err")
	errAgg := map[string][3][]float64{}
	for _, f := range fracs {
		geoTimes[fmtFrac(f)] = map[core.Algo][]float64{}
	}

	for _, spec := range specs {
		p := prepare(spec, o)
		cfg := p.cfg
		staticT := map[core.Algo]time.Duration{}
		for _, a := range []core.Algo{core.AlgoStaticBB, core.AlgoStaticLF} {
			staticT[a], _ = timeRun(a, core.Input{GNew: p.g}, cfg, o.Reps)
		}
		for fi, f := range fracs {
			_, in, ref := makeBatch(p, f, o.Seed+int64(fi)*991+spec.Seed, true)
			row := []interface{}{spec.Name, fmtFrac(f)}
			errs := map[core.Algo]float64{}
			for _, a := range sixAlgos {
				var dur time.Duration
				var res core.Result
				if a == core.AlgoStaticBB || a == core.AlgoStaticLF {
					dur = staticT[a]
				} else {
					dur, res = timeRun(a, in, cfg, o.Reps)
					errs[a] = topk.LInf(res.Ranks, ref)
				}
				row = append(row, dur)
				geoTimes[fmtFrac(f)][a] = append(geoTimes[fmtFrac(f)][a], float64(dur))
			}
			perGraph.AddRow(row...)
			agg := errAgg[fmtFrac(f)]
			agg[0] = append(agg[0], errs[core.AlgoDFBB])
			agg[1] = append(agg[1], errs[core.AlgoDFLF])
			agg[2] = append(agg[2], errs[core.AlgoNDLF])
			errAgg[fmtFrac(f)] = agg
		}
	}

	geo := topk.NewTable("Batch", "StaticBB", "NDBB", "DFBB", "StaticLF", "NDLF", "DFLF", "DFLF/NDLF", "DFLF/StaticLF")
	for _, f := range fracs {
		times := geoTimes[fmtFrac(f)]
		row := []interface{}{fmtFrac(f)}
		for _, a := range sixAlgos {
			row = append(row, time.Duration(topk.GeoMean(times[a])))
		}
		df := topk.GeoMean(times[core.AlgoDFLF])
		row = append(row,
			fmt.Sprintf("%.2f×", safeRatio(topk.GeoMean(times[core.AlgoNDLF]), df)),
			fmt.Sprintf("%.2f×", safeRatio(topk.GeoMean(times[core.AlgoStaticLF]), df)))
		geo.AddRow(row...)
	}
	for _, f := range fracs {
		agg := errAgg[fmtFrac(f)]
		errTab.AddRow(fmtFrac(f), maxOf(agg[0]), maxOf(agg[1]), maxOf(agg[2]))
	}

	return []Section{
		{
			Title: "Figure 7(a): runtime per graph over batch fractions",
			Table: perGraph,
		},
		{
			Title: "Figure 7(b): geomean runtime over batch fractions",
			Note:  "Expected shape: DFLF fastest for small batches (paper: 4.6× NDLF up to 1e-3·|E|), crossover to ND/Static beyond ~1e-3 as nearly every vertex becomes affected.",
			Table: geo,
		},
		{
			Title: "Figure 7(c): max L∞ error vs reference ranks",
			Note:  "Expected shape: DF error stays within [0, 1e-9) for τ=1e-10, with a bump around batch 1e-6…1e-4 and a drop at large batches (more vertices marked affected).",
			Table: errTab,
		},
	}
}

func safeRatio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Stability regenerates §5.2.3: delete a random batch, update ranks, insert
// the same edges back, update again, and compare the final ranks with the
// original graph's ranks (ideally identical).
func Stability(o Options) []Section {
	o = o.norm()
	fracs := fractionsFor(o)
	algos := []core.Algo{core.AlgoNDBB, core.AlgoNDLF, core.AlgoDFBB, core.AlgoDFLF}
	worst := map[core.Algo]float64{}
	for _, spec := range specsFor(o) {
		p := prepare(spec, o)
		cfg := p.cfg
		for fi, f := range fracs {
			dd := p.d.Clone()
			down := batch.Deletions(dd, batchSizeFor(f, p.g.M()), o.Seed+int64(fi)*37)
			gMid := batch.Transition(dd, down)
			up := down.Inverse()
			gBack := batch.Transition(dd, up)
			for _, a := range algos {
				r1 := core.Run(a, core.Input{GNew: gMid, Del: down.Del, Ins: down.Ins, Prev: p.ranks}, cfg)
				r2 := core.Run(a, core.Input{GNew: gBack, Del: up.Del, Ins: up.Ins, Prev: r1.Ranks}, cfg)
				if e := topk.LInf(r2.Ranks, p.ranks); e > worst[a] {
					worst[a] = e
				}
			}
		}
	}
	t := topk.NewTable("Algo", "Max L∞ vs original")
	for _, a := range algos {
		t.AddRow(a.String(), worst[a])
	}
	return []Section{{
		Title: "Stability (§5.2.3): delete batch → rank → reinsert → rank → compare",
		Note:  "Paper reports ≤ 5.7e-10 (BB) and ≤ 4.6e-10 (LF) across all batch sizes; anything of that order certifies the DF approach is stable.",
		Table: t,
	}}
}

// DTvsND regenerates the §3.5.2 observation that Dynamic Traversal cannot
// beat Naive-dynamic at any batch size: the reachability sweep marks most of
// the graph affected even for small batches.
func DTvsND(o Options) []Section {
	o = o.norm()
	fracs := fractionsFor(o)
	t := topk.NewTable("Graph", "Batch", "NDLF", "DTLF", "DT/ND", "DT affected frac")
	for _, spec := range specsFor(o) {
		p := prepare(spec, o)
		cfg := p.cfg
		for fi, f := range fracs {
			_, in, _ := makeBatch(p, f, o.Seed+int64(fi)*7, false)
			nd, _ := timeRun(core.AlgoNDLF, in, cfg, o.Reps)
			dt, dtRes := timeRun(core.AlgoDTLF, in, cfg, o.Reps)
			// Estimate the affected fraction from the work DT did: count
			// vertices whose final rank differs from the warm start.
			changed := 0
			for i, r := range dtRes.Ranks {
				if r != in.Prev[i] {
					changed++
				}
			}
			t.AddRow(spec.Name, fmtFrac(f), nd, dt,
				fmt.Sprintf("%.2f×", safeRatio(float64(dt), float64(nd))),
				float64(changed)/float64(len(dtRes.Ranks)))
		}
	}
	return []Section{{
		Title: "Dynamic Traversal vs Naive-dynamic (§3.5.2)",
		Note:  "Expected shape: DT/ND ≥ 1 across batch sizes — the BFS/DFS marking from updated regions reaches most of the graph, so DT pays traversal cost without saving rank work.",
		Table: t,
	}}
}

// TauF regenerates the §4.5 frontier-tolerance study: sweep τ_f = τ/10^k and
// report DFLF runtime and error, justifying the paper's τ_f = τ/1000.
func TauF(o Options) []Section {
	o = o.norm()
	divisors := []float64{0.1, 0.5, 1, 2, 10, 100, 1000}
	if o.Quick {
		divisors = []float64{0.1, 1, 100}
	}
	t := topk.NewTable("τ_f", "GeoMean runtime", "Max error")
	type acc struct {
		times []float64
		err   float64
	}
	accs := make([]acc, len(divisors))
	for _, spec := range specsFor(o) {
		p := prepare(spec, o)
		_, in, ref := makeBatch(p, 1e-4, o.Seed+spec.Seed, true)
		for di, div := range divisors {
			c := p.cfg
			c.FrontierTol = p.cfg.Tol / div
			dur, res := timeRun(core.AlgoDFLF, in, c, o.Reps)
			accs[di].times = append(accs[di].times, float64(dur))
			if e := topk.LInf(res.Ranks, ref); e > accs[di].err {
				accs[di].err = e
			}
		}
	}
	for di, div := range divisors {
		t.AddRow(fmt.Sprintf("τ/%.0e", div), time.Duration(topk.GeoMean(accs[di].times)), accs[di].err)
	}
	return []Section{{
		Title: "Frontier tolerance sweep (§4.5), batch 1e-4·|E|",
		Note:  "Expected shape: looser τ_f (small divisor) is faster but less accurate; tighter τ_f floods the frontier with warm-start residual noise at this scale (the paper's τ/1000 works at 1e7-vertex scale where the residual floor is far below τ_f — see DESIGN.md). The knee sits near τ_f = τ here.",
		Table: t,
	}}
}

// Ablate measures the one rank-loop choice still open, chunk size, on DFLF
// at batch 1e-4·|E|.
func Ablate(o Options) []Section {
	o = o.norm()
	chunkSizes := []int{256, 2048, 16384}
	if o.Quick {
		chunkSizes = []int{2048}
	}
	t := topk.NewTable("Chunk", "GeoMean runtime")
	times := make([][]float64, len(chunkSizes))
	for _, spec := range specsFor(o) {
		p := prepare(spec, o)
		_, in, _ := makeBatch(p, 1e-4, o.Seed+spec.Seed, false)
		for i, chunk := range chunkSizes {
			c := p.cfg
			c.Chunk = chunk
			dur, _ := timeRun(core.AlgoDFLF, in, c, o.Reps)
			times[i] = append(times[i], float64(dur))
		}
	}
	for i, chunk := range chunkSizes {
		t.AddRow(chunk, time.Duration(topk.GeoMean(times[i])))
	}
	return []Section{{
		Title: "Ablation: chunk size (DFLF)",
		Note:  "Chunk size trades scheduling overhead against load balance (cf. Figure 1).",
		Table: t,
	}}
}
