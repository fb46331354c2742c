package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/fault"
	"dfpr/internal/graph"
	"dfpr/internal/topk"
)

// lfModel is a sequential model of the lock-free rank loop on one worker,
// the yardstick the single-threaded kernel is pinned against bit for bit.
// DF-LF walks out(v) on the first visit whose Δr exceeds τ_f. ND-LF is the
// same loop with every vertex affected and no walk. One worker takes
// the chunks of every pass in order, so the kernel's visit order is the
// model's. With plain set the model runs the update the kernel ran before
// it solved each vertex's self-loop, r_v = b + Σ_{u∈in(v)} contrib[u].
// The model marks as the paper states it, from out(u) in gOld (G^{t-1}) and
// in G^t for every batch-edge source u, so it does not share the kernel's
// reading of G^{t-1} from the deletions.
type lfModel struct {
	ranks                 []float64
	visits, walks, passes int64
	affected              int // |VA| at exit
}

func modelLF(vr variant, in Input, gOld *graph.CSR, cfg Config, plain bool) lfModel {
	cfg = cfg.withDefaults()
	g := in.GNew
	n := g.N()
	base := (1 - cfg.Alpha) / float64(n)
	ainv, dinv := kernelFactors(g, cfg.Alpha)
	m := lfModel{ranks: append([]float64(nil), in.Prev...)}
	contrib := make([]float64, n)
	for v := range contrib {
		contrib[v] = m.ranks[v] * ainv[v]
	}
	va, rc, ex := make([]bool, n), make([]bool, n), make([]bool, n)
	if vr == vND {
		for v := range va {
			va[v], rc[v] = true, true
		}
	}
	for _, e := range append(append([]graph.Edge(nil), in.Del...), in.Ins...) {
		for _, v := range append(slices.Clone(gOld.Out(e.U)), g.Out(e.U)...) {
			va[v], rc[v] = true, true
		}
	}
	pending := func() bool {
		for _, f := range rc {
			if f {
				return true
			}
		}
		return false
	}
	bounds := vertexBounds(g, cfg.Chunk)
	for ; m.passes < int64(cfg.MaxIter); m.passes++ {
		for c := 0; c+1 < len(bounds); c++ {
			for v := bounds[c]; v < bounds[c+1]; v++ {
				if !va[v] {
					continue
				}
				m.visits++
				nr := base
				for _, u := range g.In(uint32(v)) {
					if plain || u != uint32(v) {
						nr += contrib[u]
					}
				}
				if !plain {
					nr *= dinv[v]
				}
				dr := math.Abs(nr - m.ranks[v])
				contrib[v], m.ranks[v] = nr*ainv[v], nr
				if vr == vDF && dr > cfg.FrontierTol && !ex[v] {
					m.walks++
					for _, w := range g.Out(uint32(v)) {
						va[w], rc[w] = true, true
					}
					ex[v] = true
				}
				rc[v] = dr > cfg.Tol
			}
			if !pending() {
				m.passes++
				for _, f := range va {
					if f {
						m.affected++
					}
				}
				return m
			}
		}
	}
	return m
}

// ringInput is a directed ring with self-loops, converged, then perturbed by
// one chord. Every moving vertex has its successor as out-neighbour and
// vertex n-1's successor is vertex 0 — the lower-index neighbour through
// which a per-visit walk re-arms a pass that would otherwise have ended.
// The G^{t-1} the batch was applied to is returned beside the Input.
func ringInput(n int) (Input, *graph.CSR) {
	d := graph.NewDynamic(n)
	for u := 0; u < n; u++ {
		d.AddEdge(uint32(u), uint32((u+1)%n))
	}
	d.EnsureSelfLoops()
	gOld := d.Snapshot()
	prev := StaticBB(gOld, Config{Tol: 1e-16, Threads: 1}).Ranks
	up := batch.Update{Ins: []graph.Edge{{U: 0, V: uint32(n / 2)}}}
	gNew := batch.Transition(d, up)
	return Input{GNew: gNew, Ins: up.Ins, Prev: prev}, gOld
}

func rmatInput(scale int) (Input, *graph.CSR) {
	d := randomGraph(scale, 31)
	gOld := d.Snapshot()
	prev := StaticBB(gOld, testCfg()).Ranks
	up := batch.Random(d, 10, 32)
	gNew := batch.Transition(d, up)
	return Input{GNew: gNew, Del: up.Del, Ins: up.Ins, Prev: prev}, gOld
}

// TestExpandOnceMatchesModel pins the expansion rule on one worker, where
// the kernel is deterministic: ranks bit for bit, visits, walks and passes
// equal to the sequential model's, which makes FrontierExpanded at most the
// number of vertices ever affected.
func TestExpandOnceMatchesModel(t *testing.T) {
	rmat, rmatOld := rmatInput(10)
	ring, ringOld := ringInput(64)
	for _, tc := range []struct {
		name string
		in   Input
		gOld *graph.CSR
	}{{"rmat10", rmat, rmatOld}, {"ring64", ring, ringOld}} {
		name, in, gOld := tc.name, tc.in, tc.gOld
		cfg := testCfg()
		cfg.Threads = 1
		want := modelLF(vDF, in, gOld, cfg, false)
		got := Run(AlgoDFLF, in, cfg)
		if got.Err != nil || !got.Converged {
			t.Fatalf("%s: converged=%v err=%v", name, got.Converged, got.Err)
		}
		for v := range want.ranks {
			if got.Ranks[v] != want.ranks[v] {
				t.Fatalf("%s: rank[%d] = %v, model %v", name, v, got.Ranks[v], want.ranks[v])
			}
		}
		if got.FrontierScanned != want.visits || got.FrontierExpanded != want.walks || int64(got.Iterations) != want.passes {
			t.Errorf("%s: visits/walks/passes = %d/%d/%d, model %d/%d/%d", name,
				got.FrontierScanned, got.FrontierExpanded, got.Iterations, want.visits, want.walks, want.passes)
		}
		if got.FrontierExpanded > int64(want.affected) {
			t.Errorf("%s: %d out-edge walks for %d affected vertices", name, got.FrontierExpanded, want.affected)
		}
	}
}

// TestExpandOnceBoundedUnderThreads is the multi-worker side of the walk
// bound. A worker sets the expanded flag after its own walk, so it walks a
// vertex at most once; two workers in overlapping passes may both find the
// flag clear, which the bound allows for. A per-visit walk would be passes ×
// frontier, an order of magnitude above it.
func TestExpandOnceBoundedUnderThreads(t *testing.T) {
	rmat, _ := rmatInput(10)
	ring, _ := ringInput(64)
	for name, in := range map[string]Input{"rmat10": rmat, "ring64": ring} {
		cfg := testCfg()
		res := Run(AlgoDFLF, in, cfg)
		if res.Err != nil || !res.Converged {
			t.Fatalf("%s: converged=%v err=%v", name, res.Converged, res.Err)
		}
		if limit := int64(cfg.Threads * in.GNew.N()); res.FrontierExpanded == 0 || res.FrontierExpanded > limit {
			t.Errorf("%s: %d out-edge walks, want 1..%d (%d visits)", name, res.FrontierExpanded, limit, res.FrontierScanned)
		}
		for _, a := range []Algo{AlgoNDLF, AlgoDTLF, AlgoDFBB} {
			if r := Run(a, in, cfg); r.FrontierExpanded != 0 {
				t.Errorf("%s: %v reports %d DF-LF walks", name, a, r.FrontierExpanded)
			}
		}
	}
}

// TestExpandOnceStoppingRule pins the stopping rule from both sides on the
// graph where it differs from a per-visit walk. A ring keeps re-arming a
// per-visit walk through the n-1 → 0 edge until every Δr is below τ_f
// (under the plain update: 64 passes against ND-LF's 50 on this input,
// ending 2e-12 from the fixed point); expanding once, DF-LF stops where
// ND-LF does — every visited vertex within τ — and owes the same error
// budget, ατ/(1−α). With the self-loop solved, a pass over this ring in id
// order is nearly a forward substitution, and one worker stops after 3
// passes on either rule.
func TestExpandOnceStoppingRule(t *testing.T) {
	in, _ := ringInput(64)
	fixed := StaticBB(in.GNew, Config{Tol: 1e-16, Threads: 1}).Ranks
	for _, threads := range []int{1, 4} {
		cfg := testCfg()
		cfg.Threads = threads
		nd := Run(AlgoNDLF, in, cfg)
		df := Run(AlgoDFLF, in, cfg)
		if !nd.Converged || !df.Converged {
			t.Fatalf("threads=%d: converged nd=%v df=%v", threads, nd.Converged, df.Converged)
		}
		// Iterations is the highest pass index any worker reached, which a
		// lagging worker inflates; only one worker makes it comparable.
		if d := df.Iterations - nd.Iterations; threads == 1 && (d < -2 || d > 2) {
			t.Errorf("DF-LF ran %d passes, ND-LF %d; want within ±2", df.Iterations, nd.Iterations)
		}
		cfg = cfg.withDefaults()
		budget := cfg.Alpha * cfg.Tol / (1 - cfg.Alpha) * 1.5
		if e := topk.LInf(df.Ranks, fixed); e > budget {
			t.Errorf("threads=%d: DF-LF is %g from the fixed point, budget %g", threads, e, budget)
		}
	}
}

// TestExpandOnceSurvivesFaults runs DF-LF under an immediate crash plan, a
// mid-run crash horizon and random delays: a worker that dies after setting
// some expanded flags, or between a walk and its flag, must not strand a
// vertex the survivors need.
func TestExpandOnceSurvivesFaults(t *testing.T) {
	in := faultInput(t)
	ref := Reference(in.GNew, Config{})
	plans := map[string]fault.Plan{
		"crash at first chunk": {CrashWorkers: fault.CrashSet(2, 4), Seed: 8},
		"crash mid-run":        {CrashWorkers: fault.CrashSet(3, 4), CrashHorizon: 2000, Seed: 9},
		"delays and a crash": {DelayProb: 1e-3, DelayDur: 200 * time.Microsecond,
			CrashWorkers: fault.CrashSet(1, 4), CrashHorizon: 500, Seed: 10},
	}
	for name, plan := range plans {
		cfg := testCfg()
		cfg.Fault = plan
		res := Run(AlgoDFLF, in, cfg)
		if !res.Converged || res.Err != nil {
			t.Fatalf("%s: converged=%v err=%v", name, res.Converged, res.Err)
		}
		// A horizon crash fires only on a worker that gets that far before
		// the others finish the run, so only the immediate plan has a count.
		if plan.CrashHorizon == 0 && res.CrashedWorkers != len(plan.CrashWorkers) {
			t.Errorf("%s: %d workers crashed, plan names %d", name, res.CrashedWorkers, len(plan.CrashWorkers))
		}
		if e := topk.LInf(res.Ranks, ref); e > 1e-8 {
			t.Errorf("%s: error %g", name, e)
		}
	}
}
