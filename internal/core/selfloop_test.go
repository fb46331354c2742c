package core

import (
	"math"
	"testing"

	"dfpr/internal/avec"
	"dfpr/internal/batch"
	"dfpr/internal/graph"
	"dfpr/internal/topk"
)

// errBudget is the distance from the fixed point a converged lock-free run
// owes at cfg's tolerance: every visited vertex ended with Δr ≤ τ, and the
// residual of v's equation is (1 − α/d_v)·Δr ≤ Δr under the self-loop
// solve, so the vector is within ατ/(1−α) in L∞.
func errBudget(cfg Config) float64 {
	cfg = cfg.withDefaults()
	return cfg.Alpha * cfg.Tol / (1 - cfg.Alpha)
}

// TestSelfLoopSolveCutsPasses pins the point of solving the self-loop: on
// one worker, where pass counts are deterministic, ND-LF and DF-LF finish
// in at least 1.5× fewer passes than the sequential model running the plain
// update r_v = b + Σ_{u∈in(v)} contrib[u] over the same input — the dead
// ends that contracted by α per pass now land in one — and still end
// within the error budget of the reference.
func TestSelfLoopSolveCutsPasses(t *testing.T) {
	in, gOld := rmatInput(10)
	cfg := testCfg()
	cfg.Threads = 1
	ref := Reference(in.GNew, Config{})
	for _, tc := range []struct {
		a  Algo
		vr variant
	}{{AlgoNDLF, vND}, {AlgoDFLF, vDF}} {
		plain := modelLF(tc.vr, in, gOld, cfg, true)
		got := Run(tc.a, in, cfg)
		if got.Err != nil || !got.Converged {
			t.Fatalf("%v: converged=%v err=%v", tc.a, got.Converged, got.Err)
		}
		if plain.passes >= int64(cfg.MaxIter) {
			t.Fatalf("%v: plain-update model did not converge in %d passes", tc.a, plain.passes)
		}
		if float64(plain.passes) < 1.5*float64(got.Iterations) {
			t.Errorf("%v: %d passes, plain update %d; want ≥ 1.5× fewer", tc.a, got.Iterations, plain.passes)
		}
		if e := topk.LInf(got.Ranks, ref); e > errBudget(cfg) {
			t.Errorf("%v: %g from the reference, budget %g", tc.a, e, errBudget(cfg))
		}
		t.Logf("%v: %d passes (plain update %d)", tc.a, got.Iterations, plain.passes)
	}
}

// TestSelfLoopSolveWithoutSelfLoops covers vertices with no self-loop to
// solve: a ring with chords built without EnsureSelfLoops, a self-loop on
// every fifth vertex only. The kernel must give a loopless vertex the plain
// sum bit for bit and solve exactly the looped ones, and every lock-free
// engine must still converge to the reference — before a batch and after.
func TestSelfLoopSolveWithoutSelfLoops(t *testing.T) {
	const n = 60
	d := graph.NewDynamic(n)
	for u := uint32(0); u < n; u++ {
		d.AddEdge(u, (u+1)%n)
		if u%3 == 0 {
			d.AddEdge(u, (u+7)%n)
		}
		if u%5 == 0 {
			d.AddEdge(u, u)
		}
	}
	gOld := d.Snapshot()
	cfg := testCfg()
	ainv, dinv := kernelFactors(gOld, cfg.withDefaults().Alpha)
	contribs := avec.NewF64(n)
	for v := 0; v < n; v++ {
		contribs.Store(v, float64(v+1)*ainv[v]/n)
	}
	const base = 0.15 / n
	for v := uint32(0); v < n; v++ {
		others := base
		for _, u := range gOld.In(v) {
			if u != v {
				others += contribs.Load(int(u))
			}
		}
		got := rankOfCachedAtomic(gOld, contribs, base, dinv[v], v)
		if v%5 != 0 && got != others {
			t.Fatalf("loopless %d: kernel %v, plain sum %v", v, got, others)
		}
		if v%5 == 0 && math.Abs(got-(others+ainv[v]*got)) > 1e-15*got {
			t.Fatalf("looped %d: kernel %v does not solve r = %v + %v·r", v, got, others, ainv[v])
		}
	}

	ref := Reference(gOld, Config{})
	for name, res := range map[string]Result{"StaticLF": StaticLF(gOld, cfg), "StaticLFNS": StaticLFNS(gOld, cfg)} {
		if !res.Converged || res.Err != nil {
			t.Fatalf("%s: converged=%v err=%v", name, res.Converged, res.Err)
		}
		if e := topk.LInf(res.Ranks, ref); e > errBudget(cfg) {
			t.Errorf("%s: %g from the reference, budget %g", name, e, errBudget(cfg))
		}
	}

	prev := Reference(gOld, Config{})
	ins := []graph.Edge{{U: 4, V: 31}, {U: 17, V: 2}}
	d.Apply(nil, ins)
	gNew := d.Snapshot()
	ref = Reference(gNew, Config{})
	in := Input{GNew: gNew, Ins: ins, Prev: prev}
	for _, a := range []Algo{AlgoNDLF, AlgoDTLF, AlgoDFLF} {
		res := Run(a, in, cfg)
		if !res.Converged || res.Err != nil {
			t.Fatalf("%v: converged=%v err=%v", a, res.Converged, res.Err)
		}
		if e := topk.LInf(res.Ranks, ref); e > errBudget(cfg) {
			t.Errorf("%v: %g from the reference, budget %g", a, e, errBudget(cfg))
		}
	}
}

// TestSelfLoopSolveStarOfDeadEnds: a hub on a cycle fans out to four dead
// ends whose only out-edge is their self-loop, each fixed point far from the
// uniform start. The cycle runs against the id order, so a change moves one
// hop per pass and the hub takes dozens of passes to settle. Solved, a dead
// end lands on its fixed point in the pass after the hub's contribution
// does: one pass of lag (the dead ends take the lower ids, so they read the
// hub's value from the pass before), one that observes Δr ≤ τ everywhere,
// and one of slack, as a dead end's error is 5.67/outdeg(hub) times the
// hub's. Under the plain update each dead end closes its error by α per
// pass and trails the hub by more (hub within τ after 88 passes, star
// converged after 94).
func TestSelfLoopSolveStarOfDeadEnds(t *testing.T) {
	const leaves, cycle = 4, 16
	hub := uint32(leaves)
	d := graph.NewDynamic(leaves + cycle)
	for i := uint32(0); i < cycle; i++ {
		d.AddEdge(hub+(i+1)%cycle, hub+i)
	}
	for v := uint32(0); v < leaves; v++ {
		d.AddEdge(hub, v)
	}
	d.EnsureSelfLoops()
	g := d.Snapshot()
	ref := Reference(g, Config{})
	cfg := testCfg()
	cfg.Threads = 1
	tol := cfg.withDefaults().Tol

	settled := 0 // first pass after which the hub is within τ of its fixed point
	for p := 1; p <= cfg.MaxIter && settled == 0; p++ {
		c := cfg
		c.MaxIter = p
		if r := StaticLF(g, c).Ranks; r[hub]-ref[hub] <= tol && ref[hub]-r[hub] <= tol {
			settled = p
		}
	}
	if settled == 0 {
		t.Fatal("hub never settled")
	}
	res := StaticLF(g, cfg)
	if !res.Converged || res.Err != nil {
		t.Fatalf("converged=%v err=%v", res.Converged, res.Err)
	}
	if res.Iterations > settled+3 {
		t.Errorf("star converged in %d passes, hub settled after %d; want ≤ %d", res.Iterations, settled, settled+3)
	}
	if e := topk.LInf(res.Ranks, ref); e > errBudget(cfg) {
		t.Errorf("%g from the reference, budget %g", e, errBudget(cfg))
	}
	t.Logf("hub settled after %d passes, star converged in %d", settled, res.Iterations)
}

// descendingRingInput is ringInput with every edge reversed, u → u-1: each
// vertex's one other in-neighbour has the higher id, so a change moves one
// hop per pass against the sweep order, and every out-neighbour of a moved
// vertex has already been passed when it moves.
func descendingRingInput(n int) Input {
	d := graph.NewDynamic(n)
	for u := 0; u < n; u++ {
		d.AddEdge(uint32(u), uint32((u+n-1)%n))
	}
	d.EnsureSelfLoops()
	gOld := d.Snapshot()
	prev := StaticBB(gOld, Config{Tol: 1e-16, Threads: 1}).Ranks
	up := batch.Update{Ins: []graph.Edge{{U: uint32(n - 1), V: uint32(n / 2)}}}
	gNew := batch.Transition(d, up)
	return Input{GNew: gNew, Ins: up.Ins, Prev: prev}
}

// TestSelfLoopSolveTrailingWorkers: with the default chunk size a small
// graph's pass is one chunk, so workers sweep it in consecutive rounds close
// behind each other. The trailing worker re-solves a vertex the leader has
// just moved, from the same inputs, finds Δr = 0 and clears its RC while the
// out-neighbours it already passed still hold values from before the move.
// runLF's settle ticket keeps the run going until a full round issued after
// the last move has been swept; without it 30–60 % of these runs ended
// beyond the error budget (up to 70 τ on rmat10, 1e-3 on the ring).
func TestSelfLoopSolveTrailingWorkers(t *testing.T) {
	rmat, _ := rmatInput(10)
	for name, in := range map[string]Input{"rmat10": rmat, "ring64-descending": descendingRingInput(64)} {
		ref := Reference(in.GNew, Config{})
		for _, threads := range []int{2, 4} {
			cfg := Config{Tol: 1e-10, Threads: threads}
			for _, a := range []Algo{AlgoStaticLF, AlgoNDLF, AlgoDFLF} {
				for i := 0; i < 10; i++ {
					res := Run(a, in, cfg)
					if !res.Converged || res.Err != nil {
						t.Fatalf("%s %v threads=%d: converged=%v err=%v", name, a, threads, res.Converged, res.Err)
					}
					if e := topk.LInf(res.Ranks, ref); e > errBudget(cfg) {
						t.Fatalf("%s %v threads=%d: %g from the reference, budget %g", name, a, threads, e, errBudget(cfg))
					}
				}
			}
		}
	}
}
