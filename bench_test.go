package dfpr

// One benchmark per table and figure of the paper's evaluation (§5), plus
// micro-benchmarks for the kernels the figures bottleneck on. The figure
// benchmarks run the harness drivers in Quick mode at reduced scale so the
// full suite completes in a couple of minutes; `cmd/prbench` runs the
// full-scale versions.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/fault"
	"dfpr/internal/gen"
	"dfpr/internal/graph"
	"dfpr/internal/harness"
	"dfpr/internal/snapshot"
)

// benchOpts mirror the harness test options: tiny but real.
func benchOpts() harness.Options {
	return harness.Options{Scale: 0.15, Threads: 4, Quick: true, Seed: 11}
}

func runExperiment(b *testing.B, id string) {
	exp, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		secs := exp.Run(benchOpts())
		if len(secs) == 0 {
			b.Fatal("no output")
		}
	}
}

// BenchmarkFig1_BarrierWait regenerates Figure 1 (computation vs barrier
// wait over chunk sizes).
func BenchmarkFig1_BarrierWait(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable1_TemporalDatasets regenerates Table 1.
func BenchmarkTable1_TemporalDatasets(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2_StaticDatasets regenerates Table 2.
func BenchmarkTable2_StaticDatasets(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig5_TemporalGraphs regenerates Figure 5 (six approaches on
// temporal streams).
func BenchmarkFig5_TemporalGraphs(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6_StrongScaling regenerates Figure 6 (thread scaling).
func BenchmarkFig6_StrongScaling(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7_BatchFractionSweep regenerates Figure 7 (runtime and error
// over batch fractions).
func BenchmarkFig7_BatchFractionSweep(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkStability regenerates the §5.2.3 delete-then-reinsert study.
func BenchmarkStability(b *testing.B) { runExperiment(b, "stability") }

// BenchmarkFig8_RandomDelays regenerates Figure 8 (random thread delays).
func BenchmarkFig8_RandomDelays(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9_ThreadCrashes regenerates Figure 9 (crash-stop failures).
func BenchmarkFig9_ThreadCrashes(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkDTvsND regenerates the §3.5.2 DT-vs-ND comparison.
func BenchmarkDTvsND(b *testing.B) { runExperiment(b, "dt") }

// BenchmarkTauFSweep regenerates the §4.5 frontier-tolerance sweep.
func BenchmarkTauFSweep(b *testing.B) { runExperiment(b, "tauf") }

// BenchmarkAblation runs the flag/convergence/chunk ablations.
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablate") }

// ---------------------------------------------------------------------------
// Micro-benchmarks: per-algorithm cost on a fixed mid-size update, the unit
// of work every figure above aggregates.

type fixture struct {
	in   core.Input
	cfg  core.Config
	prev []float64
}

func newFixture(class gen.Class, n, deg, size int) fixture {
	spec := gen.Spec{Name: "bench", Class: class, N: n, Deg: deg, Seed: 3}
	d := spec.Build()
	g := d.Snapshot()
	cfg := core.Config{Threads: 4, Tol: 1e-3 / float64(g.N())}
	cfg.FrontierTol = cfg.Tol
	prev := core.StaticBB(g, cfg).Ranks
	up := batch.Random(d, size, 17)
	gNew := batch.Transition(d, up)
	return fixture{
		in:  core.Input{GNew: gNew, Del: up.Del, Ins: up.Ins, Prev: prev},
		cfg: cfg,
	}
}

func benchAlgo(b *testing.B, a core.Algo, f fixture) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Run(a, f.in, f.cfg)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

func BenchmarkAlgoStaticBB(b *testing.B) {
	benchAlgo(b, core.AlgoStaticBB, newFixture(gen.Web, 1<<13, 12, 16))
}

func BenchmarkAlgoStaticLF(b *testing.B) {
	benchAlgo(b, core.AlgoStaticLF, newFixture(gen.Web, 1<<13, 12, 16))
}

func BenchmarkAlgoNDBB(b *testing.B) {
	benchAlgo(b, core.AlgoNDBB, newFixture(gen.Web, 1<<13, 12, 16))
}

func BenchmarkAlgoNDLF(b *testing.B) {
	benchAlgo(b, core.AlgoNDLF, newFixture(gen.Web, 1<<13, 12, 16))
}

func BenchmarkAlgoDTLF(b *testing.B) {
	benchAlgo(b, core.AlgoDTLF, newFixture(gen.Web, 1<<13, 12, 16))
}

func BenchmarkAlgoDFBB(b *testing.B) {
	benchAlgo(b, core.AlgoDFBB, newFixture(gen.Web, 1<<13, 12, 16))
}

func BenchmarkAlgoDFLF(b *testing.B) {
	benchAlgo(b, core.AlgoDFLF, newFixture(gen.Web, 1<<13, 12, 16))
}

// BenchmarkAlgoDFLFRoad exercises the sparse/high-diameter case the paper
// highlights as DF's best regime.
func BenchmarkAlgoDFLFRoad(b *testing.B) {
	benchAlgo(b, core.AlgoDFLF, newFixture(gen.Road, 1<<13, 3, 8))
}

// BenchmarkAlgoDFLFUnderDelays measures the fault-injected hot path.
func BenchmarkAlgoDFLFUnderDelays(b *testing.B) {
	f := newFixture(gen.Web, 1<<12, 8, 8)
	f.cfg.Fault = fault.Plan{DelayProb: 1e-4, DelayDur: 100 * time.Microsecond, Seed: 9}
	benchAlgo(b, core.AlgoDFLF, f)
}

// ---------------------------------------------------------------------------
// PR 1 benchmarks: the incremental snapshot pipeline, measured in isolation.

// largestSpec returns the largest Table 2 stand-in (the sk-2005 class: most
// edges of the generator suite) from the suite itself.
func largestSpec(b *testing.B) gen.Spec {
	b.Helper()
	for _, s := range gen.SuiteSparse12(1) {
		if s.Name == "sk-2005" {
			return s
		}
	}
	b.Fatal("sk-2005 missing from gen.SuiteSparse12")
	return gen.Spec{}
}

// snapshotFixture returns the largest stand-in with a mixed batch at the
// given fraction of |E|.
func snapshotFixture(b *testing.B, fraction float64) (*graph.Dynamic, batch.Update) {
	b.Helper()
	d := largestSpec(b).Build()
	d.Snapshot() // establish the delta base
	size := int(fraction * float64(d.M()))
	if size < 2 {
		size = 2
	}
	return d, batch.Random(d, size, 23)
}

func benchSnapshot(b *testing.B, fraction float64, full bool) {
	d, up := snapshotFixture(b, fraction)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%2 == 0 {
			d.Apply(up.Del, up.Ins)
		} else {
			d.Apply(up.Ins, up.Del) // undo, so graph state stays bounded
		}
		b.StartTimer()
		if full {
			d.SnapshotFull()
		} else {
			d.Snapshot()
		}
	}
}

// BenchmarkStoreApplyGrowth measures one write round's store cost on RMAT
// 2^16×16: Store.Apply of a 10-edit batch (5 deletions, 5 insertions, one
// of which names a new vertex), i.e. growth, edits, the self-loop ensure
// and the delta snapshot together — the round an open-universe engine pays
// per batch.
func BenchmarkStoreApplyGrowth(b *testing.B) {
	d := gen.RMAT(16, 16, 5)
	s := snapshot.NewStore(d, 0)
	g := s.Current().G
	n := uint32(g.N())
	edges := g.Edges(nil)
	rng := rand.New(rand.NewSource(7))
	ups := make([]batch.Update, b.N)
	for i := range ups {
		up := &ups[i]
		for len(up.Del) < 5 {
			if e := edges[rng.Intn(len(edges))]; e.U != e.V {
				up.Del = append(up.Del, e)
			}
		}
		for j := 0; j < 4; j++ {
			up.Ins = append(up.Ins, graph.Edge{U: uint32(rng.Intn(int(n))), V: uint32(rng.Intn(int(n)))})
		}
		up.Ins = append(up.Ins, graph.Edge{U: uint32(rng.Intn(int(n))), V: n + uint32(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range ups {
		s.Apply(ups[i])
	}
}

// BenchmarkEngineHeap reports what an engine holds, in CSRs (ROADMAP table
// (g)): an engine on RMAT 2^16×16 with loops runs its first Rank, then 20
// rounds of Apply (1e-5·|E| edits) and Rank at 2 threads. Its size is
// HeapInuse after two GCs before Close, minus the same after Close with the
// engine dropped; one CSR is CSR.Bytes of the initial graph.
func BenchmarkEngineHeap(b *testing.B) {
	for _, history := range []int{2, 8} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			g, edges, ups := engineHeapInputs(16)
			var held float64
			for i := 0; i < b.N; i++ {
				held += engineHeld(b, g, edges, ups, history)
			}
			held /= float64(b.N)
			b.ReportMetric(held, "CSRs")
			b.ReportMetric(held*float64(g.Bytes())/(1<<20), "MiB")
		})
	}
}

// TestEngineHeapBound asserts ROADMAP item 13's bound on what an engine
// holds, measured as BenchmarkEngineHeap measures it but on RMAT 2^14×16:
// at WithHistory(8) the engine's live heap is at most 2.5 CSRs, and the six
// versions it retains beyond WithHistory(2) add at most 0.75 CSR between
// them. With a flat CSR per version the gap was about 6.4 CSRs.
func TestEngineHeapBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory swamps the heap figures")
	}
	g, edges, ups := engineHeapInputs(14)
	h2 := engineHeld(t, g, edges, ups, 2)
	h8 := engineHeld(t, g, edges, ups, 8)
	t.Logf("history 2: %.2f CSRs, history 8: %.2f CSRs", h2, h8)
	if h8 > 2.5 {
		t.Errorf("history 8 holds %.2f CSRs, want ≤ 2.5", h8)
	}
	if h8-h2 > 0.75 {
		t.Errorf("history 8 holds %.2f CSRs more than history 2, want ≤ 0.75", h8-h2)
	}
}

// engineHeapInputs returns the initial graph of RMAT 2^scale×16 with loops,
// its edge list and 20 rounds of 1e-5·|E| random edits for engineHeld.
func engineHeapInputs(scale int) (*graph.CSR, []Edge, []batch.Update) {
	d := gen.RMAT(scale, 16, 5)
	d.EnsureSelfLoops()
	g := d.Snapshot()
	edges := toPublic(g.Edges(nil))
	ups := make([]batch.Update, 20)
	for i := range ups {
		ups[i] = batch.Random(d, max(1, g.M()/100_000), int64(i))
		d.Apply(ups[i].Del, ups[i].Ins)
	}
	return g, edges, ups
}

// engineHeld runs engineHeapRun and returns the heap the engine held, in
// CSRs of g.
func engineHeld(tb testing.TB, g *graph.CSR, edges []Edge, ups []batch.Update, history int) float64 {
	before := engineHeapRun(tb, g.N(), edges, ups, history)
	return (float64(before) - float64(liveHeap())) / float64(g.Bytes())
}

// engineHeapRun builds and runs BenchmarkEngineHeap's engine and returns the
// live heap measured just before its Close. The engine is unreachable once
// it returns.
func engineHeapRun(tb testing.TB, n int, edges []Edge, ups []batch.Update, history int) uint64 {
	ctx := context.Background()
	eng, err := New(n, edges, WithThreads(2), WithHistory(history))
	if err != nil {
		tb.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Rank(ctx); err != nil {
		tb.Fatal(err)
	}
	for _, up := range ups {
		if _, err := eng.Apply(ctx, toPublic(up.Del), toPublic(up.Ins)); err != nil {
			tb.Fatal(err)
		}
		if _, err := eng.Rank(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	return liveHeap()
}

// liveHeap is HeapInuse after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// BenchmarkEnsureSelfLoops measures a no-op EnsureSelfLoops on an already
// looped RMAT 2^16×16 graph — the dead-end elimination every store round
// re-runs.
func BenchmarkEnsureSelfLoops(b *testing.B) {
	d := gen.RMAT(16, 16, 5)
	d.EnsureSelfLoops()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.EnsureSelfLoops()
	}
}

// BenchmarkSnapshotDelta1e4 measures the delta-merge snapshot at batch
// fraction 1e-4 — the acceptance target is ≥2× over the full rebuild below.
func BenchmarkSnapshotDelta1e4(b *testing.B) { benchSnapshot(b, 1e-4, false) }

// BenchmarkSnapshotFull1e4 measures the cold full rebuild on the identical
// mutation sequence.
func BenchmarkSnapshotFull1e4(b *testing.B) { benchSnapshot(b, 1e-4, true) }

// BenchmarkSnapshotDelta1e3 / Full1e3: the largest batch fraction the paper
// sweeps.
func BenchmarkSnapshotDelta1e3(b *testing.B) { benchSnapshot(b, 1e-3, false) }
func BenchmarkSnapshotFull1e3(b *testing.B)  { benchSnapshot(b, 1e-3, true) }
