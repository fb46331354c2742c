package core

import (
	"context"
	"sync"
	"testing"

	"dfpr/internal/avec"
	"dfpr/internal/gen"
	"dfpr/internal/graph"
)

// One pass of each kernel's gather over every vertex of RMAT 2^16×16 with
// self-loops (the stream-rank graph), single-threaded, reported per in-edge,
// and the floor of a DF-LF run on that graph:
//
//	go test -run '^$' -bench 'LFPass|BBPass|KernelFactors|DFLFFloor' ./internal/core
//
// LF ÷ BB is the price of the lock-free gather over the barrier kernel's;
// KernelFactors is the O(n) part of NewState, which a run handed a patched
// State skips. DFLFFloor is an empty-batch DF-LF run at 2 threads, what a
// refresh costs besides its passes: "state" hands it a State built once, as
// a snapshot.Ranker does, and "run" goes through Run, which builds one per
// run.

var passGraph = sync.OnceValue(func() *graph.CSR {
	d := gen.RMAT(16, 16, 1)
	d.EnsureSelfLoops()
	return d.Snapshot()
})

func reportPerEdge(b *testing.B, g *graph.CSR) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.M()), "ns/edge")
}

func BenchmarkLFPass(b *testing.B) {
	g := passGraph()
	n := g.N()
	ainv, dinv := kernelFactors(g, DefaultDamping)
	_, cb := lfVectors(nil, ainv)
	contribs := avec.F64Of(cb)
	base := (1 - DefaultDamping) / float64(n)
	out := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range out {
			out[v] = rankOfCachedAtomic(g, contribs, base, dinv[v], uint32(v))
		}
	}
	reportPerEdge(b, g)
}

func BenchmarkBBPass(b *testing.B) {
	g := passGraph()
	n := g.N()
	ainv, _ := kernelFactors(g, DefaultDamping)
	contribs := make([]float64, n)
	for v := range contribs {
		contribs[v] = ainv[v] / float64(n)
	}
	base := (1 - DefaultDamping) / float64(n)
	out := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range out {
			out[v] = rankOfCached(g, contribs, base, uint32(v))
		}
	}
	reportPerEdge(b, g)
}

func BenchmarkKernelFactors(b *testing.B) {
	g := passGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelFactors(g, DefaultDamping)
	}
}

func BenchmarkDFLFFloor(b *testing.B) {
	g := passGraph()
	cfg := Config{Threads: 2}
	in := Input{GNew: g, Prev: StaticLF(g, cfg).Ranks}
	st := NewState(g, cfg)
	b.Run("state", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RunState(context.Background(), AlgoDFLF, in, cfg, st)
		}
	})
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Run(AlgoDFLF, in, cfg)
		}
	})
}
