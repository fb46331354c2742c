package core

import (
	"math"
	"slices"
	"testing"

	"dfpr/internal/batch"
	"dfpr/internal/gen"
	"dfpr/internal/graph"
)

// TestStatePatchMatchesFresh patches one State across random batches,
// growth included, with chunks small enough that a graph has dozens of
// them. After each patch the factors equal kernelFactors of the new graph
// bit for bit; the bounds equal vertexBounds of the graph they were last
// cut on, and they are re-cut exactly when the graph grew or its edge count
// drifted by more than 1/boundsDrift since that cut. Patching again with
// the same lists changes nothing.
func TestStatePatchMatchesFresh(t *testing.T) {
	cfg := Config{Chunk: 4}
	d := gen.RMAT(8, 4, 7)
	d.EnsureSelfLoops()
	g := d.Snapshot()
	st := NewState(g, cfg)
	cut, recuts, grows := g, 0, 0
	for i := 0; i < 120; i++ {
		up := batch.Random(d, 2+i%9, int64(i))
		if i%3 == 0 {
			// Deletions alone, so the edge count drifts down until a cut.
			up = batch.Deletions(d, 20, int64(i))
		}
		if i%40 == 25 {
			up.N = d.N() + 1 + i%70
			grows++
		}
		g = batch.Transition(d, up)
		for range 2 {
			st.Patch(g, up.Del, up.Ins)
			ainv, dinv := kernelFactors(g, cfg.withDefaults().Alpha)
			if !sameBits(st.ainv, ainv) || !sameBits(st.dinv, dinv) {
				t.Fatalf("batch %d: patched factors differ from kernelFactors", i)
			}
			if dm := g.M() - cut.M(); g.N() != cut.N() || boundsDrift*max(dm, -dm) > cut.M() {
				cut = g
				recuts++
			}
			if want := vertexBounds(cut, cfg.Chunk); !slices.Equal(st.bounds, want) {
				t.Fatalf("batch %d: bounds %v, want those cut at m=%d: %v", i, st.bounds, cut.M(), want)
			}
		}
	}
	if recuts <= grows {
		t.Errorf("%d re-cuts over %d growths: the drift rule never fired", recuts, grows)
	}
}

// TestRunStateRefusesForeignState: a State built for another graph size or
// configuration is a caller's bug, caught before the run starts.
func TestRunStateRefusesForeignState(t *testing.T) {
	g := smallGraph()
	for name, st := range map[string]*State{
		"size":  NewState(graph.NewDynamic(3).Snapshot(), Config{}),
		"alpha": NewState(g, Config{Alpha: 0.5}),
		"chunk": NewState(g, Config{Chunk: 1}),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("RunState accepted a State of another graph or configuration")
				}
			}()
			RunState(t.Context(), AlgoDFLF, Input{GNew: g}, Config{}, st)
		})
	}
}

// sameBits reports whether a and b hold the same float64s, bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
