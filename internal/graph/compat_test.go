package graph_test

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"dfpr/internal/batch"
	"dfpr/internal/core"
	"dfpr/internal/gen"
	"dfpr/internal/graph"
)

// TestContainerSortedInRowsLoadSelfFirst: a container written before
// in-rows led with their self-loop (every in-row ascending, the loop
// mid-row) still decodes, in both modes, to the layout every producer
// emits today, without writing the buffer, and DF-LF on it — a delta
// snapshot over the decoded graph included — is DF-LF on FromEdges of the
// same edges, bit for bit. Left in the old layout, the lock-free kernel
// would miss every loop it does not find first and run the unsolved update.
func TestContainerSortedInRowsLoadSelfFirst(t *testing.T) {
	d := gen.RMAT(10, 8, 5)
	d.EnsureSelfLoops()
	want := graph.FromEdges(d.N(), d.Snapshot().Edges(nil))
	cur := want.AppendContainer(nil)
	old := editInRows(cur, func(_ uint32, row []uint32) { slices.Sort(row) })
	if bytes.Equal(old, cur) {
		t.Fatal("fixture has no self-loop past the front of its in-row")
	}

	cfg := core.Config{Threads: 1}
	up := batch.Random(graph.DynamicFromCSR(want), 40, 9)
	dflf := func(g *graph.CSR) []float64 {
		d := graph.DynamicFromCSR(g)
		d.Apply(up.Del, up.Ins)
		d.EnsureSelfLoops()
		prev := core.StaticLF(g, cfg).Ranks
		res := core.Run(core.AlgoDFLF, core.Input{GNew: d.Snapshot(), Del: up.Del, Ins: up.Ins, Prev: prev}, cfg)
		if !res.Converged {
			t.Fatal("DF-LF did not converge")
		}
		return res.Ranks
	}
	ref := dflf(want)

	for _, alias := range []bool{false, true} {
		b := bytes.Clone(old)
		got, err := graph.DecodeContainer(b, alias)
		if err != nil {
			t.Fatalf("alias=%v: %v", alias, err)
		}
		if !bytes.Equal(b, old) {
			t.Fatalf("alias=%v: decode wrote the container buffer", alias)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("alias=%v: %v", alias, err)
		}
		for v := uint32(0); int(v) < got.N(); v++ {
			if in := got.In(v); in[0] != v || !reflect.DeepEqual(in, want.In(v)) {
				t.Fatalf("alias=%v: In(%d) = %v, want %v", alias, v, in, want.In(v))
			}
		}
		if !reflect.DeepEqual(got.Edges(nil), want.Edges(nil)) {
			t.Fatalf("alias=%v: edge set changed", alias)
		}
		if !bytes.Equal(got.AppendContainer(nil), cur) {
			t.Fatalf("alias=%v: re-encodes to other bytes than today's layout", alias)
		}
		for v, r := range dflf(got) {
			if math.Float64bits(r) != math.Float64bits(ref[v]) {
				t.Fatalf("alias=%v: DF-LF rank %d = %v, %v on FromEdges", alias, v, r, ref[v])
			}
		}
	}
}
