package core

import (
	"slices"
	"testing"

	"dfpr/internal/avec"
	"dfpr/internal/batch"
	"dfpr/internal/gen"
	"dfpr/internal/graph"
)

// markFlags runs one variant's marker over every distinct batch-edge source
// of in, on one goroutine, and returns VA and RC as read back from the
// flags. With lockFree unset the marker gets no RC, as in a barrier-based
// run, and rc is nil.
func markFlags(vr variant, in Input, lockFree bool) (va, rc []bool) {
	n := in.GNew.N()
	vaF := avec.NewFlags(n)
	var rcF *avec.Flags
	if lockFree {
		rcF = avec.NewFlags(n)
	}
	edges, del := batchEdges(in)
	mk := newMarker(vr, in.GNew, del, vaF, rcF)
	done := map[uint32]bool{}
	for _, e := range edges {
		if !done[e.U] {
			done[e.U] = true
			mk.markFrom(e.U)
		}
	}
	read := func(f *avec.Flags) []bool {
		out := make([]bool, n)
		for v := range out {
			out[v] = f.Get(v)
		}
		return out
	}
	if rcF != nil {
		rc = read(rcF)
	}
	return read(vaF), rc
}

// unionMarks is the paper's initial affected set, computed from the G^{t-1}
// the caller holds: out_{G^{t-1}}(u) ∪ out_{G^t}(u) for every batch-edge
// source u (DF, Algorithms 1–2), closed under reachability in G^t for DT
// (Algorithms 7–8).
func unionMarks(vr variant, gOld *graph.CSR, in Input) []bool {
	g := in.GNew
	want := make([]bool, g.N())
	var stack []uint32
	mark := func(v uint32) {
		if !want[v] {
			want[v] = true
			stack = append(stack, v)
		}
	}
	for _, e := range append(append([]graph.Edge(nil), in.Del...), in.Ins...) {
		if int(e.U) < gOld.N() {
			for _, v := range gOld.Out(e.U) {
				mark(v)
			}
		}
		for _, v := range g.Out(e.U) {
			mark(v)
		}
	}
	for vr == vDT && len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Out(v) {
			mark(w)
		}
	}
	return want
}

// markDiff lists the vertices where got and want differ, split by side.
func markDiff(got, want []bool) (extra, missing []uint32) {
	for v := range want {
		switch {
		case got[v] && !want[v]:
			extra = append(extra, uint32(v))
		case !got[v] && want[v]:
			missing = append(missing, uint32(v))
		}
	}
	return extra, missing
}

// TestMarkingReadsNewGraphAndDeletions pins the markers' reading of
// G^{t-1}: they walk G^t and the targets of u's deletions, never G^{t-1}
// itself, and must still mark exactly the paper's union computed from a
// G^{t-1} held here. Seeded mixed batches run on RMAT, a ring and a road
// lattice, through both markers, with RC (lock-free) and without
// (barrier-based). A merged span that inserts an edge to a new vertex and
// then deletes it again ends with that edge in Del but in neither graph:
// there the markers may mark more than the union, and only that churned
// deletion target.
func TestMarkingReadsNewGraphAndDeletions(t *testing.T) {
	shapes := map[string]func() *graph.Dynamic{
		"rmat": func() *graph.Dynamic { return gen.RMAT(9, 8, 3) },
		"ring": func() *graph.Dynamic {
			const n = 200
			d := graph.NewDynamic(n)
			for u := uint32(0); u < n; u++ {
				d.AddEdge(u, (u+1)%n)
			}
			return d
		},
		"road": func() *graph.Dynamic { return gen.RoadGrid(16, 16, 0.05, 4) },
	}
	variants := map[string]variant{"DF": vDF, "DT": vDT}
	check := func(t *testing.T, label string, gOld *graph.CSR, in Input, churned int) {
		t.Helper()
		for vname, vr := range variants {
			want := unionMarks(vr, gOld, in)
			if churned >= 0 {
				if want[churned] {
					t.Fatalf("%s %s: fixture marks the churned target %d without its deletion", label, vname, churned)
				}
				want[churned] = true
			}
			for _, lockFree := range []bool{true, false} {
				va, rc := markFlags(vr, in, lockFree)
				if extra, missing := markDiff(va, want); len(extra)+len(missing) > 0 {
					t.Errorf("%s %s lock-free=%v: VA has %v beyond the union, lacks %v", label, vname, lockFree, extra, missing)
				}
				if !lockFree {
					continue
				}
				if extra, missing := markDiff(rc, want); len(extra)+len(missing) > 0 {
					t.Errorf("%s %s: RC has %v beyond the union, lacks %v", label, vname, extra, missing)
				}
			}
		}
	}
	for name, build := range shapes {
		t.Run(name, func(t *testing.T) {
			d := build()
			d.EnsureSelfLoops()
			for step := int64(0); step < 3; step++ {
				up := batch.Random(d, 24, 10*step+1)
				if len(up.Del) == 0 {
					t.Fatalf("batch %d has no deletions", step)
				}
				gOld := d.Snapshot()
				gNew := batch.Transition(d, up)
				check(t, "batch", gOld, Input{GNew: gNew, Del: up.Del, Ins: up.Ins}, -1)
			}

			gOld := d.Snapshot()
			n := uint32(gOld.N())
			span := []batch.Update{
				batch.Random(d, 16, 99),
				{Ins: []graph.Edge{{U: 7, V: n}}},
				{Del: []graph.Edge{{U: 7, V: n}}},
			}
			var gNew *graph.CSR
			for _, up := range span {
				gNew = batch.Transition(d, up)
			}
			merged := batch.Merge(span...)
			merged.Del = merged.ClampDel(gNew.N())
			if gNew.HasEdge(7, n) || !slices.Contains(merged.Del, graph.Edge{U: 7, V: n}) {
				t.Fatalf("span did not leave the churn edge (7,%d) deleted", n)
			}
			check(t, "merged span", gOld, Input{GNew: gNew, Del: merged.Del, Ins: merged.Ins}, int(n))
		})
	}
}
