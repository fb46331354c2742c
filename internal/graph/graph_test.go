package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func mustValid(t *testing.T, g *CSR) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesBasics(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {2, 1}, {3, 3}, {0, 1}}) // one duplicate
	mustValid(t, g)
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if got := g.Out(0); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("Out(0) = %v", got)
	}
	if got := g.In(1); !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Errorf("In(1) = %v", got)
	}
	if g.OutDeg(0) != 2 || g.InDeg(1) != 2 || g.OutDeg(1) != 0 {
		t.Error("degree queries wrong")
	}
	if !g.HasEdge(3, 3) || g.HasEdge(1, 0) {
		t.Error("HasEdge wrong")
	}
	if g.DeadEnds() != 1 { // vertex 1 has no out-edges
		t.Errorf("DeadEnds = %d", g.DeadEnds())
	}
}

func TestFromEdgesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromEdges(2, []Edge{{0, 5}})
}

func TestEdgesRoundTripProperty(t *testing.T) {
	// Building a CSR from random edges and reading Edges() back must yield
	// exactly the deduplicated sorted edge set.
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%64 + 2
		m := int(mRaw) % 300
		rng := rand.New(rand.NewSource(seed))
		edges := make([]Edge, m)
		set := map[Edge]struct{}{}
		for i := range edges {
			e := Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
			edges[i] = e
			set[e] = struct{}{}
		}
		g := FromEdges(n, edges)
		if g.Validate() != nil {
			return false
		}
		got := g.Edges(nil)
		if len(got) != len(set) {
			return false
		}
		for _, e := range got {
			if _, ok := set[e]; !ok {
				return false
			}
		}
		// In-adjacency must be the exact transpose.
		for _, e := range got {
			found := false
			for _, u := range g.In(e.V) {
				if u == e.U {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestInOutEdgeCountsAgree(t *testing.T) {
	g := FromEdges(50, randomEdges(50, 400, 1))
	mustValid(t, g)
	inSum, outSum := 0, 0
	for v := uint32(0); int(v) < g.N(); v++ {
		inSum += g.InDeg(v)
		outSum += g.OutDeg(v)
	}
	if inSum != outSum || inSum != g.M() {
		t.Errorf("in=%d out=%d m=%d", inSum, outSum, g.M())
	}
}

func randomEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	return edges
}

func TestDynamicAddDel(t *testing.T) {
	d := NewDynamic(3)
	if !d.AddEdge(0, 1) || d.AddEdge(0, 1) {
		t.Error("AddEdge transition reporting wrong")
	}
	if d.M() != 1 || !d.HasEdge(0, 1) {
		t.Error("state after add wrong")
	}
	if !d.DelEdge(0, 1) || d.DelEdge(0, 1) {
		t.Error("DelEdge transition reporting wrong")
	}
	if d.M() != 0 || d.HasEdge(0, 1) {
		t.Error("state after delete wrong")
	}
}

func TestDynamicAdjacencyStaysSorted(t *testing.T) {
	d := NewDynamic(10)
	order := []uint32{7, 2, 9, 0, 4, 8, 1, 3}
	for _, v := range order {
		d.AddEdge(5, v)
	}
	row := d.Out(5)
	if !sort.SliceIsSorted(row, func(i, j int) bool { return row[i] < row[j] }) {
		t.Errorf("adjacency not sorted: %v", row)
	}
	d.DelEdge(5, 4)
	row = d.Out(5)
	for _, v := range row {
		if v == 4 {
			t.Error("deleted edge still present")
		}
	}
}

func TestApplyInverseRestoresGraphProperty(t *testing.T) {
	// Apply(del, ins) followed by Apply(ins, del) must restore the original
	// edge set — the foundation of the stability experiment.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		d := NewDynamic(n)
		for i := 0; i < 200; i++ {
			d.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		before := d.Snapshot()
		var del, ins []Edge
		for i := 0; i < 20; i++ {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if d.HasEdge(u, v) {
				del = append(del, Edge{u, v})
			} else {
				ins = append(ins, Edge{u, v})
			}
		}
		d.Apply(del, ins)
		d.Apply(ins, del)
		after := d.Snapshot()
		if before.M() != after.M() {
			return false
		}
		ea, eb := before.Edges(nil), after.Edges(nil)
		return reflect.DeepEqual(ea, eb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEnsureSelfLoopsRemovesDeadEnds(t *testing.T) {
	d := NewDynamic(5)
	d.AddEdge(0, 1)
	d.EnsureSelfLoops()
	g := d.Snapshot()
	mustValid(t, g)
	if g.DeadEnds() != 0 {
		t.Errorf("dead ends remain: %d", g.DeadEnds())
	}
	if g.M() != 6 { // 5 self-loops + 1 edge
		t.Errorf("m = %d", g.M())
	}
	// Idempotent.
	d.EnsureSelfLoops()
	if d.M() != 6 {
		t.Error("EnsureSelfLoops not idempotent")
	}
}

// TestEnsureSelfLoopsIncremental checks the looped-prefix and lost-loop
// bookkeeping against an oracle: seeded random interleavings of Grow,
// AddEdge, DelEdge (self-loops included), Snapshot, Clone and a
// DynamicFromCSR round trip, with every EnsureSelfLoops compared row for
// row against a Clone — which starts with an empty prefix, so its ensure
// is the full O(n) pass — taken just before it. Snapshots after growth
// also exercise the delta merge over a base with fewer rows.
func TestEnsureSelfLoopsIncremental(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewDynamic(4)
		for step := 0; step < 600; step++ {
			n := d.N()
			switch op := rng.Intn(12); {
			case op == 0:
				d.Grow(n + rng.Intn(4))
			case op <= 3:
				d.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
			case op <= 5:
				v := uint32(rng.Intn(n))
				d.DelEdge(v, v)
			case op == 6:
				d.DelEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
			case op <= 8:
				want := d.Clone()
				want.EnsureSelfLoops()
				d.EnsureSelfLoops()
				if d.M() != want.M() {
					t.Fatalf("seed %d step %d: M = %d, full ensure %d", seed, step, d.M(), want.M())
				}
				for v := uint32(0); int(v) < n; v++ {
					if !d.HasEdge(v, v) {
						t.Fatalf("seed %d step %d: vertex %d has no self-loop", seed, step, v)
					}
					if !reflect.DeepEqual(d.Out(v), want.Out(v)) {
						t.Fatalf("seed %d step %d: row %d = %v, full ensure %v", seed, step, v, d.Out(v), want.Out(v))
					}
				}
			case op == 9:
				g := d.Snapshot()
				mustValid(t, g)
				csrEqual(t, g, rebuildReference(d), "snapshot")
			case op == 10:
				d = d.Clone()
			default:
				d = DynamicFromCSR(d.Snapshot())
			}
		}
	}
}

func TestSnapshotIsImmutableCopy(t *testing.T) {
	d := NewDynamic(3)
	d.AddEdge(0, 1)
	g := d.Snapshot()
	d.AddEdge(0, 2)
	d.DelEdge(0, 1)
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Error("snapshot mutated by later graph updates")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	d := NewDynamic(3)
	d.AddEdge(0, 1)
	c := d.Clone()
	c.AddEdge(1, 2)
	if d.HasEdge(1, 2) {
		t.Error("clone mutation leaked into original")
	}
	if c.M() != 2 || d.M() != 1 {
		t.Errorf("m mismatch: clone=%d orig=%d", c.M(), d.M())
	}

	// A clone taken while the original owns dirty rows over a base: each
	// then changes an owned row and a base row, and neither sees the other.
	d = DynamicFromCSR(FromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 3}}))
	d.AddEdge(0, 2)
	d.DelEdge(1, 2)
	c = d.Clone()
	d.AddEdge(0, 3)
	d.DelEdge(2, 0)
	c.DelEdge(0, 1)
	c.AddEdge(1, 4)
	for _, tc := range []struct {
		name string
		d    *Dynamic
		want []Edge
	}{
		{"original", d, []Edge{{0, 1}, {0, 2}, {0, 3}, {3, 3}}},
		{"clone", c, []Edge{{0, 2}, {1, 4}, {2, 0}, {3, 3}}},
	} {
		g := tc.d.Snapshot()
		mustValid(t, g)
		csrEqual(t, g, FromEdges(6, tc.want), tc.name+" over a base")
	}
}

// TestDynamicNeverWritesBase: a Dynamic reads its unchanged rows from its
// base CSR and copies a row out on its first change, so no CSR it adopts or
// builds is ever written. Seeded AddEdge/DelEdge (self-loops included),
// Grow, EnsureSelfLoops, Snapshot and Clone run over an adopted CSR; at the
// end every base it had still holds the edges it was built with and passes
// Validate. Every snapshot equals a cold rebuild of the graph before it,
// and leaves the Dynamic owning no row.
func TestDynamicNeverWritesBase(t *testing.T) {
	deepCopy := func(g *CSR) *CSR { return FromEdges(g.n, g.Edges(nil)) }
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := FromEdges(120, loopyEdges(rng, 120, 900))
		bases := [][2]*CSR{{g, deepCopy(g)}}
		d := DynamicFromCSR(g)
		pick := func(d *Dynamic) (uint32, uint32) {
			u := uint32(rng.Intn(d.N()))
			if row := d.Out(u); len(row) > 0 && rng.Intn(2) == 0 {
				return u, row[rng.Intn(len(row))] // an edge that exists
			}
			return u, uint32(rng.Intn(d.N()))
		}
		for step := 0; step < 600; step++ {
			u, v := pick(d)
			switch op := rng.Intn(12); {
			case op <= 2:
				d.AddEdge(u, v)
			case op <= 5:
				d.DelEdge(u, v)
			case op == 6:
				d.DelEdge(u, u)
			case op == 7:
				d.Grow(d.N() + rng.Intn(3))
			case op == 8:
				d.EnsureSelfLoops()
			case op == 9:
				want := rebuildReference(d)
				c := d.Clone()
				for i := 0; i < 8; i++ {
					cu, cv := pick(c)
					c.DelEdge(cu, cv)
					c.AddEdge(cv, cu)
				}
				csrEqual(t, c.Snapshot(), rebuildReference(c), "clone")
				csrEqual(t, rebuildReference(d), want, "original after its clone changed")
			default:
				want := rebuildReference(d)
				snap := d.Snapshot
				if op == 10 {
					snap = d.SnapshotFull
				}
				s := snap()
				csrEqual(t, s, want, fmt.Sprintf("seed %d step %d: snapshot", seed, step))
				for u, row := range d.adj {
					if row != nil {
						t.Fatalf("seed %d step %d: row %d still owned after a snapshot", seed, step, u)
					}
				}
				bases = append(bases, [2]*CSR{s, deepCopy(s)})
			}
		}
		for i, b := range bases {
			csrEqual(t, b[0], b[1], fmt.Sprintf("seed %d: base %d after later writes", seed, i))
			mustValid(t, b[0])
		}
	}
}

func TestDynamicFromCSRRoundTrip(t *testing.T) {
	g := FromEdges(20, randomEdges(20, 80, 9))
	d := DynamicFromCSR(g)
	g2 := d.Snapshot()
	if !reflect.DeepEqual(g.Edges(nil), g2.Edges(nil)) {
		t.Error("CSR→Dynamic→CSR changed the edge set")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}})
	mustValid(t, g)
	// Corrupt the adjacency: out-of-range neighbour.
	g.Out(0)[0] = 99
	if g.Validate() == nil {
		t.Error("Validate missed out-of-range neighbour")
	}
}

func TestAvgOutDeg(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.AvgOutDeg() != 1 {
		t.Errorf("AvgOutDeg = %v", g.AvgOutDeg())
	}
	empty := FromEdges(0, nil)
	if empty.AvgOutDeg() != 0 {
		t.Error("empty graph avg degree not 0")
	}
}
