package batch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dfpr/internal/gen"
	"dfpr/internal/graph"
)

func testGraph(seed int64) *graph.Dynamic {
	d := gen.RMAT(8, 6, seed)
	d.EnsureSelfLoops()
	return d
}

func TestRandomBatchComposition(t *testing.T) {
	d := testGraph(1)
	up := Random(d, 40, 7)
	if len(up.Del) != 20 || len(up.Ins) != 20 {
		t.Fatalf("del=%d ins=%d, want 20/20", len(up.Del), len(up.Ins))
	}
	for _, e := range up.Del {
		if !d.HasEdge(e.U, e.V) {
			t.Errorf("deletion (%d,%d) not an existing edge", e.U, e.V)
		}
		if e.U == e.V {
			t.Error("self-loop selected for deletion")
		}
	}
	for _, e := range up.Ins {
		if d.HasEdge(e.U, e.V) {
			t.Errorf("insertion (%d,%d) already present", e.U, e.V)
		}
		if e.U == e.V {
			t.Error("self-loop insertion")
		}
	}
	if up.Size() != 40 {
		t.Errorf("Size = %d", up.Size())
	}
}

func TestRandomBatchDoesNotMutate(t *testing.T) {
	d := testGraph(2)
	before := d.Snapshot().Edges(nil)
	Random(d, 30, 3)
	after := d.Snapshot().Edges(nil)
	if !reflect.DeepEqual(before, after) {
		t.Error("Random mutated the graph")
	}
}

func TestDeletionsAreDistinct(t *testing.T) {
	d := testGraph(3)
	up := Deletions(d, 50, 11)
	seen := map[graph.Edge]struct{}{}
	for _, e := range up.Del {
		if _, dup := seen[e]; dup {
			t.Fatalf("duplicate deletion %v", e)
		}
		seen[e] = struct{}{}
	}
	if len(up.Ins) != 0 {
		t.Error("pure-deletion batch has insertions")
	}
}

func TestInverse(t *testing.T) {
	up := Update{Del: []graph.Edge{{U: 1, V: 2}}, Ins: []graph.Edge{{U: 3, V: 4}}}
	inv := up.Inverse()
	if !reflect.DeepEqual(inv.Ins, up.Del) || !reflect.DeepEqual(inv.Del, up.Ins) {
		t.Error("Inverse did not swap")
	}
}

func TestMergeLastOpWins(t *testing.T) {
	e := func(u, v uint32) graph.Edge { return graph.Edge{U: u, V: v} }
	got := Merge(
		Update{Del: []graph.Edge{e(0, 1)}, Ins: []graph.Edge{e(2, 3), e(4, 5)}},
		Update{Del: []graph.Edge{e(4, 5), e(6, 7)}, Ins: []graph.Edge{e(0, 1)}},
		Update{Ins: []graph.Edge{e(6, 7), e(2, 3)}}, // duplicate ins collapses
	)
	wantDel := []graph.Edge{e(4, 5)}
	wantIns := []graph.Edge{e(0, 1), e(2, 3), e(6, 7)}
	sortEdges := func(s []graph.Edge) {
		for i := range s {
			for j := i + 1; j < len(s); j++ {
				if s[j].U < s[i].U || (s[j].U == s[i].U && s[j].V < s[i].V) {
					s[i], s[j] = s[j], s[i]
				}
			}
		}
	}
	sortEdges(got.Del)
	sortEdges(got.Ins)
	sortEdges(wantIns)
	if !reflect.DeepEqual(got.Del, wantDel) || !reflect.DeepEqual(got.Ins, wantIns) {
		t.Errorf("Merge = del %v ins %v, want del %v ins %v", got.Del, got.Ins, wantDel, wantIns)
	}
	// A del/ins of the same edge inside one update means present (del runs
	// first), and churn across updates keeps only the final op.
	churn := Merge(Update{Del: []graph.Edge{e(1, 2)}, Ins: []graph.Edge{e(1, 2)}})
	if len(churn.Del) != 0 || !reflect.DeepEqual(churn.Ins, []graph.Edge{e(1, 2)}) {
		t.Errorf("same-update del+ins: %+v", churn)
	}
	if empty := Merge(); empty.Size() != 0 {
		t.Errorf("empty merge: %+v", empty)
	}
}

// TestMergeEquivalentToSequentialApplication is the contract the coalescing
// ingest pipeline rests on: applying Merge(u1..uk) as one batch leaves the
// edge set exactly where applying u1..uk one after another would (self-loop
// re-ensuring excepted — coalesced application never materialises the
// intermediate dead-ends, which is the documented semantics of one merged
// batch).
func TestMergeEquivalentToSequentialApplication(t *testing.T) {
	f := func(seed int64) bool {
		seq := testGraph(seed)
		merged := seq.Clone()
		var ups []Update
		for i := 0; i < 4; i++ {
			up := Random(seq, 16, seed+int64(100*i))
			ups = append(ups, up)
			seq.Apply(up.Del, up.Ins) // no EnsureSelfLoops: pure set semantics
		}
		m := Merge(ups...)
		merged.Apply(m.Del, m.Ins)
		return reflect.DeepEqual(seq.Snapshot().Edges(nil), merged.Snapshot().Edges(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMergeDeterministicOrder(t *testing.T) {
	d := testGraph(9)
	ups := []Update{Random(d, 20, 1), Random(d, 20, 2), Random(d, 20, 3)}
	a := Merge(ups...)
	b := Merge(ups...)
	if !reflect.DeepEqual(a, b) {
		t.Error("Merge of the same sequence differs between calls")
	}
}

// refMerge is Merge as a standalone model: one pass over the sequence,
// first-touch order, last op per edge, the largest N.
func refMerge(ups []Update) Update {
	var out Update
	lastDel := map[graph.Edge]bool{}
	var order []graph.Edge
	note := func(e graph.Edge, del bool) {
		if _, seen := lastDel[e]; !seen {
			order = append(order, e)
		}
		lastDel[e] = del
	}
	for _, up := range ups {
		out.N = max(out.N, up.N)
		for _, e := range up.Del {
			note(e, true)
		}
		for _, e := range up.Ins {
			note(e, false)
		}
	}
	for _, e := range order {
		if lastDel[e] {
			out.Del = append(out.Del, e)
		} else {
			out.Ins = append(out.Ins, e)
		}
	}
	return out
}

// randomSpan draws k updates over a pool of p pairs, so edges repeat and
// are deleted after they were inserted, with pure-growth and empty updates
// among them; every third update carries no time.
func randomSpan(rng *rand.Rand, k, p int) ([]Update, []time.Time) {
	ups := make([]Update, k)
	ats := make([]time.Time, k)
	pair := func() graph.Edge { i := rng.Intn(p); return graph.Edge{U: uint32(i % 7), V: uint32(i)} }
	for i := range ups {
		switch rng.Intn(6) {
		case 0:
			ups[i] = Update{N: rng.Intn(100)} // pure growth
		case 1: // empty
		default:
			for range rng.Intn(5) {
				ups[i].Del = append(ups[i].Del, pair())
			}
			for range rng.Intn(5) {
				ups[i].Ins = append(ups[i].Ins, pair())
			}
			ups[i].N = rng.Intn(3) * 20
		}
		if i%3 != 0 {
			ats[i] = time.Unix(int64(1000+i), 0)
		}
	}
	return ups, ats
}

func wantEdits(ups []Update) int {
	edits := 0
	for _, up := range ups {
		edits += max(up.Size(), 1)
	}
	return edits
}

func firstTime(ats []time.Time) time.Time {
	for _, at := range ats {
		if !at.IsZero() {
			return at
		}
	}
	return time.Time{}
}

// TestMergerMatchesMerge: a Merger fed a sequence one update at a time
// builds bitwise the update Merge (and the standalone model) builds from
// the whole sequence, and counts its raw edits and first non-zero time;
// Absorb of a later span is bitwise Adding both spans in order. The fixed
// row is why Absorb exists: re-merging a merged span lists its deletions
// before its insertions, so Merge(Merge(a, b), c) is not Merge(a, b, c).
func TestMergerMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := range 300 {
		ups, ats := randomSpan(rng, 1+rng.Intn(12), 1+rng.Intn(30))
		var m Merger
		for i, up := range ups {
			m.Add(up, ats[i])
		}
		want := Merge(ups...)
		if got := m.Update(); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(want, refMerge(ups)) {
			t.Fatalf("trial %d: Add over %+v\n= %+v\nMerge %+v\nmodel %+v", trial, ups, got, want, refMerge(ups))
		}
		if m.Edits() != wantEdits(ups) || !m.Oldest().Equal(firstTime(ats)) {
			t.Fatalf("trial %d: edits %d oldest %v, want %d %v", trial, m.Edits(), m.Oldest(), wantEdits(ups), firstTime(ats))
		}

		cut := rng.Intn(len(ups) + 1)
		var a, b Merger
		for i, up := range ups {
			if i < cut {
				a.Add(up, ats[i])
			} else {
				b.Add(up, ats[i])
			}
		}
		a.Absorb(&b)
		if got := a.Update(); !reflect.DeepEqual(got, want) || a.Edits() != m.Edits() || !a.Oldest().Equal(m.Oldest()) {
			t.Fatalf("trial %d: Absorb at %d of %+v\n= %+v (%d edits, %v)\nwant %+v (%d edits, %v)",
				trial, cut, ups, got, a.Edits(), a.Oldest(), want, m.Edits(), m.Oldest())
		}
	}

	e := func(u, v uint32) graph.Edge { return graph.Edge{U: u, V: v} }
	a := Update{Ins: []graph.Edge{e(1, 2)}}
	b := Update{Del: []graph.Edge{e(3, 4)}}
	c := Update{Ins: []graph.Edge{e(3, 4)}}
	flat := Merge(a, b, c)
	if want := []graph.Edge{e(1, 2), e(3, 4)}; !reflect.DeepEqual(flat.Ins, want) {
		t.Fatalf("Merge(a, b, c).Ins = %v, want %v", flat.Ins, want)
	}
	if nested := Merge(Merge(a, b), c); reflect.DeepEqual(nested, flat) {
		t.Errorf("Merge(Merge(a, b), c) = %+v equals Merge(a, b, c): the counterexample no longer holds", nested)
	}
	var ab, cm Merger
	ab.Add(a, time.Time{})
	ab.Add(b, time.Time{})
	cm.Add(c, time.Time{})
	ab.Absorb(&cm)
	if got := ab.Update(); !reflect.DeepEqual(got, flat) {
		t.Errorf("Absorb = %+v, want Merge(a, b, c) = %+v", got, flat)
	}
}

func TestTransitionSnapshotsAndSelfLoops(t *testing.T) {
	d := testGraph(4)
	mBefore := d.M()
	up := Random(d, 20, 5)
	gOld := d.Snapshot()
	gNew := Transition(d, up)
	if gOld.M() != mBefore {
		t.Errorf("gOld edges %d, want %d", gOld.M(), mBefore)
	}
	if gNew.DeadEnds() != 0 {
		t.Error("self-loops not re-ensured after transition")
	}
	for _, e := range up.Del {
		if gNew.HasEdge(e.U, e.V) {
			t.Errorf("deleted edge (%d,%d) still in gNew", e.U, e.V)
		}
		if !gOld.HasEdge(e.U, e.V) {
			t.Errorf("deleted edge (%d,%d) missing from gOld", e.U, e.V)
		}
	}
	for _, e := range up.Ins {
		if !gNew.HasEdge(e.U, e.V) {
			t.Errorf("inserted edge (%d,%d) missing from gNew", e.U, e.V)
		}
	}
}

func TestTransitionInverseRestoresProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := testGraph(seed)
		orig := d.Snapshot().Edges(nil)
		up := Random(d, 24, seed+1)
		Transition(d, up)
		Transition(d, up.Inverse())
		return reflect.DeepEqual(orig, d.Snapshot().Edges(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBatchDeterministicUnderSeed(t *testing.T) {
	d := testGraph(6)
	a := Random(d, 30, 9)
	b := Random(d, 30, 9)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different batches")
	}
	c := Random(d, 30, 10)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical batches")
	}
}

func TestOversizedDeletionRequestClips(t *testing.T) {
	d := graph.NewDynamic(4)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.EnsureSelfLoops()
	up := Deletions(d, 100, 1)
	if len(up.Del) != 2 {
		t.Errorf("deletions = %d, want all 2 non-self-loop edges", len(up.Del))
	}
}

func TestReplayPreloadAndBatches(t *testing.T) {
	const n, events = 200, 2000
	stream := gen.TemporalStream(n, events, 5)
	rep := NewReplay(stream, n, 0.9)
	if rep.Graph().N() != n {
		t.Fatalf("graph n = %d", rep.Graph().N())
	}
	// Consume in batches of 30 and verify edge-count bookkeeping.
	seen := 0
	for {
		up, gNew, ok := rep.NextBatch(30)
		if !ok {
			break
		}
		if len(up.Del) != 0 {
			t.Fatal("temporal replay emitted deletions")
		}
		if gNew == nil {
			t.Fatal("missing snapshot")
		}
		seen += len(up.Ins)
		for _, e := range up.Ins {
			if !gNew.HasEdge(e.U, e.V) {
				t.Fatalf("batch edge (%d,%d) not applied", e.U, e.V)
			}
		}
	}
	if seen != events/10 {
		t.Errorf("replayed %d events, want %d", seen, events/10)
	}
	if _, _, ok := rep.NextBatch(30); ok {
		t.Error("exhausted replay still produced a batch")
	}
}

func TestReplayDefaultPreload(t *testing.T) {
	stream := gen.TemporalStream(100, 1000, 2)
	rep := NewReplay(stream, 100, 0) // invalid → default 0.9
	if up, _, ok := rep.NextBatch(len(stream)); !ok || len(up.Ins) != 100 {
		t.Errorf("replayed %d events after the default preload, want 100", len(up.Ins))
	}
}

func TestInsertionsOnNearlyCompleteGraph(t *testing.T) {
	// All but a handful of pairs connected: rejection sampling must not spin
	// forever and returns what it can.
	n := 8
	d := graph.NewDynamic(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				d.AddEdge(uint32(u), uint32(v))
			}
		}
	}
	d.DelEdge(0, 1)
	up := Random(d, 10, 3)
	if len(up.Ins) > 1 {
		t.Errorf("invented %d insertions on a near-complete graph", len(up.Ins))
	}
}

// TestSampleDeletionsUniform draws from a small graph with self-loops and
// an empty row: every draw is distinct and loop-free, a request past the
// pool returns every edge, and over many seeds each edge is drawn about
// equally often.
func TestSampleDeletionsUniform(t *testing.T) {
	d := graph.NewDynamic(6)
	for _, e := range [][2]uint32{{0, 1}, {0, 4}, {1, 0}, {1, 5}, {3, 0}, {3, 1}, {3, 4}, {5, 5}} {
		d.AddEdge(e[0], e[1])
	}
	d.EnsureSelfLoops() // vertex 2 keeps only its loop: an empty pool row
	const pool = 7
	all := Deletions(d, 100, 1).Del
	if len(all) != pool {
		t.Fatalf("oversized request drew %d edges, want all %d: %v", len(all), pool, all)
	}
	const seeds, k = 7000, 3
	count := map[graph.Edge]int{}
	for s := range int64(seeds) {
		seen := map[graph.Edge]bool{}
		for _, e := range Deletions(d, k, s).Del {
			if e.U == e.V || !d.HasEdge(e.U, e.V) || seen[e] {
				t.Fatalf("seed %d drew %v: a loop, a non-edge or a repeat", s, e)
			}
			seen[e] = true
			count[e]++
		}
	}
	want := float64(seeds*k) / pool
	for _, e := range all {
		if c := float64(count[e]); c < 0.9*want || c > 1.1*want {
			t.Errorf("edge %v drawn %v times, want about %v", e, c, want)
		}
	}
}

// BenchmarkSampleDeletions times one 64-edge draw on RMAT 2^16×16; its
// B/op is the per-call allocation of the sampler.
func BenchmarkSampleDeletions(b *testing.B) {
	d := gen.RMAT(16, 16, 1)
	d.EnsureSelfLoops()
	d.Snapshot()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		Deletions(d, 64, int64(i))
	}
}
