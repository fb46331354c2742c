package dfpr

import (
	"context"
	"testing"

	"dfpr/internal/batch"
	"dfpr/internal/gen"
)

// benchView converges a mid-size engine and returns its latest view.
func benchView(tb testing.TB) *View {
	n, edges, _ := testGraph(tb, 13, 99)
	eng, err := New(n, edges, WithThreads(4), WithTolerance(1e-3/float64(n)))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	if _, err := eng.Rank(context.Background()); err != nil {
		tb.Fatal(err)
	}
	v, err := eng.View()
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// TestViewQueryAllocations is the acceptance guard for the zero-copy read
// path: after the first TopK on a version, ScoreOf allocates nothing and
// TopK allocates only its O(k) result slice — never an O(|V|) copy.
func TestViewQueryAllocations(t *testing.T) {
	v := benchView(t)
	v.TopK(16) // warm the per-version order cache

	if a := testing.AllocsPerRun(200, func() {
		if _, ok := v.ScoreOf(7); !ok {
			t.Fatal("lookup failed")
		}
	}); a != 0 {
		t.Errorf("ScoreOf allocates %v per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if len(v.TopK(10)) != 10 {
			t.Fatal("topk failed")
		}
	}); a > 1 {
		t.Errorf("TopK allocates %v per call after warm-up, want ≤ 1 (the result slice)", a)
	}
	buf := make([]Ranked, 0, 16)
	if a := testing.AllocsPerRun(200, func() {
		buf = v.AppendTopK(buf[:0], 10)
	}); a != 0 {
		t.Errorf("AppendTopK into a sized buffer allocates %v per call, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		for range v.Scores() {
		}
	}); a != 0 {
		t.Errorf("Scores allocates %v per call, want 0", a)
	}
}

func BenchmarkViewScoreOf(b *testing.B) {
	v := benchView(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := v.ScoreOf(uint32(i % v.N())); !ok {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkViewTopK(b *testing.B) {
	v := benchView(b)
	v.TopK(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(v.TopK(10)) != 10 {
			b.Fatal("topk failed")
		}
	}
}

// BenchmarkFullCopyBaseline is the O(|V|)-per-call cost the view path
// replaced (the removed copying Snapshot shim): materialise the whole
// vector per call. Compare its bytes/op against BenchmarkViewTopK.
func BenchmarkFullCopyBaseline(b *testing.B) {
	v := benchView(b)
	n := v.N()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranks := make([]float64, 0, n)
		for _, s := range v.Scores() {
			ranks = append(ranks, s)
		}
		if len(ranks) != n {
			b.Fatal("copy failed")
		}
	}
}

// BenchmarkViewDelta times Delta between two consecutive views of the
// stream-rank graph (RMAT 2^16×16): one 1e-5·|E| batch applied and ranked
// in between, so the pair is what a "what changed since my last read"
// client asks for. Delta is one pass over both rank vectors, whatever the
// batch.
func BenchmarkViewDelta(b *testing.B) {
	ctx := context.Background()
	d := gen.RMAT(16, 16, 99)
	eng, err := New(d.N(), edgesOf(d), WithThreads(2))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Rank(ctx); err != nil {
		b.Fatal(err)
	}
	before, err := eng.View()
	if err != nil {
		b.Fatal(err)
	}
	up := batch.Random(d, max(1, int(1e-5*float64(d.M()))), 23)
	if _, err := eng.Apply(ctx, toPublic(up.Del), toPublic(up.Ins)); err != nil {
		b.Fatal(err)
	}
	res, err := eng.Rank(ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(res.View.Delta(before)) == 0 {
			b.Fatal("no movement across a ranked batch")
		}
	}
}
