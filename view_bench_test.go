package dfpr

import (
	"context"
	"testing"
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
		v.Range(func(u uint32, s float64) bool { return true })
	}); a != 0 {
		t.Errorf("Range allocates %v per call, want 0", a)
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
		v.Range(func(_ uint32, s float64) bool {
			ranks = append(ranks, s)
			return true
		})
		if len(ranks) != n {
			b.Fatal("copy failed")
		}
	}
}
