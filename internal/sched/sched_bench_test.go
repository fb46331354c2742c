package sched

import "testing"

// Scheduler micro-benchmarks: Pool.Next/Rounds.Next run once per chunk on
// every worker (the Figure 1 "scheduling overhead" side of the trade-off);
// the barrier round-trip is the per-iteration cost the lock-free variants
// eliminate.

func BenchmarkPoolNext(b *testing.B) {
	p := NewPool(1<<30, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := p.Next(); !ok {
			p.Reset()
		}
	}
}

func BenchmarkRoundsNext(b *testing.B) {
	bounds := make([]int, 513)
	for i := range bounds {
		bounds[i] = i * 2048
	}
	r := NewRoundsBounds(bounds)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		_, _, round := r.Next()
		sink += round
	}
	_ = sink
}

func BenchmarkBarrierRoundTrip4(b *testing.B) {
	const parties = 4
	bar := NewBarrier(parties)
	b.ReportAllocs()
	b.ResetTimer()
	Run(parties, func(w int) {
		for i := 0; i < b.N; i++ {
			if bar.Await(w) != nil {
				return
			}
		}
	})
}

func BenchmarkStaticRanges(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StaticRanges(1<<20, 64)
	}
}
