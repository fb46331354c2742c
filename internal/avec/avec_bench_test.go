package avec

import "testing"

// Substrate micro-benchmarks: these primitives sit on the per-vertex hot
// path of every lock-free kernel (one F64 load per in-edge, one flag test
// per vertex, one AllClear scan per chunk), so their cost shapes every
// figure in the evaluation.

func BenchmarkF64Load(b *testing.B) {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 0.5
	}
	v := F64Of(xs)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += v.Load(i & 1023)
	}
	_ = sink
}

func BenchmarkF64Store(b *testing.B) {
	v := NewF64(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Store(i&1023, 0.25)
	}
}

func BenchmarkFlagsSetBitset(b *testing.B) {
	f := NewFlags(8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Set(i & 8191) // mostly already-set: the marking hot case
	}
}

func BenchmarkFlagsGetBitset(b *testing.B) {
	f := NewFlags(8192)
	for i := 0; i < f.Len(); i += 3 {
		f.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = f.Get(i & 8191)
	}
	_ = sink
}

func BenchmarkAllClearBitset64k(b *testing.B) {
	// Worst case for the scan: one straggler flag at the end.
	f := NewFlags(1 << 16)
	f.Set(f.Len() - 1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = f.AllClear()
	}
	_ = sink
}
