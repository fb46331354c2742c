package sched

import "testing"

func TestBalancedBoundsCoverAndBalance(t *testing.T) {
	// Power-law-ish weights: one hub, long uniform tail.
	n := 1000
	w := make([]int, n)
	for i := range w {
		w[i] = 2
	}
	w[17] = 5000
	bounds := BalancedBounds(w, 100)
	if bounds[0] != 0 || bounds[len(bounds)-1] != n {
		t.Fatalf("bounds do not span [0,%d): %v…%v", n, bounds[0], bounds[len(bounds)-1])
	}
	for c := 0; c+1 < len(bounds); c++ {
		lo, hi := bounds[c], bounds[c+1]
		if hi <= lo {
			t.Fatalf("empty or non-monotone chunk [%d,%d)", lo, hi)
		}
		sum := 0
		for v := lo; v < hi; v++ {
			sum += w[v]
		}
		// A chunk overshoots the target by at most one vertex's weight, and
		// only the hub vertex is heavy — so any multi-vertex chunk stays
		// near the target.
		if sum > 100+5000 {
			t.Fatalf("chunk [%d,%d) weight %d exceeds any valid cut", lo, hi, sum)
		}
		if lo <= 17 && 17 < hi && hi-lo != 18-lo {
			// The hub must terminate its chunk immediately.
			t.Fatalf("hub chunk [%d,%d) extends past the hub", lo, hi)
		}
	}
}

func TestPoolBoundsDispensesEveryIndexOnce(t *testing.T) {
	bounds := BalancedBounds([]int{5, 1, 1, 1, 9, 1, 1, 1, 1, 1}, 4)
	p := NewPoolBounds(bounds)
	seen := make([]bool, 10)
	chunks := 0
	for {
		lo, hi, ok := p.Next()
		if !ok {
			break
		}
		chunks++
		for v := lo; v < hi; v++ {
			if seen[v] {
				t.Fatalf("index %d dispensed twice", v)
			}
			seen[v] = true
		}
	}
	if chunks != p.NumChunks() {
		t.Fatalf("dispensed %d chunks, NumChunks says %d", chunks, p.NumChunks())
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("index %d never dispensed", v)
		}
	}
	p.Reset()
	if _, _, ok := p.Next(); !ok {
		t.Fatal("reset pool dispensed nothing")
	}
}

func TestRoundsBoundsRepeatEachRound(t *testing.T) {
	bounds := BalancedBounds([]int{1, 1, 1, 1, 1, 1}, 2)
	r := NewRoundsBounds(bounds)
	perRound := int(r.ChunksPerRound())
	if perRound != len(bounds)-1 {
		t.Fatalf("ChunksPerRound = %d, want %d", perRound, len(bounds)-1)
	}
	var first []int
	for c := 0; c < perRound; c++ {
		lo, hi, tk := r.Next()
		if r.Round(tk) != 0 {
			t.Fatalf("chunk %d reported round %d", c, r.Round(tk))
		}
		first = append(first, lo, hi)
	}
	for c := 0; c < perRound; c++ {
		lo, hi, tk := r.Next()
		if r.Round(tk) != 1 {
			t.Fatalf("second pass chunk %d reported round %d", c, r.Round(tk))
		}
		if lo != first[2*c] || hi != first[2*c+1] {
			t.Fatalf("round 1 chunk %d = [%d,%d), want [%d,%d)", c, lo, hi, first[2*c], first[2*c+1])
		}
	}
}

func TestRoundsBoundsDegenerate(t *testing.T) {
	for _, bounds := range [][]int{nil, {}, {0}} {
		r := NewRoundsBounds(bounds)
		for i := 0; i < 3; i++ {
			lo, hi, tk := r.Next()
			if lo != 0 || hi != 0 {
				t.Fatalf("bounds %v: chunk [%d,%d), want empty", bounds, lo, hi)
			}
			if r.Round(tk) != uint64(i) {
				t.Fatalf("bounds %v: round %d, want %d (rounds must advance)", bounds, r.Round(tk), i)
			}
		}
	}
}
