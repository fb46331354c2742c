package core

import (
	"math"
	"testing"

	"dfpr/internal/topk"
)

func TestGrowRanks(t *testing.T) {
	prev := []float64{0.5, 0.5}
	out := GrowRanks(prev, 4)
	if len(out) != 4 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0] != 0.25 || out[1] != 0.25 || out[2] != 0.25 || out[3] != 0.25 {
		t.Errorf("out = %v", out)
	}
	if s := topk.Sum(out); math.Abs(s-1) > 1e-12 {
		t.Errorf("sum = %v", s)
	}
	// Identity growth.
	same := GrowRanks(prev, 2)
	if same[0] != 0.5 || same[1] != 0.5 {
		t.Error("no-growth changed ranks")
	}
}

func TestGrowRanksShrinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GrowRanks([]float64{1, 2, 3}, 2)
}
