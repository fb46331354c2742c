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

func TestWithNPadding(t *testing.T) {
	g := smallGraph()
	p := g.WithN(g.N() + 3)
	if p.N() != g.N()+3 {
		t.Fatalf("padded n = %d", p.N())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := g.N(); v < p.N(); v++ {
		if p.OutDeg(uint32(v)) != 0 || p.InDeg(uint32(v)) != 0 {
			t.Errorf("padded vertex %d not isolated", v)
		}
	}
	// Original rows unchanged.
	for v := uint32(0); int(v) < g.N(); v++ {
		if len(p.Out(v)) != len(g.Out(v)) {
			t.Errorf("row %d changed", v)
		}
	}
	if g.WithN(2) != g {
		t.Error("WithN with smaller n should return the receiver")
	}
}
