package core

import (
	"math"

	"dfpr/internal/graph"
)

// Reference computes high-precision PageRanks with a sequential synchronous
// power iteration. It is the accuracy yardstick of §5.1.5: the paper runs
// barrier-based static PageRank at τ=1e-100 capped at 500 iterations, which
// in IEEE-754 double precision means "iterate until the update is exactly
// stationary or the cap is hit"; we default τ to 1e-15 (below that, Jacobi
// updates dither in the last ulp) and keep the 500-iteration cap.
//
// Only Alpha, Tol and MaxIter from cfg are honoured.
func Reference(g *graph.CSR, cfg Config) []float64 {
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		cfg.Alpha = DefaultDamping
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-15
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = DefaultMaxIter
	}
	n := g.N()
	if n == 0 {
		return nil
	}
	base := (1 - cfg.Alpha) / float64(n)
	inv := invOutDeg(g)
	r := uniformRanks(n)
	rNew := make([]float64, n)
	for it := 0; it < cfg.MaxIter; it++ {
		var dR float64
		for v := 0; v < n; v++ {
			nr := rankOfSeed(g, inv, r, cfg.Alpha, base, uint32(v))
			if d := math.Abs(nr - r[v]); d > dR {
				dR = d
			}
			rNew[v] = nr
		}
		r, rNew = rNew, r
		if dR <= cfg.Tol {
			break
		}
	}
	return r
}
