package core

import "fmt"

// GrowRanks rescales a rank vector for a vertex-count change from len(prev)
// to newN: existing ranks are multiplied by len(prev)/newN and each new
// vertex starts at the uniform 1/newN. Under self-loop dead-end elimination
// this transform is *exact*, not merely a warm start: with every vertex
// carrying a self-loop the system is r[v] = (1-α)/n + α·Σ r[u]/outdeg(u),
// which is linear in the teleport term, so growing n₀ → n₁ with the new
// vertices isolated scales the old sub-graph's fixed point by exactly
// n₀/n₁; and a new vertex with only its self-loop solves r[v] = (1-α)/n₁ +
// α·r[v], i.e. r[v] = 1/n₁ in closed form. A refresh over a grown version
// therefore seeds with the exact fixed point of the grown-but-otherwise-
// unchanged graph, leaving the batch's edges as the only perturbation —
// the Dynamic Frontier marking covers every vertex whose rank can move,
// the same invariant as before growth, which is what keeps a
// frontier-sized refresh over growth equivalent to a cold build. Without
// the rescale, growth would shift the teleport term of every vertex and
// the frontier would silently miss the global drift.
func GrowRanks(prev []float64, newN int) []float64 {
	oldN := len(prev)
	if newN < oldN {
		panic(fmt.Sprintf("core: GrowRanks cannot shrink %d → %d", oldN, newN))
	}
	out := make([]float64, newN)
	if newN == 0 {
		return out
	}
	scale := float64(oldN) / float64(newN)
	for i, r := range prev {
		out[i] = r * scale
	}
	uniform := 1 / float64(newN)
	for i := oldN; i < newN; i++ {
		out[i] = uniform
	}
	return out
}
