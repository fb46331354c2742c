// Quickstart: build a small directed graph, compute PageRank, apply a batch
// update (one deletion + one insertion), and update the ranks incrementally
// with lock-free Dynamic Frontier PageRank (DFLF) instead of recomputing
// from scratch — all through the public dfpr.Engine API.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"dfpr"
)

func main() {
	ctx := context.Background()

	// The 14-vertex example graph of the paper's Figure 4 (1-indexed there,
	// 0-indexed here). The engine adds the dead-end-eliminating self-loops
	// (paper §5.1.3) itself.
	edges := []dfpr.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 8},
		{U: 8, V: 9}, {U: 9, V: 10}, {U: 10, V: 11}, {U: 11, V: 12},
		{U: 12, V: 13}, {U: 13, V: 4}, {U: 2, V: 6}, {U: 6, V: 2},
		{U: 9, V: 3}, {U: 4, V: 8},
	}
	eng, err := dfpr.New(14, edges, dfpr.WithThreads(4))
	if err != nil {
		panic(err)
	}

	// The first Rank converges statically on the initial snapshot.
	initial, err := eng.Rank(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("initial ranks (converged in %d iterations):\n", initial.Iterations)
	printRanks(initial.View)

	// Batch update: delete the edge 10→11, insert 7→9 (the paper's Figure 4
	// example). Apply publishes a new graph version; the next Rank refreshes
	// incrementally — only vertices whose ranks can actually move get
	// reprocessed.
	del := []dfpr.Edge{{U: 10, V: 11}}
	ins := []dfpr.Edge{{U: 7, V: 9}}
	if _, err := eng.Apply(ctx, del, ins); err != nil {
		panic(err)
	}
	res, err := eng.Rank(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nafter {del 10→11, ins 7→9} via DFLF (%d iterations, converged=%v):\n",
		res.Iterations, res.Converged)
	printRanks(res.View)

	// The batch's footprint, straight from the view layer: Delta compares
	// the two retained versions by walking the dirty frontier, so its cost
	// scales with the batch, not the graph.
	before, err := eng.ViewAt(0)
	if err != nil {
		panic(err)
	}
	moved := res.View.Delta(before)
	fmt.Printf("\n%d of %d vertices moved; the first few:\n", len(moved), res.View.N())
	for i, m := range moved {
		if i == 3 {
			break
		}
		fmt.Printf("  v%-2d %.6f → %.6f\n", m.V, m.From, m.To)
	}

	// Cross-check against a full static recomputation on the updated graph:
	// a fresh engine's first Rank is exactly that.
	var updated []dfpr.Edge
	for _, e := range edges {
		if e != (dfpr.Edge{U: 10, V: 11}) {
			updated = append(updated, e)
		}
	}
	updated = append(updated, dfpr.Edge{U: 7, V: 9})
	full, err := dfpr.New(14, updated, dfpr.WithThreads(4))
	if err != nil {
		panic(err)
	}
	ref, err := full.Rank(ctx)
	if err != nil {
		panic(err)
	}
	var maxDiff float64
	for v, x := range ref.View.Scores() {
		y, _ := res.View.ScoreOf(v)
		if d := x - y; d > maxDiff {
			maxDiff = d
		} else if -d > maxDiff {
			maxDiff = -d
		}
	}
	fmt.Printf("\nmax |DFLF - full recompute| = %.2e\n", maxDiff)
}

func printRanks(v *dfpr.View) {
	for u, x := range v.Scores() {
		fmt.Printf("  v%-2d %.6f\n", u, x)
	}
}
