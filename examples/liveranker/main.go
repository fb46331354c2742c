// Liveranker: keep PageRanks fresh while the graph keeps changing.
//
// This is the deployment shape the public API is built for (§3.4 of the
// paper: graph updates interleave with computation via read-only
// snapshots). A writer streams batch updates into a dfpr.Engine; Rank
// refreshes the vector with lock-free Dynamic Frontier PageRank — sometimes
// after every batch, sometimes after falling several batches behind, and
// once after falling further behind than the engine's history. Each catch-up
// is one replay of every pending batch merged: the engine keeps the batches
// its ranks have not replayed, however many.
// A subscriber receives every versioned rank update over a conflating
// stream, the way a serving tier would.
//
// Run with:
//
//	go run ./examples/liveranker
package main

import (
	"context"
	"fmt"

	"dfpr"
	"dfpr/internal/batch"
	"dfpr/internal/exutil"
	"dfpr/internal/gen"
	"dfpr/internal/topk"
)

func main() {
	ctx := context.Background()

	// d mirrors the engine's graph so batch.Random can sample real
	// deletions; every update is applied to both sides.
	d := gen.RMAT(13, 10, 42)
	n, edges := exutil.Flatten(d)
	tol := 1e-3 / float64(n)
	eng, err := dfpr.New(n, edges,
		dfpr.WithThreads(4),
		dfpr.WithTolerance(tol),
		dfpr.WithFrontierTolerance(tol),
		dfpr.WithHistory(4), // retain 4 rank views and at least 4 batches
	)
	if err != nil {
		panic(err)
	}

	sub := eng.Subscribe()
	defer sub.Close()

	if _, err := eng.Rank(ctx); err != nil {
		panic(err)
	}
	view, err := eng.View()
	if err != nil {
		panic(err)
	}
	fmt.Printf("engine sealed: %d vertices, %d edges; ranks at version %d\n\n", view.N(), view.M(), view.Seq())

	seed := int64(0)
	apply := func(k int) {
		for i := 0; i < k; i++ {
			seed++
			up := batch.Random(d, 24, seed)
			d.Apply(up.Del, up.Ins)
			if _, err := eng.Apply(ctx, exutil.Convert(up.Del), exutil.Convert(up.Ins)); err != nil {
				panic(err)
			}
		}
	}
	refresh := func(label string) {
		behind := eng.Behind()
		res, err := eng.Rank(ctx)
		if err != nil {
			panic(err)
		}
		// The yardstick column: a fresh engine over the mirror, whose first
		// Rank is a static convergence at full precision.
		rn, redges := exutil.Flatten(d)
		ref, err := dfpr.New(rn, redges, dfpr.WithThreads(4))
		if err != nil {
			panic(err)
		}
		defer ref.Close()
		refRes, err := ref.Rank(ctx)
		if err != nil {
			panic(err)
		}
		stats := eng.Stats()
		// The subscription conflates: after a burst of versions the channel
		// holds exactly the newest update.
		u := <-sub.Updates()
		fmt.Printf("%-42s behind=%d advanced=%d refreshes=%d stream=v%d err=%.1e (%s)\n",
			label, behind, res.Advanced, stats.Refreshes,
			u.Seq, exutil.LInf(u.View, refRes.View), topk.FormatDur(res.Elapsed))
	}

	apply(1)
	refresh("1 batch, refresh immediately:")
	apply(1)
	refresh("another batch:")
	apply(3)
	refresh("3 batches at once (replay):")
	apply(6) // more than the history of 4
	refresh("6 batches past a history of 4: one replay")

	fmt.Println("\nThe last refresh lagged further than the engine's history, and still")
	fmt.Println("replayed the six batches as one merged span: the store folds every")
	fmt.Println("batch its ranks have not replayed into one pending span, so a refresh")
	fmt.Println("never misses a deleted edge and never has to start over.")
}
