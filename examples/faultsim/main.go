// Faultsim: demonstrate the fault tolerance of lock-free Dynamic Frontier
// PageRank (the paper's §5.3–§5.4, Figures 8–9, as a runnable program),
// chaos-tested through the public API: converge cleanly, arm a FaultPlan,
// apply a batch, and watch Rank.
//
// The example runs the same batch update three ways, each checked against
// a fault-free reference engine:
//
//  1. fault-free, as the baseline;
//  2. with random thread delays injected after vertex computations — the
//     remaining workers keep making progress past every delayed straggler;
//  3. with half the workers crash-stopping mid-computation — the survivors
//     still converge to the correct ranks.
//
// The barrier-based contrast (DFBB stalling on delays and deadlocking on a
// crash) is the paper's Figures 8–9: go run ./cmd/prbench -exp fig8,fig9.
//
// Run with:
//
//	go run ./examples/faultsim
package main

import (
	"context"
	"fmt"
	"time"

	"dfpr"
	"dfpr/internal/batch"
	"dfpr/internal/exutil"
	"dfpr/internal/gen"
	"dfpr/internal/topk"
)

func main() {
	ctx := context.Background()
	const workers = 8
	spec := gen.Spec{Name: "web", Class: gen.Web, N: 1 << 13, Deg: 12, Seed: 99}
	d := spec.Build()
	n, edges := exutil.Flatten(d)
	tol := 1e-3 / float64(n)
	up := batch.Random(d, d.M()/1000, 5)

	newEngine := func() *dfpr.Engine {
		eng, err := dfpr.New(n, edges,
			dfpr.WithThreads(workers),
			dfpr.WithTolerance(tol),
			dfpr.WithFrontierTolerance(tol),
		)
		if err != nil {
			panic(err)
		}
		return eng
	}

	// Fault-free reference ranks on the post-update graph.
	refEng := newEngine()
	if _, err := refEng.Rank(ctx); err != nil {
		panic(err)
	}
	if _, err := refEng.Apply(ctx, exutil.Convert(up.Del), exutil.Convert(up.Ins)); err != nil {
		panic(err)
	}
	refRes, err := refEng.Rank(ctx)
	if err != nil {
		panic(err)
	}
	ref := refRes.View

	report := func(label string, plan dfpr.FaultPlan) {
		eng := newEngine()
		if _, err := eng.Rank(ctx); err != nil { // clean convergence first
			panic(err)
		}
		if _, err := eng.Apply(ctx, exutil.Convert(up.Del), exutil.Convert(up.Ins)); err != nil {
			panic(err)
		}
		if err := eng.SetFaultPlan(plan); err != nil { // faults hit only the dynamic refresh
			panic(err)
		}
		res, err := eng.Rank(ctx)
		var status string
		if err != nil {
			// A failed Rank carries diagnostics but no rank vector.
			status = fmt.Sprintf("FAILED (%d workers crashed): %v", res.CrashedWorkers, err)
		} else {
			status = fmt.Sprintf("converged in %s (%d iterations, err %.1e)",
				topk.FormatDur(res.Elapsed), res.Iterations, exutil.LInf(res.View, ref))
		}
		fmt.Printf("  %-28s %s\n", label+":", status)
	}

	fmt.Printf("graph: %d vertices, %d edges; batch: %d updates; %d workers\n\n",
		n, d.M(), up.Size(), workers)

	fmt.Println("fault-free baseline")
	report("DFLF", dfpr.FaultPlan{})

	fmt.Println("\nrandom thread delays (expected ~1 sleep of 2ms per iteration)")
	delay := dfpr.FaultPlan{DelayProb: 1 / float64(n), DelayDur: 2 * time.Millisecond, Seed: 1}
	report("DFLF under delays", delay)

	fmt.Printf("\ncrash-stop: %d of %d workers die mid-computation\n", workers/2, workers)
	crash := dfpr.FaultPlan{CrashWorkers: dfpr.CrashSet(workers/2, workers), CrashHorizon: n / 2, Seed: 2}
	report("DFLF with crashes", crash)

	fmt.Println("\nlock-freedom in action: DFLF finishes at reduced speed with correct")
	fmt.Println("ranks; prbench -exp fig8,fig9 shows the barrier-based DFBB stalling")
	fmt.Println("on the same delays and deadlocking on a single crash.")
}
