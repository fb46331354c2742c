// Command prrank ranks an edge-list graph with lock-free Dynamic Frontier
// PageRank (DF-LF), through the public dfpr.Engine API. Without -batch it
// runs one Rank — the engine's static convergence — and reports it. With
// -batch, a file of "+ u v" / "- u v" lines, it converges the pre-update
// graph, applies the batch, and refreshes incrementally, printing timing
// for both phases so the incremental saving is visible. Ctrl-C cancels a
// converging run cleanly via context. Comparing DF-LF against the paper's
// other seven variants is prbench -exp (fig5, fig7, fig8, fig9, dt, eedi).
//
// Usage:
//
//	prgen -graph asia_osm > g.el
//	prgen -graph asia_osm -batch 1e-4 > u.batch
//	prrank -in g.el -top 5
//	prrank -in g.el -batch u.batch -top 5
//	prrank -keyed -in follows.kel -top 5     # string keys: 'alice bob' lines
//
// With -keyed, -in is a keyed edge list whose endpoints are arbitrary
// string keys; the engine owns the key→id compaction (dfpr.Open) and the
// top-k report prints keys instead of dense ids.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"dfpr"
	"dfpr/internal/exutil"
	"dfpr/internal/gio"
	"dfpr/internal/topk"
)

func main() {
	var (
		in        = flag.String("in", "", "graph file: edge list ('u v' per line) or MatrixMarket (.mtx)")
		batchFile = flag.String("batch", "", "batch update file ('+ u v' / '- u v' lines)")
		threads   = flag.Int("threads", 0, "worker goroutines (0 = NumCPU)")
		tol       = flag.Float64("tol", dfpr.DefaultTolerance, "iteration tolerance (L∞)")
		top       = flag.Int("top", 10, "print the k highest-ranked vertices (0 = all ranks)")
		keyed     = flag.Bool("keyed", false, "treat -in as a keyed edge list ('fromKey toKey' per line) and report keys")
	)
	flag.Parse()
	if *in == "" {
		fatalf("missing -in edge list")
	}
	if *keyed && *batchFile != "" {
		fatalf("-batch carries dense ids; keyed updates arrive as keyed edge lists")
	}

	// A converging run on a large graph can take a while; Ctrl-C aborts it
	// through the context instead of killing the process mid-write.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	opts := []dfpr.Option{
		dfpr.WithTolerance(*tol),
		dfpr.WithThreads(*threads),
	}
	var (
		eng *dfpr.Engine
		err error
	)
	if *keyed {
		kedges, kerr := exutil.LoadKeyEdges(*in)
		if kerr != nil {
			fatalf("loading %s: %v", *in, kerr)
		}
		if eng, err = dfpr.Open(opts...); err != nil {
			fatalf("%v", err)
		}
		if _, err = eng.ApplyKeyed(ctx, nil, kedges); err != nil {
			fatalf("applying %s: %v", *in, err)
		}
	} else {
		n, edges, lerr := exutil.LoadGraph(*in)
		if lerr != nil {
			fatalf("loading %s: %v", *in, lerr)
		}
		eng, err = dfpr.New(n, edges, opts...)
		if err != nil {
			fatalf("%v", err)
		}
	}

	// The first Rank is the static convergence; with -batch it is the
	// baseline, and the reported run is the DF-LF refresh over the batch.
	label := "static"
	res, err := eng.Rank(ctx)
	if err == nil && *batchFile != "" {
		fmt.Printf("baseline: static pre-update ranking converged in %d iterations (%s)\n",
			res.Iterations, topk.FormatDur(res.Elapsed))
		del, ins, lerr := loadBatch(*batchFile)
		if lerr != nil {
			fatalf("loading %s: %v", *batchFile, lerr)
		}
		if _, err := eng.Apply(ctx, del, ins); err != nil {
			fatalf("applying batch: %v", err)
		}
		label = "DFLF"
		res, err = eng.Rank(ctx)
	}
	if errors.Is(err, dfpr.ErrCanceled) {
		fatalf("%s canceled", label)
	} else if err != nil {
		fatalf("%s failed: %v", label, err)
	}

	view := res.View
	fmt.Printf("%s: n=%d m=%d iterations=%d converged=%v elapsed=%s\n",
		label, view.N(), view.M(), res.Iterations, res.Converged, topk.FormatDur(res.Elapsed))

	switch {
	case *top > 0:
		for rank, e := range view.TopK(*top) {
			if *keyed {
				key, _ := view.KeyOf(e.V)
				fmt.Printf("#%-3d %-24s %.6e\n", rank+1, key, e.Score)
			} else {
				fmt.Printf("#%-3d vertex %-10d %.6e\n", rank+1, e.V, e.Score)
			}
		}
	case *keyed:
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for v, r := range view.Scores() {
			key, _ := view.KeyOf(v)
			fmt.Fprintf(w, "%s %.12e\n", key, r)
		}
	default:
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for v, r := range view.Scores() {
			fmt.Fprintf(w, "%d %.12e\n", v, r)
		}
	}
}

func loadBatch(path string) (del, ins []dfpr.Edge, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	gdel, gins, err := gio.ReadBatch(f)
	if err != nil {
		return nil, nil, err
	}
	return exutil.Convert(gdel), exutil.Convert(gins), nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "prrank: "+format+"\n", args...)
	os.Exit(2)
}
