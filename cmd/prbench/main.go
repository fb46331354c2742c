// Command prbench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment prints aligned tables (or CSV) together
// with a note stating the shape the paper reports, so measured output can be
// compared directly.
//
// Usage:
//
//	prbench -list
//	prbench -exp fig7 -scale 1 -threads 8
//	prbench -exp all -quick
//	prbench -exp fig5,fig6 -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dfpr/internal/harness"
)

func main() {
	var (
		expFlag = flag.String("exp", "", "comma-separated experiment ids, or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		scale   = flag.Float64("scale", 1, "dataset scale factor (1 ≈ 16k-56k vertices per graph)")
		threads = flag.Int("threads", 0, "worker goroutines per run (0 = NumCPU)")
		quick   = flag.Bool("quick", false, "trimmed sweeps (seconds instead of minutes)")
		seed    = flag.Int64("seed", 42, "base random seed")
		reps    = flag.Int("reps", 1, "timing repetitions per measurement (min reported)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()

	if *list || *expFlag == "" {
		fmt.Println("Available experiments:")
		for _, e := range harness.Registry {
			fmt.Printf("  %-10s %s\n", e.ID, e.Desc)
		}
		if *expFlag == "" && !*list {
			fmt.Println("\nrun with -exp <id>[,<id>...] or -exp all")
		}
		return
	}

	opt := harness.Options{Scale: *scale, Threads: *threads, Quick: *quick, Seed: *seed, Reps: *reps}

	var ids []string
	if *expFlag == "all" {
		for _, e := range harness.Registry {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*expFlag, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		exp, ok := harness.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "prbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		sections := exp.Run(opt)
		for _, s := range sections {
			fmt.Printf("== %s ==\n", s.Title)
			if s.Note != "" {
				fmt.Printf("%s\n", s.Note)
			}
			if *csv {
				fmt.Print(s.Table.CSV())
			} else {
				fmt.Print(s.Table.String())
			}
			fmt.Println()
		}
		fmt.Printf("-- %s completed in %s --\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
