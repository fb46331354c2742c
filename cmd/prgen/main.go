// Command prgen emits the synthetic datasets (and batch updates) this
// reproduction uses, as plain-text edge lists, so they can be inspected or
// fed to other tools.
//
// Static graphs are written one "u v" pair per line; temporal streams as
// "u v t". Batch files use "+ u v" / "- u v" lines, consumable by prrank.
//
// Usage:
//
//	prgen -list
//	prgen -graph indochina-2004 -scale 0.5 > web.el
//	prgen -temporal wiki-talk-temporal > stream.tel
//	prgen -graph asia_osm -batch 0.0001 -seed 7 > update.batch
//	prgen -graph indochina-2004 -csr web.csr   # binary CSR container
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"dfpr/internal/batch"
	"dfpr/internal/gen"
	"dfpr/internal/gio"
	"dfpr/internal/graph"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list dataset names")
		graphName = flag.String("graph", "", "static dataset name from Table 2")
		temporal  = flag.String("temporal", "", "temporal dataset name from Table 1")
		scale     = flag.Float64("scale", 1, "dataset scale factor")
		seed      = flag.Int64("seed", 42, "random seed for -batch")
		batchFrac = flag.Float64("batch", 0, "emit a batch update of this fraction of |E| instead of the graph")
		csrPath   = flag.String("csr", "", "with -graph: write a binary CSR container to this path instead of text to stdout")
	)
	flag.Parse()

	if *list {
		fmt.Println("Static graphs (Table 2):")
		for _, s := range gen.SuiteSparse12(1) {
			fmt.Printf("  %-18s class=%s\n", s.Name, s.Class)
		}
		fmt.Println("Temporal graphs (Table 1):")
		for _, s := range gen.Temporal2(1) {
			fmt.Printf("  %s\n", s.Name)
		}
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	switch {
	case *temporal != "":
		for _, s := range gen.Temporal2(*scale) {
			if s.Name != *temporal {
				continue
			}
			for _, te := range s.Build() {
				fmt.Fprintf(w, "%d %d %d\n", te.E.U, te.E.V, te.At)
			}
			return
		}
		fatalf("unknown temporal dataset %q (use -list)", *temporal)

	case *graphName != "":
		for _, s := range gen.SuiteSparse12(*scale) {
			if s.Name != *graphName {
				continue
			}
			d := s.Build()
			if *csrPath != "" {
				if *batchFrac > 0 {
					fatalf("-csr and -batch are mutually exclusive")
				}
				writeCSR(d.Snapshot(), *csrPath)
				return
			}
			if *batchFrac > 0 {
				size := int(*batchFrac * float64(d.M()))
				if size < 1 {
					size = 1
				}
				up := batch.Random(d, size, *seed)
				for _, e := range up.Del {
					fmt.Fprintf(w, "- %d %d\n", e.U, e.V)
				}
				for _, e := range up.Ins {
					fmt.Fprintf(w, "+ %d %d\n", e.U, e.V)
				}
				return
			}
			if err := gio.WriteEdgeList(w, d); err != nil {
				fatalf("write edge list: %v", err)
			}
			return
		}
		fatalf("unknown graph %q (use -list)", *graphName)

	default:
		fatalf("nothing to do: pass -graph or -temporal (or -list)")
	}
}

// writeCSR writes the snapshot as a binary CSR container — the zero-parse
// format gio.LoadCSRMapped memory-maps. It stores the exact CSR, so a loader
// skips text parsing; `prserve -in` and the benchmark's stream-rank workload
// still rebuild the graph, since exutil.LoadGraphSource flattens the mapped
// CSR into an edge list for dfpr.New.
func writeCSR(g *graph.CSR, path string) {
	if err := gio.WriteCSRFile(path, g); err != nil {
		fatalf("write %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "prgen: wrote %s (%d vertices, %d edges)\n",
		path, g.N(), g.M())
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "prgen: "+format+"\n", args...)
	os.Exit(2)
}
