// Command prlint runs this module's custom analyzer suite (internal/lint)
// over the packages matching its arguments and exits non-zero if any
// diagnostic survives the //lint:allow suppressions.
//
// Usage:
//
//	go run ./cmd/prlint ./...          # whole module, tests included
//	go run ./cmd/prlint -tests=false ./cmd/...
//	go run ./cmd/prlint -list          # print the suite and exit
//
// Output is one finding per line in the canonical file:line:col form, so
// editors and CI annotate it like any vet diagnostic:
//
//	serve/serve.go:412:9: [senterr] sentinel error ErrNoRanks compared with ==; use errors.Is ...
//
// The suite's analyzers and the invariants they pin are documented in
// DESIGN.md §10 and on each analyzer's package comment.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dfpr/internal/lint"
	"dfpr/internal/lint/loadpkg"
)

func main() {
	tests := flag.Bool("tests", true, "also analyze _test.go files and test variants")
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: prlint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "prlint:", err)
		os.Exit(2)
	}
	pkgs, err := loadpkg.Load(wd, patterns, *tests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prlint:", err)
		os.Exit(2)
	}
	findings, err := loadpkg.Run(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "prlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		name := f.Pos.Filename
		if rel, err := filepath.Rel(wd, name); err == nil && !filepath.IsAbs(rel) {
			name = rel
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", name, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "prlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
