// Package lint assembles prlint's analyzer suite.
//
// Each analyzer machine-checks one invariant of this engine that otherwise
// lives only in code comments and reviewer memory; see the package comment
// of each for the invariant, the failure mode it pins, and the bug that
// motivated it. DESIGN.md §10 carries the summary table.
//
// Suppressions use the shared //lint:allow protocol (see loadpkg):
//
//	m.mu.Lock() //lint:allow hotalloc documented cold fallback: promoted keys never reach it
//
// The reason is mandatory — an allow without one is itself a finding.
package lint

import (
	"dfpr/internal/lint/analysis"
	"dfpr/internal/lint/atomicfield"
	"dfpr/internal/lint/ctxflow"
	"dfpr/internal/lint/hotalloc"
	"dfpr/internal/lint/lockorder"
	"dfpr/internal/lint/senterr"
)

// Analyzers returns the full prlint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicfield.Analyzer,
		ctxflow.Analyzer,
		hotalloc.Analyzer,
		lockorder.Analyzer,
		senterr.Analyzer,
	}
}
