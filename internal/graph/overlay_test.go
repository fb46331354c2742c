package graph_test

import (
	"math"
	"runtime"
	"testing"

	"dfpr/internal/gen"
	"dfpr/internal/graph"
)

// TestDynamicFromCSRCopiesNoAdjacency: adopting a CSR allocates the row
// headers and nothing per edge — the CSR stays the one copy of the graph.
// Copying the out-adjacency would add 4 bytes per edge, 64·n on this graph.
func TestDynamicFromCSRCopiesNoAdjacency(t *testing.T) {
	g := gen.RMAT(14, 16, 3).Snapshot()
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		d := graph.DynamicFromCSR(g)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(d)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(32 * g.N()); least > limit {
		t.Fatalf("DynamicFromCSR allocated %d bytes on n=%d m=%d, want ≤ 32·n = %d", least, g.N(), g.M(), limit)
	}
}
