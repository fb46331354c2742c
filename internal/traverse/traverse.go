// Package traverse provides the reachability-marking substrate used by the
// Dynamic Traversal (DT) baseline (§3.5.2): from every vertex adjacent to a
// batch-update edge, mark every vertex reachable in the current graph as
// affected. Marking is visit-once via a caller-supplied predicate, so
// concurrent traversals from different sources cooperate instead of
// duplicating work: whichever traversal marks a vertex first descends
// through it, the others prune.
package traverse

import "dfpr/internal/graph"

// MarkReachable marks start and everything reachable from it along out-edges
// of g. visit must atomically mark a vertex and report whether it was newly
// marked (e.g. avec.Flags.Set); traversal descends only through newly
// marked vertices. stack is an optional scratch buffer reused across calls;
// the (possibly grown) buffer is returned.
func MarkReachable(g *graph.CSR, start uint32, visit func(v uint32) bool, stack []uint32) []uint32 {
	stack = stack[:0]
	if !visit(start) {
		return stack
	}
	stack = append(stack, start)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Out(v) {
			if visit(w) {
				stack = append(stack, w)
			}
		}
	}
	return stack
}

// MarkReachableBFS is the breadth-first variant of MarkReachable; the paper
// permits either order (§3.5.2). Provided so tests can verify both orders
// mark identical sets, and kept for callers that prefer BFS locality.
func MarkReachableBFS(g *graph.CSR, start uint32, visit func(v uint32) bool, queue []uint32) []uint32 {
	queue = queue[:0]
	if !visit(start) {
		return queue
	}
	queue = append(queue, start)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Out(v) {
			if visit(w) {
				queue = append(queue, w)
			}
		}
	}
	return queue
}
