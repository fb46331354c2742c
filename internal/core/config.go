// Package core implements the paper's PageRank algorithms for dynamic
// graphs: the Dynamic Frontier (DF) approach and every baseline it is
// evaluated against, each in a barrier-based (BB) and a lock-free (LF)
// variant:
//
//	StaticBB (Alg. 3)  StaticLF (Alg. 4)
//	NDBB     (Alg. 5)  NDLF     (Alg. 6)   — Naive-dynamic
//	DTBB     (Alg. 7)  DTLF     (Alg. 8)   — Dynamic Traversal
//	DFBB     (Alg. 1)  DFLF     (Alg. 2)   — Dynamic Frontier (the contribution)
//
// Barrier-based variants are synchronous (Jacobi): two rank vectors, an
// iteration barrier, an L∞ reduction and a swap per iteration. Lock-free
// variants are asynchronous (Gauss–Seidel): a single shared rank vector with
// atomic element access, per-vertex convergence flags, and no barrier
// anywhere — workers flow from one pass to the next via a continuous ticket
// scheduler and help each other through shared flag vectors, which is what
// makes them tolerate random thread delays and crash-stop failures (§4.4).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"dfpr/internal/fault"
	"dfpr/internal/graph"
	"dfpr/internal/sched"
)

// Default parameter values from §5.1.2 of the paper.
const (
	DefaultDamping = 0.85
	DefaultTol     = 1e-10
	DefaultMaxIter = 500
)

// Config carries the tunable parameters shared by all algorithm variants.
// The zero value selects the paper's defaults.
type Config struct {
	// Alpha is the damping factor (default 0.85).
	Alpha float64
	// Tol is the iteration tolerance τ on the L∞ rank change (default 1e-10).
	Tol float64
	// FrontierTol is the frontier tolerance τ_f used by the DF variants to
	// decide when a rank change is large enough to mark out-neighbours as
	// affected. Default τ/1000 (§4.5). DF-LF expands a vertex once per run,
	// on the first visit whose Δr exceeds τ_f: its out-neighbours then stay
	// affected and are recomputed every pass until each has Δr ≤ τ, so a
	// run ends on the same criterion as ND-LF and StaticLF (≤ ατ/(1−α) from
	// the fixed point), not at τ_f precision.
	FrontierTol float64
	// MaxIter bounds the number of iterations (default 500).
	MaxIter int
	// Threads is the number of worker goroutines (default runtime.NumCPU()).
	Threads int
	// Chunk is the dynamic-scheduling chunk size (default 2048): chunk cuts
	// are placed by prefix in-degree so every chunk carries roughly
	// Chunk×avg-degree edges (see vertexBounds).
	Chunk int
	// Fault describes delays/crashes to inject (§5.1.6). The zero Plan
	// injects nothing.
	Fault fault.Plan
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		c.Alpha = DefaultDamping
	}
	if c.Tol <= 0 {
		c.Tol = DefaultTol
	}
	if c.FrontierTol <= 0 {
		c.FrontierTol = c.Tol / 1000
	}
	if c.MaxIter <= 0 {
		c.MaxIter = DefaultMaxIter
	}
	if c.Threads <= 0 {
		c.Threads = runtime.NumCPU()
	}
	if c.Chunk <= 0 {
		c.Chunk = 2048
	}
	return c
}

// Result reports the outcome of one algorithm run.
type Result struct {
	// Ranks is the final PageRank vector.
	Ranks []float64
	// Iterations is the number of iterations executed (for lock-free
	// variants: the highest pass index any worker completed, plus one).
	Iterations int
	// Converged reports whether the tolerance was met before MaxIter.
	Converged bool
	// CrashedWorkers is the number of workers that crash-stopped.
	CrashedWorkers int
	// Elapsed is the wall-clock time of the run, excluding input
	// construction (the paper excludes allocation; we start the clock after
	// vector allocation and initialisation, §5.1.5).
	Elapsed time.Duration
	// BarrierWait is the cumulative time workers spent blocked at iteration
	// barriers (zero for lock-free variants). Regenerates Figure 1.
	BarrierWait time.Duration
	// SweepBlocks is the number of rank-loop chunks workers fetched over the
	// whole run — the unit the chunk scheduler dispatches. Feeds the
	// dfpr_rank_sweep_block_scheduled_total counter.
	SweepBlocks int64
	// FrontierScanned is the number of affected-frontier vertices located by
	// the sorted word-at-a-time flag scans of the rank sweeps (zero when the
	// variant has no frontier). Feeds the
	// dfpr_rank_sweep_block_frontier_total counter.
	FrontierScanned int64
	// FrontierExpanded is the number of out-edge walks DF-LF's frontier
	// expansion performed: at most one per affected vertex per worker (zero
	// for every other variant).
	FrontierExpanded int64
	// Err is non-nil when the run could not complete — notably
	// sched.ErrBroken when a barrier-based variant deadlocks because a
	// worker crashed, or ErrAllCrashed when every lock-free worker died.
	Err error
}

// ErrAllCrashed is returned when every worker crash-stopped before
// convergence; with no survivor there is no thread left to guarantee
// progress (lock-freedom assumes at least one live thread).
var ErrAllCrashed = errors.New("core: all workers crashed before convergence")

// ErrCanceled is the Result.Err terminal state of a run aborted by its
// context before convergence. It is distinct from the failure states
// (sched.ErrBroken for a deadlocked barrier, ErrAllCrashed for a dead
// lock-free run): a canceled run stopped because the caller asked it to,
// with every worker goroutine joined before the Result is returned.
var ErrCanceled = errors.New("core: run canceled by context")

// Algo identifies one of the eight algorithm variants.
type Algo int

// The eight algorithm variants, in the paper's naming.
const (
	AlgoStaticBB Algo = iota // barrier-based, every vertex from uniform ranks (Algorithm 3)
	AlgoStaticLF             // lock-free static (Algorithm 4)
	AlgoNDBB                 // Naive-dynamic: StaticBB warm-started from Prev (Algorithm 5)
	AlgoNDLF                 // lock-free Naive-dynamic (Algorithm 6)
	AlgoDTBB                 // Dynamic Traversal: iterate what the batch reaches in G^t (Algorithm 7)
	AlgoDTLF                 // lock-free Dynamic Traversal (Algorithm 8)
	AlgoDFBB                 // Dynamic Frontier: the affected set grows from the batch (Algorithm 1)
	AlgoDFLF                 // lock-free Dynamic Frontier (Algorithm 2), the paper's contribution
)

// Algos lists all variants in presentation order (matches Figure 5/7 legends).
var Algos = []Algo{AlgoStaticBB, AlgoNDBB, AlgoDFBB, AlgoStaticLF, AlgoNDLF, AlgoDFLF, AlgoDTBB, AlgoDTLF}

// String returns the paper's name for the variant.
func (a Algo) String() string {
	switch a {
	case AlgoStaticBB:
		return "StaticBB"
	case AlgoStaticLF:
		return "StaticLF"
	case AlgoNDBB:
		return "NDBB"
	case AlgoNDLF:
		return "NDLF"
	case AlgoDTBB:
		return "DTBB"
	case AlgoDTLF:
		return "DTLF"
	case AlgoDFBB:
		return "DFBB"
	case AlgoDFLF:
		return "DFLF"
	default:
		return "unknown"
	}
}

// Input bundles the arguments of a dynamic-PageRank invocation. Static
// variants use only GNew; ND additionally uses Prev; DT and DF use
// everything. There is no G^{t-1}: the markers read it off G^t and Del (see
// marker), so Del must hold every edge of G^{t-1} absent from G^t, and
// every endpoint in Del and Ins must be a vertex of G^t. A deletion of an
// edge G^{t-1} lacked (a merged span's edge inserted and deleted again)
// only widens the initially affected set.
type Input struct {
	// GNew is the current snapshot G^t.
	GNew *graph.CSR
	// Del and Ins are the batch update Δt⁻ and Δt⁺. The runs copy them
	// and leave the caller's slices as they are.
	Del, Ins []graph.Edge
	// Prev is the previous rank vector R^{t-1} (ignored by static variants).
	Prev []float64
}

// Run dispatches to the requested algorithm variant without cancellation
// (equivalent to RunCtx with a background context).
func Run(a Algo, in Input, cfg Config) Result {
	return RunCtx(context.Background(), a, in, cfg)
}

// RunCtx dispatches to the requested algorithm variant under a context.
// When ctx is canceled (or its deadline passes) before the run converges,
// workers stop taking work, every goroutine exits, and the Result carries
// ErrCanceled — the run's output vector must then be discarded, as a
// canceled pass may have computed only part of an iteration. A lock-free
// variant runs through RunState on a State built fresh from in.GNew.
func RunCtx(ctx context.Context, a Algo, in Input, cfg Config) Result {
	switch a {
	case AlgoStaticBB:
		return runBB(ctx, vStatic, Input{GNew: in.GNew}, cfg)
	case AlgoNDBB:
		return runBB(ctx, vND, Input{GNew: in.GNew, Prev: in.Prev}, cfg)
	case AlgoDTBB:
		return runBB(ctx, vDT, in, cfg)
	case AlgoDFBB:
		return runBB(ctx, vDF, in, cfg)
	case AlgoStaticLF, AlgoNDLF, AlgoDTLF, AlgoDFLF:
		return RunState(ctx, a, in, cfg, NewState(in.GNew, cfg))
	default:
		return Result{Err: errors.New("core: unknown algorithm")}
	}
}

// RunState runs the lock-free variant a over st, the State of in.GNew under
// cfg (NewState, or a State patched up to in.GNew): the run reads the
// kernel's factors and the chunk bounds from st instead of building them.
// The run never writes st, so a failed or canceled run leaves it valid.
// RunState panics when a is not lock-free or st was built for another
// graph size, damping factor or chunk size.
func RunState(ctx context.Context, a Algo, in Input, cfg Config, st *State) Result {
	d := cfg.withDefaults()
	if len(st.ainv) != in.GNew.N() || st.alpha != d.Alpha || st.chunk != d.Chunk {
		panic(fmt.Sprintf("core: RunState over a State of %d vertices (α %g, chunk %d) for %d vertices (α %g, chunk %d)",
			len(st.ainv), st.alpha, st.chunk, in.GNew.N(), d.Alpha, d.Chunk))
	}
	switch a {
	case AlgoStaticLF:
		return runLF(ctx, vStatic, Input{GNew: in.GNew}, cfg, st)
	case AlgoNDLF:
		return runLF(ctx, vND, Input{GNew: in.GNew, Prev: in.Prev}, cfg, st)
	case AlgoDTLF:
		return runLF(ctx, vDT, in, cfg, st)
	case AlgoDFLF:
		return runLF(ctx, vDF, in, cfg, st)
	default:
		panic(fmt.Sprintf("core: RunState runs a lock-free algorithm, not %v", a))
	}
}

// uniformRanks returns the static initial vector {1/n, …}.
func uniformRanks(n int) []float64 {
	r := make([]float64, n)
	if n == 0 {
		return r
	}
	x := 1 / float64(n)
	for i := range r {
		r[i] = x
	}
	return r
}

// invOutDeg precomputes 1/outdeg(v) for every vertex (0 for dead ends,
// which cannot occur after self-loop augmentation).
func invOutDeg(g *graph.CSR) []float64 {
	inv := make([]float64, g.N())
	for v := uint32(0); int(v) < g.N(); v++ {
		if d := g.OutDeg(v); d > 0 {
			inv[v] = 1 / float64(d)
		}
	}
	return inv
}

// kernelFactors precomputes, in one pass over the vertices, the factors the
// cached kernels multiply by (factorsOf): ainv[v] = α·(1/outdeg(v)) (0 for
// a dead end; rounded as the barrier-based kernel has always had it), which
// turns a rank store into a contribution-cache store
// (contrib[v] = rank[v]·ainv[v]), and, for the lock-free kernel,
// dinv[v] = 1/(1 − ainv[v]) if v has a self-loop and 1 otherwise (see
// rankOfCachedAtomic). A self-loop leads v's in-row (graph.CSR), so finding
// it is one test per vertex, and a graph that never ran EnsureSelfLoops
// gets dinv = 1 wherever v has none.
func kernelFactors(g *graph.CSR, alpha float64) (ainv, dinv []float64) {
	ainv, dinv = make([]float64, g.N()), make([]float64, g.N())
	for v := range ainv {
		ainv[v], dinv[v] = factorsOf(g, alpha, uint32(v))
	}
	return ainv, dinv
}

// factorsOf is row v's ainv and dinv (kernelFactors): both read v's rows of
// g and nothing else, which is what lets State patch them row by row.
func factorsOf(g *graph.CSR, alpha float64, v uint32) (ainv, dinv float64) {
	if d := g.OutDeg(v); d > 0 {
		ainv = alpha * (1 / float64(d))
	}
	dinv = 1
	if in := g.In(v); len(in) > 0 && in[0] == v {
		dinv = 1 / (1 - ainv)
	}
	return ainv, dinv
}

// State is the part of a lock-free run's setup that depends on the graph
// alone: the kernel's factors (kernelFactors) and the chunk bounds
// (vertexBounds). Building it is O(n); a caller that runs over a sequence
// of graphs, each its predecessor plus a batch, keeps one and patches it
// (Patch) at O(batch) per run instead. Run and RunCtx build it fresh.
//
// The factors are a pure function of the graph's rows, so a patched
// State holds a fresh build's factors bit for bit, and patching twice to
// the same graph changes nothing. The bounds are re-cut only on growth or once
// the edge count has drifted by more than 1/boundsDrift since the last cut:
// bounds cut on an older graph still cover [0, n), they only balance the
// chunks a little less well.
type State struct {
	alpha      float64
	chunk      int
	ainv, dinv []float64
	bounds     []int
	cutM       int // g.M() when bounds were cut
}

// boundsDrift is the inverse share of the edge count that may change
// before Patch re-cuts the chunk bounds.
const boundsDrift = 8

// NewState builds the State of g for runs under cfg.
func NewState(g *graph.CSR, cfg Config) *State {
	cfg = cfg.withDefaults()
	s := &State{alpha: cfg.Alpha, chunk: cfg.Chunk}
	s.ainv, s.dinv = kernelFactors(g, cfg.Alpha)
	s.cut(g)
	return s
}

// cut re-cuts the bounds on g. It keeps a copy, because BalancedBounds
// reserves room for n/8 chunks and the State outlives the run.
func (s *State) cut(g *graph.CSR) {
	s.bounds, s.cutM = slices.Clone(vertexBounds(g, s.chunk)), g.M()
}

// Patch moves s to g, a graph whose rows differ from those s describes
// only at the sources of del and ins and at the rows g grew: it
// recomputes exactly those rows' factors. A source named that did not
// change, or named twice, costs one row and changes nothing, so a merged
// span that is a superset of the true edge diff is a valid patch list.
// Every endpoint must be a vertex of g (core.Input's rule), and g may not
// have fewer vertices than s.
func (s *State) Patch(g *graph.CSR, del, ins []graph.Edge) {
	n, old := g.N(), len(s.ainv)
	if n < old {
		panic(fmt.Sprintf("core: State.Patch cannot shrink %d → %d vertices", old, n))
	}
	s.ainv, s.dinv = slices.Grow(s.ainv, n-old)[:n], slices.Grow(s.dinv, n-old)[:n]
	for v := old; v < n; v++ {
		s.ainv[v], s.dinv[v] = factorsOf(g, s.alpha, uint32(v))
	}
	for _, es := range [2][]graph.Edge{del, ins} {
		for _, e := range es {
			s.ainv[e.U], s.dinv[e.U] = factorsOf(g, s.alpha, e.U)
		}
	}
	if d := g.M() - s.cutM; n != old || boundsDrift*max(d, -d) > s.cutM {
		s.cut(g)
	}
}

// Factors returns the kernel factors ainv and dinv (kernelFactors). The
// slices are the State's own: read them, never write them.
func (s *State) Factors() (ainv, dinv []float64) { return s.ainv, s.dinv }

// Bounds returns the chunk bounds (vertexBounds) the State last cut. The
// slice is the State's own: read it, never write it.
func (s *State) Bounds() []int { return s.bounds }

// balancedTarget is the per-chunk weight for edge-balanced chunking: Chunk
// vertices' worth of average in-weight, so a pass dispenses about as many
// chunks as fixed Chunk-sized vertex ranges would.
func balancedTarget(g *graph.CSR, chunk int) int {
	n := g.N()
	if n == 0 {
		return 1
	}
	t := chunk * (g.M() + n) / n
	if t < 1 {
		t = 1
	}
	return t
}

// vertexBounds computes the edge-balanced chunk boundaries for the rank
// loop: weight[v] = indeg(v)+1 matches the pull kernel's per-vertex cost
// (one gather per in-edge plus constant overhead), which stops a power-law
// hub row from serialising a whole pass behind one worker. The per-chunk
// weight is additionally capped so one chunk's working set stays within a
// typical last-level-cache slice — on small graphs the balanced target is
// already far below the cap and nothing changes; on graphs whose hub rows
// would make a chunk overflow the LLC, the cap splits them.
func vertexBounds(g *graph.CSR, chunk int) []int {
	const (
		// blockBytes is the working-set budget of one chunk (adjacency plus
		// the contributions it gathers).
		blockBytes = 4 << 20
		// bytesPerWeight converts weight units to the bytes a pull sweep
		// touches per unit: 4 B of adjacency and 8 B of gathered
		// contribution per in-edge, plus ~4 B of per-vertex rank state
		// amortised over the +1.
		bytesPerWeight = 16
	)
	n := g.N()
	w := make([]int, n)
	for v := uint32(0); int(v) < n; v++ {
		w[v] = g.InDeg(v) + 1
	}
	return sched.BalancedBounds(w, min(balancedTarget(g, chunk), blockBytes/bytesPerWeight))
}
