// Package core implements the BRICS farness-centrality estimators: the
// exact oracle, the random-sampling baseline (the paper's Algorithm 1), the
// reduction-based global estimator, and the full Cumulative estimator that
// adds the biconnected-component decomposition and block cut-vertex tree
// aggregation (Algorithms 4–6).
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bfs"
	"repro/internal/bicc"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/reduce"
)

// ErrCanceled is returned (wrapped) by EstimateContext and every other
// ctx-aware entry point when the run was abandoned because its context was
// canceled or timed out. The returned error also satisfies
// errors.Is(err, ctx.Err()), so callers can distinguish deadline expiry from
// explicit cancellation.
var ErrCanceled = par.ErrCanceled

// Technique is a bitmask selecting BRICS optimisations; the letters follow
// the paper's acronym.
type Technique uint8

const (
	// TechIdentical removes identical nodes (I).
	TechIdentical Technique = 1 << iota
	// TechChains contracts chain nodes (C).
	TechChains
	// TechRedundant removes redundant 3/4-degree nodes (R).
	TechRedundant
	// TechBiCC decomposes into biconnected components and aggregates
	// across the block cut-vertex tree (B).
	TechBiCC
)

// TechCumulative is the paper's full "Cumulative" configuration: B+R+I+C
// (sampling is always on).
const TechCumulative = TechIdentical | TechChains | TechRedundant | TechBiCC

// TechCR is the paper's "C+R" ablation configuration.
const TechCR = TechChains | TechRedundant

// TechICR is the paper's "I+C+R" ablation configuration.
const TechICR = TechIdentical | TechChains | TechRedundant

// String renders the enabled techniques in BRICS letter order; sampling (S)
// is always part of the estimator.
func (t Technique) String() string {
	s := ""
	if t&TechBiCC != 0 {
		s += "B"
	}
	if t&TechRedundant != 0 {
		s += "R"
	}
	if t&TechIdentical != 0 {
		s += "I"
	}
	if t&TechChains != 0 {
		s += "C"
	}
	return s + "S"
}

// EstimatorKind selects how sampled distance sums are extrapolated to full
// farness estimates for unsampled nodes.
type EstimatorKind int

const (
	// EstimatorWeighted extrapolates the unsampled population with the
	// average distance over the uniformly drawn samples, keeping the
	// always-sampled cut vertices as exact additive terms. Default.
	EstimatorWeighted EstimatorKind = iota
	// EstimatorPaper is the literal reading of the paper: scale the total
	// sampled distance sum by (population−1)/k.
	EstimatorPaper
)

// Options configures Estimate.
type Options struct {
	// Techniques is the set of enabled reductions; zero means pure
	// sampling on the input graph.
	Techniques Technique
	// SampleFraction is the fraction of (reduced) nodes used as BFS
	// sources, in (0, 1]. Zero defaults to 0.2, the operating point the
	// paper recommends for the cumulative approach (Fig. 4(b)).
	SampleFraction float64
	// Workers caps the parallelism of the whole run — the reduction
	// pipeline (twins/chains/redundant detection, BiCC decomposition, CSR
	// rebuilds) and the traversals alike; <1 means GOMAXPROCS. Results
	// are bit-identical for every worker count.
	Workers int
	// Seed makes sampling deterministic.
	Seed int64
	// Estimator selects the extrapolation rule.
	Estimator EstimatorKind
	// DisableExactPropagation turns off the closed-form farness
	// propagation for twins, dangling chains and pendant cycles
	// (Facts III.3/III.4 generalised); useful only for ablation.
	DisableExactPropagation bool
	// IterateReductions repeats the chain and redundant stages on the
	// weighted reduced graph until a fixpoint, going beyond the paper's
	// single pass (cascaded removals expose new chains and redundant
	// neighbourhoods).
	IterateReductions bool
	// ComputeStdErr additionally estimates each unsampled node's standard
	// error from the variance of its sampled distances (Cohen et al.'s
	// adaptive error estimation, per node). Costs one extra accumulation
	// array; Result.StdErr is nil when off.
	ComputeStdErr bool
	// Anytime turns the run into an anytime computation: instead of
	// discarding everything on ctx cancellation/deadline, the estimator
	// assembles a Partial result from the sources that completed — exact
	// farness for them, clamped extrapolations plus proven [Low, High]
	// bounds for the rest (see DESIGN.md §12). Uninterrupted runs are
	// bit-identical to Anytime=false. When no source completed before the
	// cancellation (or the cumulative gating fails, see estimateCumulative)
	// the run still returns nil + ErrCanceled.
	Anytime bool
	// Progress, when non-nil, receives live planned/completed counts and —
	// under Anytime — periodically published partial snapshots that a
	// concurrent observer (e.g. a server hitting its soft deadline) can
	// serve without interrupting the run.
	Progress *Progress
}

func (o *Options) fraction() float64 {
	if !(o.SampleFraction > 0) { // ≤ 0 or NaN: unset
		return 0.2
	}
	if o.SampleFraction > 1 {
		return 1
	}
	return o.SampleFraction
}

// RunStats reports what an estimation run did.
type RunStats struct {
	// Reduction summarises the removal stages.
	Reduction reduce.Stats
	// ReducedNodes and ReducedEdges size the reduced graph.
	ReducedNodes, ReducedEdges int
	// Blocks summarises the biconnected decomposition (zero unless
	// TechBiCC ran).
	Blocks bicc.Stats
	// BiCC reports the wall clock of the Hopcroft–Tarjan decomposition and
	// its canonical assembly; zero unless the decomposition ran.
	BiCC bicc.Timings
	// Samples is the number of BFS/Dial sources actually used.
	Samples int
	// FallbackAssignments counts removed nodes whose block assignment had
	// to fall back to a heuristic (expected zero; see DESIGN.md).
	FallbackAssignments int
	// ClosedForm is set when the input was a pure path or cycle and the
	// whole computation was answered in closed form.
	ClosedForm bool
	// Preprocess, Traverse and Aggregate partition the run time.
	Preprocess, Traverse, Aggregate time.Duration
}

// Result of an estimation run.
type Result struct {
	// Farness holds the estimated (or exact) farness per node.
	Farness []float64
	// Exact[v] is true when Farness[v] is exact rather than estimated
	// (sampled nodes, closed forms, propagated values).
	Exact []bool
	// StdErr estimates each node's standard error (0 for exact values);
	// nil unless Options.ComputeStdErr was set.
	StdErr []float64
	// Partial marks an anytime run that was cut short: Farness mixes exact
	// values (Exact[v] true) with bounded extrapolations, Completed out of
	// Planned sources finished, and Low/High bracket every node's true
	// farness (Low[v] = High[v] = Farness[v] where Exact). A Partial result
	// must never be cached or served as exact.
	Partial bool
	// Completed and Planned report the sampling progress of a Partial run
	// (zero on full runs).
	Completed, Planned int
	// Low and High are proven per-node farness bounds, derived from the
	// completed rows plus landmark triangle inequalities; nil unless
	// Partial.
	Low, High []float64
	// Stats reports run metadata.
	Stats RunStats
}

// ExactFarness computes the exact farness of every node (the ground-truth
// oracle): one traversal per node, in parallel.
func ExactFarness(g *graph.Graph, workers int) []float64 {
	return bfs.ExactFarness(g, workers)
}

// Estimate runs the BRICS estimator with the given options. The graph must
// be simple, undirected and connected (see graph.Connect).
func Estimate(g *graph.Graph, opts Options) (*Result, error) {
	return EstimateContext(context.Background(), g, opts)
}

// EstimateContext is Estimate with cooperative cancellation: the run checks
// ctx at every stage boundary (reduction stages, BiCC decomposition,
// traversal fan-out, aggregation) and inside the traversal kernels, and
// abandons the computation with an ErrCanceled-wrapping error once ctx is
// done. All pooled scratch is returned on the abort path, and a run whose
// context never fires produces farness bit-identical to Estimate.
func EstimateContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	n := g.NumNodes()
	if n == 0 {
		return &Result{}, nil
	}
	if n == 1 {
		return &Result{Farness: []float64{0}, Exact: []bool{true}}, nil
	}
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("core: graph is disconnected; connect it first (graph.Connect)")
	}
	if res, ok := closedForm(g); ok {
		return res, nil
	}
	if err := fault.Checkpoint(ctx, "core.reduce"); err != nil {
		return nil, err
	}

	start := time.Now()
	ropts := reduce.Options{
		Twins:     opts.Techniques&TechIdentical != 0,
		Chains:    opts.Techniques&TechChains != 0,
		Redundant: opts.Techniques&TechRedundant != 0,
		Workers:   opts.Workers,
	}
	var red *reduce.Reduction
	var err error
	if opts.IterateReductions {
		red, err = reduce.RunIterativeContext(ctx, g, ropts, 0)
	} else {
		red, err = reduce.RunContext(ctx, g, ropts)
	}
	if err != nil {
		return nil, err
	}
	prep := time.Since(start)

	var res *Result
	if opts.Techniques&TechBiCC != 0 {
		res, err = estimateCumulative(ctx, red, &opts)
	} else {
		res, err = estimateGlobal(ctx, red, &opts)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.Preprocess += prep
	res.Stats.Reduction = red.Stats
	res.Stats.ReducedNodes = red.G.NumNodes()
	res.Stats.ReducedEdges = red.G.NumEdges()

	if !opts.DisableExactPropagation {
		propagateExact(red, res)
	}
	// Propagation may rewrite a partial run's values (closed forms for
	// twins/chains); restore the bound invariants afterwards.
	res.finishPartial()
	return res, nil
}

// closedForm answers pure paths and cycles exactly in O(n): every node of
// such a graph is a chain node, so the reduction pipeline has no anchor to
// hang chains from and the estimator special-cases them.
func closedForm(g *graph.Graph) (*Result, bool) {
	n := g.NumNodes()
	deg1 := 0
	for v := 0; v < n; v++ {
		switch g.Degree(graph.NodeID(v)) {
		case 1:
			deg1++
		case 2:
		default:
			return nil, false
		}
	}
	far := make([]float64, n)
	exact := make([]bool, n)
	for i := range exact {
		exact[i] = true
	}
	if deg1 == 0 {
		// Cycle: identical farness everywhere — the ramp sum
		// Σ_{o=1..n-1} min(o, n−o).
		l := int64(n) - 1
		m := l / 2
		var s int64
		if l%2 == 0 {
			s = m * (m + 1)
		} else {
			s = (m + 1) * (m + 1)
		}
		for i := range far {
			far[i] = float64(s)
		}
		return &Result{Farness: far, Exact: exact, Stats: RunStats{ClosedForm: true}}, true
	}
	// Path: walk from one end; farness of the i-th node is
	// i(i+1)/2 + (n−1−i)(n−i)/2.
	var first graph.NodeID = -1
	for v := 0; v < n; v++ {
		if g.Degree(graph.NodeID(v)) == 1 {
			first = graph.NodeID(v)
			break
		}
	}
	pos := 0
	prev, cur := graph.NodeID(-1), first
	for {
		i := int64(pos)
		nn := int64(n)
		far[cur] = float64(i*(i+1)/2 + (nn-1-i)*(nn-i)/2)
		next := graph.NodeID(-1)
		for _, w := range g.Neighbors(cur) {
			if w != prev {
				next = w
				break
			}
		}
		if next < 0 {
			break
		}
		prev, cur = cur, next
		pos++
	}
	return &Result{Farness: far, Exact: exact, Stats: RunStats{ClosedForm: true}}, true
}

// ParseTechniques converts a letter string like "BRIC" (any order,
// spaces/'+' tolerated, 'S' accepted as a no-op since sampling is always
// on) into a Technique mask.
func ParseTechniques(s string) (Technique, error) {
	var t Technique
	for _, c := range s {
		switch c {
		case 'B', 'b':
			t |= TechBiCC
		case 'R', 'r':
			t |= TechRedundant
		case 'I', 'i':
			t |= TechIdentical
		case 'C', 'c':
			t |= TechChains
		case 'S', 's', ' ', '+':
		default:
			return 0, fmt.Errorf("core: unknown technique letter %q (want B,R,I,C)", c)
		}
	}
	return t, nil
}
