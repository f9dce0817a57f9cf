package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bct"
	"repro/internal/bicc"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/reduce"
)

// Plan is the seed-independent half of an estimation run: everything an
// estimate derives from the graph and the technique mask alone. Prepare
// builds it once; every Estimate on it then draws its own sources and
// traverses, so runs that differ only in fraction, seed, estimator, worker
// count or anytime settings share one reduction and one decomposition. A
// Plan is immutable once built (the BFS positions of a traversal unit are
// filled in once, on the first run that clusters its sources), so any
// number of runs may share it concurrently, and it keeps no per-run
// scratch.
//
// It holds the connectivity and closed-form checks, the reduction, and the
// one estimator's plan (cumPlan): the block decomposition with its block
// cut-vertex tree, the event-to-block assignment, the populations and the W
// weights of Algorithm 6, the block graphs and the per-block anchor plans
// (reduce.Anchors). Without TechBiCC, or when the reduced graph is one
// block, that plan has one block: the reduced graph itself, with no cut
// vertex and the anchor plan over every event.
type Plan struct {
	techniques Technique
	// closed is the whole answer for an input of at most one node, a path
	// or a cycle; every run gets a copy.
	closed *Result
	red    *reduce.Reduction
	cum    *cumPlan // set on every plan that is not closed
	blocks bicc.Stats
	biccT  bicc.Timings
	build  time.Duration
}

// Prepare builds the plan of g under the given techniques. workers caps the
// parallelism of the reduction and the decomposition (<1 means GOMAXPROCS);
// the plan is the same at every worker count. The graph must be simple,
// undirected and connected (see graph.Connect). Cancellation lands at the
// "core.reduce" and "core.decompose" checkpoints, inside the reduction
// stages, and while the block graphs are built; a canceled Prepare returns
// an ErrCanceled-wrapping error and no plan.
func Prepare(ctx context.Context, g *graph.Graph, techniques Technique, workers int) (*Plan, error) {
	start := time.Now()
	p := &Plan{techniques: techniques}
	switch g.NumNodes() {
	case 0:
		p.closed = &Result{}
		return p, nil
	case 1:
		p.closed = &Result{Farness: []float64{0}, Exact: []bool{true}}
		return p, nil
	}
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("core: graph is disconnected; connect it first (graph.Connect)")
	}
	if res, ok := closedForm(g); ok {
		p.closed = res
		return p, nil
	}
	if err := fault.Checkpoint(ctx, "core.reduce"); err != nil {
		return nil, err
	}
	red, err := reduce.RunContext(ctx, g, reduce.Options{
		Twins:     techniques&TechIdentical != 0,
		Chains:    techniques&TechChains != 0,
		Redundant: techniques&TechRedundant != 0,
		Workers:   workers,
	})
	if err != nil {
		return nil, err
	}
	p.red = red
	// A reduced graph of at most two nodes is one block without asking.
	var d *bicc.Decomposition
	if techniques&TechBiCC != 0 && red.G.NumNodes() > 2 {
		if err := fault.Checkpoint(ctx, "core.decompose"); err != nil {
			return nil, err
		}
		var biccT bicc.Timings
		d, biccT = bicc.DecomposeTimed(red.G, bicc.AlgoAuto, workers)
		p.blocks, p.biccT = d.Summarize(), biccT
	}
	if d == nil {
		d = oneBlock(red.G.NumNodes())
	}
	if p.cum, err = newCumPlan(ctx, red, d, workers); err != nil {
		return nil, err
	}
	p.build = time.Since(start)
	return p, nil
}

// BuildTime returns how long Prepare took to build the plan (zero for a
// closed-form plan). Estimate does not count it; a caller that built the
// plan for the run adds it to that run's RunStats.Preprocess, as
// EstimateContext does.
func (p *Plan) BuildTime() time.Duration { return p.build }

// Estimate runs one estimation on the plan. opts.Techniques must equal the
// plan's mask; every other option applies to this run alone. The result is
// bit-identical to EstimateContext with the same options, and its RunStats
// reports the plan's reduction and decomposition, with Preprocess covering
// only this run's sampling. Cancellation behaves as in EstimateContext
// from the "core.traverse" checkpoint on.
func (p *Plan) Estimate(ctx context.Context, opts Options) (*Result, error) {
	if opts.Techniques != p.techniques {
		return nil, fmt.Errorf("core: options ask for %v, the plan was prepared for %v", opts.Techniques, p.techniques)
	}
	if p.closed != nil {
		return p.closed.clone(), nil
	}
	return estimateCumulative(ctx, p, &opts)
}

// describe completes a result of a run on p, a snapshot included: it
// reports the plan's reduction and decomposition and propagates the exact
// values the reduction's closed forms give (propagateExact).
func (p *Plan) describe(res *Result) *Result {
	res.Stats.Reduction = p.red.Stats
	res.Stats.ReducedNodes = p.red.G.NumNodes()
	res.Stats.ReducedEdges = p.red.G.NumEdges()
	res.Stats.Blocks, res.Stats.BiCC = p.blocks, p.biccT
	propagateExact(p.red, res)
	return res
}

// clone copies a closed-form answer, so no two callers share its slices.
func (r *Result) clone() *Result {
	c := *r
	c.Farness = append([]float64(nil), r.Farness...)
	c.Exact = append([]bool(nil), r.Exact...)
	return &c
}

// cumPlan is the seed-independent part of a cumulative run: the
// decomposition, the block cut-vertex tree, the event-to-block assignment,
// every block's assigned population and W weights, the block graphs and the
// per-block anchor plans.
type cumPlan struct {
	*assignment
	tree *bct.Tree
	n    int
	pop  []int64   // [b]: the assigned population
	wout [][]int64 // [b][cut pos] nodes beyond the cut (Algorithm 6's W)
	// Per block, in block-local ids (the index into the block's sorted node
	// list): its graph, the anchor plan of the removal events assigned to
	// it with a column for every cut vertex of the block, the column of
	// every member (-1 when untracked) and of every cut, its cut vertices in
	// block order (a cut's position here is its position in
	// tree.BlockCuts[b]) and its other members.
	units         []*unitGraph
	anchors       []*reduce.Anchors
	colAt, cutCol [][]int32
	cuts, other   [][]graph.NodeID
}

// oneBlock is the decomposition of a reduced graph of n nodes taken as one
// block: every node in block 0 and no cut vertex. Its block lists no edges,
// since a one-block plan traverses the reduced graph itself.
func oneBlock(n int) *bicc.Decomposition {
	d := &bicc.Decomposition{
		BlockEdges: make([][]bicc.Edge, 1),
		BlockNodes: [][]graph.NodeID{make([]graph.NodeID, n)},
		IsCut:      make([]bool, n),
		BlocksOf:   make([][]int32, n),
	}
	block0 := []int32{0}
	for v := range n {
		d.BlockNodes[0][v] = graph.NodeID(v)
		d.BlocksOf[v] = block0
	}
	return d
}

// newCumPlan builds the cumulative plan over red's decomposition d. A
// one-block plan's unit graph is red.G itself: its only block is the whole
// reduced graph, in the same ids.
func newCumPlan(ctx context.Context, red *reduce.Reduction, d *bicc.Decomposition, workers int) (*cumPlan, error) {
	tree := bct.NewTree(d, largestBlock(d))
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	nb := d.NumBlocks()
	cp := &cumPlan{
		assignment: assignEvents(red, d, tree),
		tree:       tree,
		n:          red.Orig.NumNodes(),
		pop:        make([]int64, nb),
		units:      make([]*unitGraph, nb),
		anchors:    make([]*reduce.Anchors, nb),
		colAt:      make([][]int32, nb),
		cutCol:     make([][]int32, nb),
		cuts:       make([][]graph.NodeID, nb),
		other:      make([][]graph.NodeID, nb),
	}
	var total int64
	for b, a := range cp.assigned {
		cp.pop[b] = int64(len(a))
		total += cp.pop[b]
	}
	if total != int64(cp.n) {
		return nil, fmt.Errorf("core: population accounting mismatch: %d != %d", total, cp.n)
	}
	cp.wout = tree.Weights(cp.pop)
	err := par.ForBlocksCtx(ctx, nb, workers, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			members := d.BlockNodes[b]
			g := red.G
			if nb > 1 {
				g = buildBlockGraph(d, int32(b))
			}
			cp.units[b] = &unitGraph{g: g}
			var cutOrig []graph.NodeID
			for j, v := range members {
				if tree.CutIndex[v] >= 0 {
					cp.cuts[b] = append(cp.cuts[b], graph.NodeID(j))
					cutOrig = append(cutOrig, red.ToOld[v])
				} else {
					cp.other[b] = append(cp.other[b], graph.NodeID(j))
				}
			}
			an := reduce.NewAnchors(red, cp.blockEvents[b], func(o graph.NodeID) int32 {
				if j := localIndex(members, red.ToNew[o]); int(j) < len(members) && members[j] == red.ToNew[o] {
					return int32(j)
				}
				return -1
			}, cutOrig)
			cp.anchors[b], cp.colAt[b] = an, an.KeptColumns(len(members))
			for _, o := range cutOrig {
				cp.cutCol[b] = append(cp.cutCol[b], int32(an.Col(o)))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return cp, nil
}
