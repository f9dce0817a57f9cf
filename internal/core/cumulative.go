package core

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/bct"
	"repro/internal/bfs"
	"repro/internal/bicc"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/reduce"
)

// estimateCumulative is the one estimator: the full BRICS pipeline (the
// paper's Algorithm 5) on a plan that already homed every original node in
// one block (assignEvents) and built the block graphs, run as named phases:
// sample draws sources inside each block with every cut vertex always
// sampled, pass1 traverses every (block, source) pair once, summing its row
// over the block's kept nodes and adding each cut's cross-block W·d term on
// the way, collect adds up the landed sweeps and gives the removed nodes
// their sums from the sources' anchor rows (see reduce.Anchors), aggregate
// combines the cross-block distance constants over the block cut-vertex tree
// (Algorithm 6), and assemble produces per-node farness. On a one-block plan
// (no cut vertex) it is the sampled estimator over the reduced graph, the
// paper's Algorithm 1 with I, C and R.
//
// Cancellation lands before pass 1 ("core.traverse"), after every sweep and
// within the kernels. A run whose traversal finished is whole; the
// "core.aggregate" point after it injects faults but reads no context. On a
// canceled traversal an anytime run returns its partial result (see
// partial), any other run discards its accumulators. An anytime run with a
// Progress offers the same partial as a snapshot while it runs.
func estimateCumulative(ctx context.Context, p *Plan, opts *Options) (*Result, error) {
	prepStart := time.Now()
	c := &cumulative{cumPlan: p.cum, opts: opts, workers: par.Workers(opts.Workers)}
	c.sample()
	prep := time.Since(prepStart)

	if err := fault.Checkpoint(ctx, "core.traverse"); err != nil {
		return nil, err
	}
	if opts.Anytime && opts.Progress != nil {
		// A snapshot is described as the run's own partial is, so both
		// answer alike at one completed count.
		snapshot := func() *Result {
			if res := c.partial(); res != nil {
				return p.describe(res)
			}
			return nil
		}
		opts.Progress.assemble.Store(&snapshot)
	}
	travStart := time.Now()
	err := c.pass1(ctx)
	if err == nil {
		err = fault.Inject(ctx, "core.aggregate")
	}
	trav := time.Since(travStart)
	if err != nil {
		if !opts.Anytime || !canceledErr(err) {
			return nil, err
		}
		res := c.partial()
		if res == nil {
			return nil, err
		}
		res.Stats.Preprocess, res.Stats.Traverse = prep, trav
		return p.describe(res), nil
	}
	aggStart := time.Now()
	res := c.assemble(c.collect(), false)
	res.Stats = RunStats{
		Samples:             c.totalSamples,
		FallbackAssignments: c.fallbacks,
		Preprocess:          prep,
		Traverse:            trav,
		Aggregate:           time.Since(aggStart),
	}
	return p.describe(res), nil
}

// assignment homes every original node in exactly one block: a kept node in
// its home block (a cut vertex's tree.HomeBlock, otherwise its only block),
// a removed node in the block its removal event is assigned to.
type assignment struct {
	red *reduce.Reduction
	d   *bicc.Decomposition

	homeOf      []int32 // home block of every kept (reduced) node
	evOf        []int32 // event that removed each original node; -1 if kept
	eventBlock  []int32 // block of every removal event
	blockEvents [][]int32
	// assigned[b] lists the original ids homed in block b: kept members
	// first (in block order), then each of blockEvents[b]'s removed nodes.
	// Every per-block row over the assigned population uses this order.
	assigned [][]graph.NodeID
	// homed[b] lists the block-local ids of the members homed in b, the
	// kept part of assigned[b] in the same order.
	homed     [][]int32
	fallbacks int // events whose block had to fall back to a heuristic
}

// assignEvents is the event→block phase: it homes every kept node, assigns
// each removal event to a block holding all of its anchors (visiting events
// in reverse, so an anchor removed by a later event already has a block),
// and collects the per-block assigned lists.
func assignEvents(red *reduce.Reduction, d *bicc.Decomposition, tree *bct.Tree) *assignment {
	n, nR, nb := red.Orig.NumNodes(), red.G.NumNodes(), d.NumBlocks()
	a := &assignment{
		red:        red,
		d:          d,
		homeOf:     make([]int32, nR),
		evOf:       make([]int32, n),
		eventBlock: make([]int32, len(red.Events)),
	}
	for v := range a.homeOf {
		if ci := tree.CutIndex[v]; ci >= 0 {
			a.homeOf[v] = tree.HomeBlock[ci]
		} else {
			a.homeOf[v] = d.BlocksOf[v][0]
		}
	}
	for i := range a.evOf {
		a.evOf[i] = -1
	}
	for i, e := range red.Events {
		for _, r := range e.Removed() {
			a.evOf[r] = int32(i)
		}
	}
	for i := len(red.Events) - 1; i >= 0; i-- {
		var b int32 = -1
		switch e := red.Events[i].(type) {
		case *reduce.TwinEvent:
			b = a.blockOf(e.Rep)
		case *reduce.ChainEvent:
			if e.V >= 0 && e.V != e.U {
				ur, vr := red.ToNew[e.U], red.ToNew[e.V]
				switch {
				case ur >= 0 && vr >= 0:
					b = d.CommonBlock(ur, vr)
				case ur < 0:
					b = a.blockOf(e.U)
				default:
					b = a.blockOf(e.V)
				}
				// Both anchors must be reachable in the assigned block.
				if b >= 0 && (!a.inBlock(b, e.U) || !a.inBlock(b, e.V)) {
					b = -1
				}
			} else {
				b = a.blockOf(e.U)
			}
		case *reduce.RedundantEvent:
			// All neighbours of a redundant node share a block. Redundant
			// nodes form an independent set removed in the last stage, so
			// every neighbour is kept in the reduced graph.
			var cand []int32
			for _, x := range e.Nbrs {
				blocks := d.BlocksOf[red.ToNew[x]]
				if cand == nil {
					cand = append(cand, blocks...)
				} else {
					cand = intersectBlocks(cand, blocks)
				}
			}
			if len(cand) > 0 {
				b = cand[0]
			}
		}
		if b < 0 {
			// Should not happen (see DESIGN.md); keep the run alive with the
			// first anchor's block and count the imprecision.
			a.fallbacks++
			b = a.blockOf(red.Events[i].Anchors()[0])
		}
		a.eventBlock[i] = b
	}

	a.blockEvents = make([][]int32, nb)
	a.assigned = make([][]graph.NodeID, nb)
	a.homed = make([][]int32, nb)
	for i, b := range a.eventBlock {
		a.blockEvents[b] = append(a.blockEvents[b], int32(i))
	}
	for b, members := range d.BlockNodes {
		for j, m := range members {
			if a.homeOf[m] == int32(b) {
				a.assigned[b] = append(a.assigned[b], red.ToOld[m])
				a.homed[b] = append(a.homed[b], int32(j))
			}
		}
		for _, ei := range a.blockEvents[b] {
			a.assigned[b] = append(a.assigned[b], red.Events[ei].Removed()...)
		}
	}
	return a
}

// blockOf returns the block original node o is homed in. For a removed node
// that is its event's block, so it is valid once that event is assigned.
func (a *assignment) blockOf(o graph.NodeID) int32 {
	if rid := a.red.ToNew[o]; rid >= 0 {
		return a.homeOf[rid]
	}
	return a.eventBlock[a.evOf[o]]
}

// inBlock reports whether original node o is reachable inside block b: a
// kept node belongs to it, or a removed node's event is assigned to it.
func (a *assignment) inBlock(b int32, o graph.NodeID) bool {
	if rid := a.red.ToNew[o]; rid >= 0 {
		for _, bb := range a.d.BlocksOf[rid] {
			if bb == b {
				return true
			}
		}
		return false
	}
	return a.eventBlock[a.evOf[o]] == b
}

// blockCounts holds per-block source counts: every source, the uniformly
// drawn (non-cut) ones, and those homed in the block.
type blockCounts struct {
	sources, drawn, assigned []int64
}

func newBlockCounts(nb int) blockCounts {
	return blockCounts{make([]int64, nb), make([]int64, nb), make([]int64, nb)}
}

// cumulative is the state the phases of one cumulative run share, on top
// of the plan's. Per-node arrays are indexed by original id, per-block ones
// by block id; a block's sources use block-local ids (the index into the
// block's sorted node list). Pass 1's workers write the run's accumulators
// under the anytime read lock; an assembly (collect) only reads them.
type cumulative struct {
	*cumPlan
	opts    *Options
	workers int

	// Sampling.
	sources      [][]graph.NodeID // per block: its cut vertices in block order, then the drawn members
	planned      blockCounts
	totalSamples int
	isSample     []bool
	// removed are the removed nodes drawn as sources when the reduced graph
	// has fewer than minSamples nodes (see sample), and removedRows their
	// distance rows over the original graph, set once pass1 took them.
	removed     []graph.NodeID
	removedRows [][]int32

	// Anytime bookkeeping (nil/zero unless Anytime or Progress is set).
	any      *anyState
	cutPairs int

	// Pass 1, per block b and source position i (the index into
	// sources[b]; a cut's position is its position in tree.BlockCuts[b]).
	cutRows  [][]int32    // [b]: the anchor rows of the cut sources
	srcPos   [][]int32    // [b][local id]: source position, or -1
	nodes    [][]laneNode // [b][local id]: what a sweep does at the member
	rowDone  [][]bool     // [b][i]: the source's row is accumulated
	srcIn    [][]int64    // [b][i]: Σ d(s,·) over the assigned population
	srcToS   [][]int64    // [b][i]: the part of srcIn over sampled nodes
	sumDist  [][]int64    // [b][cut pos]: Σ d(c,·) over the assigned population
	cutDist  [][][]int32  // [b][cut pos][cut pos]: in-block distances between cuts
	exactIn  []int64      // every assigned source's own in-block sum
	workSums []cumSums    // per worker, over kept nodes by reduced id
}

// tally is what one assembly adds up from the landed sweeps (see collect).
// The in-block sums over each block's assigned population, by original id,
// are split by the kind of source: drawn (sumRand), cut (sumCut), cut
// weighted by W(B,c) (crossAcc, Σ_cuts W(B,c)·d(c,o)), and assigned
// (sumAssigned, the drawn sources and the cuts homed in the block, with the
// squares in sumSqA).
type tally struct {
	sumRand, sumCut, crossAcc, sumAssigned, sumSqA []int64
	aS2S, aS2N                                     []int64 // per-block offset calibration (see inBlockEstimate)
	completed                                      blockCounts
	sumDist                                        [][]int64 // the run's, corrected for twins of cuts
	crossConst                                     []int64   // per block: Σ_cuts D(B,c)
}

// sample is the sampling phase (Algorithm 5, lines 7–10): every cut
// vertex, plus a per-block share of the run's budget drawn uniformly among
// the block's non-cut members. A run draws at least min(minSamples, n)
// sources, so an input the reduction collapses still has rows to calibrate
// its extrapolation against: the budget is at least min(minSamples, nR),
// and a reduced graph of fewer than minSamples nodes, sampled whole, is
// topped up with removed nodes drawn uniformly. It also sizes the anytime
// bookkeeping.
func (c *cumulative) sample() {
	d := c.d
	nR, nb := c.red.G.NumNodes(), d.NumBlocks()
	kTotal := max(samplesFor(nR, c.opts.fraction()), min(minSamples, nR))
	c.sources = make([][]graph.NodeID, nb)
	c.planned = newBlockCounts(nb)
	c.isSample = make([]bool, c.n)
	for b, members := range d.BlockNodes {
		cuts, nonCut := len(c.cuts[b]), c.other[b]
		src := append(make([]graph.NodeID, 0, cuts), c.cuts[b]...)
		kb := min(max((kTotal*len(members)+nR-1)/nR-cuts, 0), len(nonCut))
		if kb > 0 {
			rng := rand.New(rand.NewSource(c.opts.Seed + int64(b)*7919))
			for _, j := range sampleK(len(nonCut), kb, rng) {
				src = append(src, nonCut[j])
			}
		}
		c.sources[b] = src
		c.planned.sources[b] = int64(len(src))
		c.planned.drawn[b] = int64(len(src) - cuts)
		c.planned.assigned[b] = c.planned.drawn[b]
		for i, j := range src {
			if i < cuts && c.homeOf[members[j]] == int32(b) {
				c.planned.assigned[b]++
			}
			c.isSample[c.red.ToOld[members[j]]] = true
		}
		c.totalSamples += len(src)
		c.cutPairs += cuts
	}
	if nR < minSamples {
		var removed []graph.NodeID
		for o, r := range c.red.ToNew {
			if r < 0 {
				removed = append(removed, graph.NodeID(o))
			}
		}
		if len(removed) > 0 {
			// The seed stream after the blocks' own.
			rng := rand.New(rand.NewSource(c.opts.Seed + int64(nb)*7919))
			for _, i := range sampleK(len(removed), minSamples-nR, rng) {
				o := removed[i]
				b := c.blockOf(o)
				c.removed = append(c.removed, o)
				c.isSample[o] = true
				c.planned.sources[b]++
				c.planned.drawn[b]++
				c.planned.assigned[b]++
			}
			c.totalSamples += len(c.removed)
		}
	}

	// Anytime: "planned" counts traversal units — a cut vertex once per
	// block it belongs to — matching totalSamples.
	if c.opts.Anytime || c.opts.Progress != nil {
		c.any = newAnyState(c.n, c.totalSamples, c.opts.Progress)
	}
}

// minSamples is the least number of sources a run draws when the graph has
// that many nodes.
const minSamples = 4

// pass1 traverses every block once from every one of its sources, cut
// sources first: the cross-block terms need all of them, so an interrupted
// anytime run has usually banked them.
func (c *cumulative) pass1(ctx context.Context) error {
	nb := c.d.NumBlocks()
	c.exactIn = make([]int64, c.n)
	c.cutRows = make([][]int32, nb)
	c.srcPos = make([][]int32, nb)
	c.nodes = make([][]laneNode, nb)
	c.rowDone = make([][]bool, nb)
	c.srcIn, c.srcToS = make([][]int64, nb), make([][]int64, nb)
	c.sumDist = make([][]int64, nb)
	c.cutDist = make([][][]int32, nb)
	err := par.ForBlocksCtx(ctx, nb, c.opts.Workers, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			members, src := c.d.BlockNodes[b], c.sources[b]
			c.cutRows[b] = make([]int32, len(c.tree.BlockCuts[b])*c.anchors[b].Width())
			c.srcPos[b] = make([]int32, len(members))
			for j := range c.srcPos[b] {
				c.srcPos[b][j] = -1
			}
			for i, j := range src {
				c.srcPos[b][j] = int32(i)
			}
			c.nodes[b] = make([]laneNode, len(members))
			for j, col := range c.colAt[b] {
				c.nodes[b][j] = laneNode{col: col, r: -1}
			}
			for _, j := range c.homed[b] {
				o := c.red.ToOld[members[j]]
				c.nodes[b][j].r, c.nodes[b][j].sampled = members[j], c.isSample[o]
			}
			c.rowDone[b] = make([]bool, len(src))
			c.srcIn[b], c.srcToS[b] = make([]int64, len(src)), make([]int64, len(src))
			k := len(c.tree.BlockCuts[b])
			c.sumDist[b] = make([]int64, k)
			c.cutDist[b] = make([][]int32, k)
			for i := range c.cutDist[b] {
				c.cutDist[b][i] = make([]int32, k)
			}
		}
	})
	if err != nil {
		return err
	}
	c.traverseRemoved()
	units := make([]unit, nb)
	for b, src := range c.sources {
		units[b] = unit{c.units[b], src}
	}
	c.workSums = make([]cumSums, c.workers)
	return traverse(ctx, units, c.workers,
		func(b int, src graph.NodeID) bool { return c.tree.CutIndex[c.d.BlockNodes[b][src]] >= 0 },
		func(w int) laneSink {
			s := &cumSink{c: c, ws: &c.workSums[w]}
			return laneSink{s.start, s.visit, s.finish}
		})
}

// traverseRemoved takes the rows of the removed sources on the original
// graph (at most minSamples−1 plain BFS runs): a removed source's in-block
// sum is its row over its block's assigned population, and collect adds the
// rows to the other nodes' drawn sums.
func (c *cumulative) traverseRemoved() {
	if len(c.removed) == 0 {
		return
	}
	rows := landmarkRows(c.red.Orig, c.removed, c.workers)
	var counts []int64
	if c.any != nil {
		c.any.mu.RLock()
	}
	for i, o := range c.removed {
		for _, w := range c.assigned[c.blockOf(o)] {
			c.exactIn[o] += int64(rows[i][w])
		}
		if c.any != nil {
			c.any.doneSrc[o] = true
			counts = append(counts, c.any.complete())
		}
	}
	c.removedRows = rows
	if c.any != nil {
		c.any.mu.RUnlock()
		for _, n := range counts {
			c.any.advance(n)
		}
	}
}

// laneNode is what a sweep of a block does at one member: capture its
// distance into anchor column col (-1: none) and, when the member is homed
// in the block (r, its reduced id, ≥ 0), add to its sums and the lanes'
// in-block totals, and to their to-samples totals when it is a sample.
type laneNode struct {
	col, r  int32
	sampled bool
}

// cumSums is one traversal worker's share of the cumulative in-block sums
// over kept nodes, indexed by reduced id and split by source kind as the
// run-wide sums are (see cumulative). Each array is allocated on the
// worker's first sweep that feeds it, so idle workers and unused kinds cost
// nothing.
type cumSums struct {
	rand, sqDrawn, cut, cross, homed, sqHomed []int64
	drawnRows                                 []*reduce.RowSums // [b]: the drawn rows, for the removed nodes
}

// lazy returns *a, allocating it with n zeros first.
func lazy(a *[]int64, n int) []int64 {
	if *a == nil {
		*a = make([]int64, n)
	}
	return *a
}

// cumSink accumulates one worker's sweeps of the blocks. A sweep holds
// either cut sources only or drawn sources only (traverse runs the cuts'
// own sweeps first). Per visit of a member homed in the block it adds
// d·|mask| to the member's sum for the sweep's kind of source — drawn, or
// cut, with d·Σ W(B,c) over the mask's lanes for the cross-block sums and
// d·|mask ∩ homed lanes| for the homed sums — and the squares; d to each
// lane's in-block total and, at a sample, to its to-samples total. At every
// tracked member it captures d into the lanes' anchor rows, whose columns
// include the block's cuts. finish completes the anchor rows and adds the
// closed forms over the removed nodes: a drawn row into the worker's row
// sums for the block, a cut row kept for collect with its distance sum and
// its distances to the block's cuts. The removed nodes get their sums in
// collect. An anytime run stages the node sums of a sweep apart and
// folds them in at finish, and finish writes under the anytime read lock,
// so an assembly sees whole sweeps only.
type cumSink struct {
	c  *cumulative
	ws *cumSums

	b       int32
	srcs    []graph.NodeID
	cut     bool
	members []graph.NodeID
	nodes   []laneNode
	width   int
	cols    []int32 // the lanes' anchor rows, one after another
	in, toS bfs.LaneAcc
	full    uint64 // the mask of every lane
	// A cut sweep's lanes whose cut is homed in the block, and W(B,c) per
	// lane and over every lane.
	homedLanes uint64
	w          [bfs.MSBFSWidth]int64
	wAll       int64
	// The sweep's node sums by reduced id: drawn (sum, sq) or cut (sum,
	// cross, homed, sq over the homed lanes), into the worker's sums or,
	// staged, into stage, with dst their destinations.
	sum, cross, homed, sq []int64
	dst                   [4]*[]int64
	stage                 [4][]int64
	counts                [bfs.MSBFSWidth]int64 // the completed counts the lanes reached
}

func (s *cumSink) start(u int, srcs []graph.NodeID) {
	c, ws := s.c, s.ws
	b := int32(u)
	s.b, s.srcs = b, srcs
	s.members, s.nodes = c.d.BlockNodes[b], c.nodes[b]
	s.in.Reset(len(srcs))
	s.toS.Reset(len(srcs))
	s.width = c.anchors[b].Width()
	s.cols = laneRows(s.cols, len(srcs), s.width)
	nCut := len(c.tree.BlockCuts[b])
	s.cut = int(c.srcPos[b][srcs[0]]) < nCut
	s.full = ^uint64(0) >> uint(bfs.MSBFSWidth-len(srcs))
	s.dst = [4]*[]int64{}
	if !s.cut {
		s.dst[0] = &ws.rand
		if c.opts.ComputeStdErr {
			s.dst[3] = &ws.sqDrawn
		}
	} else {
		s.dst[0], s.dst[1] = &ws.cut, &ws.cross
		s.homedLanes, s.wAll = 0, 0
		for lane, src := range srcs {
			s.w[lane] = c.wout[b][c.srcPos[b][src]]
			s.wAll += s.w[lane]
			if c.homeOf[s.members[src]] == b {
				s.homedLanes |= uint64(1) << uint(lane)
			}
		}
		if s.homedLanes != 0 {
			s.dst[2] = &ws.homed
			if c.opts.ComputeStdErr {
				s.dst[3] = &ws.sqHomed
			}
		}
	}
	nR := c.red.G.NumNodes()
	var sums [4][]int64
	for i, d := range s.dst {
		switch {
		case d == nil:
		case c.any != nil: // a run that is not anytime needs no stage
			sums[i] = lazy(&s.stage[i], nR)
		default:
			sums[i] = lazy(d, nR)
		}
	}
	s.sum, s.cross, s.homed, s.sq = sums[0], sums[1], sums[2], sums[3]
}

func (s *cumSink) visit(v graph.NodeID, mask uint64, d int32) {
	nd := &s.nodes[v]
	if c := int(nd.col); c >= 0 {
		for m := mask; m != 0; m &= m - 1 {
			s.cols[bits.TrailingZeros64(m)*s.width+c] = d
		}
	}
	r := nd.r
	if r < 0 {
		return
	}
	s.in.Add(mask, d)
	if nd.sampled {
		s.toS.Add(mask, d)
	}
	dd := int64(d)
	x := dd * int64(bits.OnesCount64(mask))
	s.sum[r] += x
	if !s.cut {
		if s.sq != nil {
			s.sq[r] += dd * x
		}
		return
	}
	w := s.wAll
	if mask != s.full {
		w = 0
		for m := mask; m != 0; m &= m - 1 {
			w += s.w[bits.TrailingZeros64(m)]
		}
	}
	s.cross[r] += dd * w
	if hm := mask & s.homedLanes; hm != 0 {
		y := dd * int64(bits.OnesCount64(hm))
		s.homed[r] += y
		if s.sq != nil {
			s.sq[r] += dd * y
		}
	}
}

func (s *cumSink) finish() {
	c, ws, b, k := s.c, s.ws, s.b, len(s.srcs)
	var in, toS [bfs.MSBFSWidth]int64
	s.in.Sums(in[:k])
	s.toS.Sums(toS[:k])
	an, width := c.anchors[b], s.width
	if c.any != nil {
		c.any.mu.RLock()
		nR := c.red.G.NumNodes()
		for i, d := range s.dst {
			if d == nil {
				continue
			}
			dst, st := lazy(d, nR), s.stage[i]
			for _, j := range c.homed[b] {
				r := s.members[j]
				dst[r] += st[r]
				st[r] = 0
			}
		}
	}
	for lane, src := range s.srcs {
		cols := s.cols[lane*width : (lane+1)*width]
		an.Fill(cols)
		rid, pos := s.members[src], c.srcPos[b][src]
		srcOrig := c.red.ToOld[rid]
		inSum := in[lane]
		if !s.cut {
			if ws.drawnRows == nil {
				ws.drawnRows = make([]*reduce.RowSums, c.d.NumBlocks())
			}
			if ws.drawnRows[b] == nil {
				ws.drawnRows[b] = an.NewRowSums()
			}
			inSum += an.Account(cols, srcOrig, 1, ws.drawnRows[b])
		} else {
			copy(c.cutRows[b][int(pos)*width:], cols)
			inSum += an.Account(cols, srcOrig, 0, nil)
			c.sumDist[b][pos] = inSum
			for lj, col := range c.cutCol[b] {
				c.cutDist[b][pos][lj] = cols[col]
			}
		}
		srcAssigned := c.homeOf[rid] == b
		if srcAssigned {
			c.exactIn[srcOrig] = inSum
			c.srcIn[b][pos], c.srcToS[b][pos] = inSum, toS[lane]
		}
		c.rowDone[b][pos] = true
		if c.any != nil {
			if srcAssigned {
				c.any.doneSrc[srcOrig] = true
			}
			s.counts[lane] = c.any.complete()
		}
	}
	if c.any != nil {
		c.any.mu.RUnlock()
		for _, n := range s.counts[:k] {
			c.any.advance(n)
		}
	}
}

// collect adds up the sweeps landed so far into a fresh tally, reading the
// run's accumulators and changing none, so it may run again. It adds the
// workers' sums into the run-wide ones, gives every removed node its sums
// per kind of source (reduce.Anchors.AddSums over the workers' drawn-row
// sums, and over the accumulated cut rows weighed once per kind), derives
// the per-block calibration sums and the completed counts from the
// accumulated rows, and runs the tree aggregation over the cut rows. Once
// the traversal has joined it needs no lock; while it runs, the caller holds
// the anytime write lock.
func (c *cumulative) collect() *tally {
	n, nb := c.n, c.d.NumBlocks()
	t := &tally{sumRand: make([]int64, n), sumCut: make([]int64, n), crossAcc: make([]int64, n)}
	// The homed cuts' sums are kept apart until the removed nodes have
	// theirs, since each rule reads its anchor's sums over exactly its own
	// rows.
	homed := make([]int64, n)
	var sqHomed []int64
	if c.opts.ComputeStdErr {
		t.sumSqA, sqHomed = make([]int64, n), make([]int64, n)
	}
	toOld := c.red.ToOld
	addKept := func(dst, src []int64) {
		for r, x := range src {
			dst[toOld[r]] += x
		}
	}
	for i := range c.workSums {
		ws := &c.workSums[i]
		addKept(t.sumRand, ws.rand)
		addKept(t.sumCut, ws.cut)
		addKept(t.crossAcc, ws.cross)
		addKept(homed, ws.homed)
		if sqHomed != nil {
			addKept(t.sumSqA, ws.sqDrawn)
			addKept(sqHomed, ws.sqHomed)
		}
	}
	t.aS2S, t.aS2N = make([]int64, nb), make([]int64, nb)
	t.completed = newBlockCounts(nb)
	for b := range nb {
		an, members, nCut := c.anchors[b], c.d.BlockNodes[b], len(c.tree.BlockCuts[b])
		for i, j := range c.sources[b] {
			if !c.rowDone[b][i] {
				continue
			}
			t.completed.sources[b]++
			if i >= nCut {
				t.completed.drawn[b]++
			} else if c.homeOf[members[j]] != int32(b) {
				continue
			}
			t.completed.assigned[b]++
			t.aS2S[b] += c.srcToS[b][i]
			t.aS2N[b] += c.srcIn[b][i] - c.srcToS[b][i]
		}
		rs := an.NewRowSums()
		for i := range c.workSums {
			if drawn := c.workSums[i].drawnRows; drawn != nil && drawn[b] != nil {
				rs.Add(drawn[b])
			}
		}
		an.AddSums(rs, t.sumRand, t.sumSqA)
		if nCut == 0 {
			continue
		}
		// The cut rows weighed as plain, W(B,c)-weighted and homed rows.
		cutRows := func(weight func(i int) int64, sum, sq []int64) {
			rs.Reset()
			for i := range nCut {
				if w := weight(i); w != 0 && c.rowDone[b][i] {
					width := an.Width()
					an.Account(c.cutRows[b][i*width:(i+1)*width], toOld[members[c.sources[b][i]]], w, rs)
				}
			}
			an.AddSums(rs, sum, sq)
		}
		cutRows(func(int) int64 { return 1 }, t.sumCut, nil)
		cutRows(func(i int) int64 { return c.wout[b][i] }, t.crossAcc, nil)
		cutRows(func(i int) int64 {
			if c.homeOf[members[c.sources[b][i]]] == int32(b) {
				return 1
			}
			return 0
		}, homed, sqHomed)
	}
	// A removed source's row is a whole-graph row, so it feeds the drawn
	// sums of every node of its block as it is. For the calibration it is a
	// sample row: its distances to the samples go to aS2S, the rest to
	// aS2N. A kept source's row counted its distance to the removed source
	// as non-sample mass, so that distance moves to aS2S as well.
	for i, row := range c.removedRows {
		b := c.blockOf(c.removed[i])
		t.completed.sources[b]++
		t.completed.drawn[b]++
		t.completed.assigned[b]++
		for _, w := range c.assigned[b] {
			d := int64(row[w])
			t.sumRand[w] += d
			if t.sumSqA != nil {
				t.sumSqA[w] += d * d
			}
			switch {
			case !c.isSample[w]:
				t.aS2N[b] += d
			case c.red.ToNew[w] >= 0:
				t.aS2S[b] += 2 * d
				t.aS2N[b] -= d
			default:
				t.aS2S[b] += d
			}
		}
	}
	for o := range homed {
		homed[o] += t.sumRand[o]
		if sqHomed != nil {
			t.sumSqA[o] += sqHomed[o]
		}
	}
	t.sumAssigned = homed
	t.sumDist = make([][]int64, nb)
	for b, sd := range c.sumDist {
		t.sumDist[b] = slices.Clone(sd)
	}
	c.correctTwinCuts(t.sumDist)
	c.aggregate(t)
	return t
}

// cutRowsDone counts the (block, cut) traversals whose rows were
// accumulated.
func (c *cumulative) cutRowsDone() int {
	done := 0
	for b, cuts := range c.tree.BlockCuts {
		for _, ok := range c.rowDone[b][:len(cuts)] {
			if ok {
				done++
			}
		}
	}
	return done
}

// correctTwinCuts fixes the tree inputs for twins of a cut vertex: a twin
// whose representative is a cut vertex c behaves as a copy *at* c — for any
// outside node w, d(w, twin) = d(w, c) + 0, not + GroupDist. The extension
// necessarily reports d(c, twin) = GroupDist (correct for c's own farness,
// which keeps the uncorrected inSum), so c's row in its home block, in
// sumDist, must subtract that excess.
func (c *cumulative) correctTwinCuts(sumDist [][]int64) {
	for i, e := range c.red.Events {
		te, ok := e.(*reduce.TwinEvent)
		if !ok {
			continue
		}
		rid := c.red.ToNew[te.Rep]
		if rid < 0 {
			continue
		}
		ci := c.tree.CutIndex[rid]
		if ci < 0 {
			continue
		}
		b := c.eventBlock[i] // the rep's home block
		if li := c.tree.CutPos(b, ci); li >= 0 {
			sumDist[b][li] -= int64(len(te.Members)) * int64(te.GroupDist)
		}
	}
}

// aggregate runs the tree aggregation (Algorithm 6) and sums every block's
// cross-block distance constant Σ_cuts D(B,c); pass 1 already added the
// W·d terms.
func (c *cumulative) aggregate(t *tally) {
	contrib := c.tree.Aggregate(&bct.Inputs{Pop: c.pop, SumDist: t.sumDist, CutDist: c.cutDist})
	t.crossConst = make([]int64, len(c.sources))
	for b, dout := range contrib.Dout {
		for _, x := range dout {
			t.crossConst[b] += x
		}
	}
}

// assemble is the last phase: exact in-block farness plus the cross-block
// part for every sampled node, and an extrapolated in-block part for the
// rest. A partial assembly only trusts sources whose assigned traversal
// completed; everything else falls back to the extrapolation with the
// completed counts in place of the planned ones.
func (c *cumulative) assemble(t *tally, partial bool) *Result {
	n := c.n
	res := &Result{Farness: make([]float64, n), Exact: make([]bool, n)}
	sampled, cnt := c.isSample, &c.planned
	if partial {
		sampled, cnt = c.any.doneSrc, &t.completed
	}
	if t.sumSqA != nil && !partial {
		res.StdErr = make([]float64, n)
	}
	// Partial runs skip the landmark and offset calibrations: both mix
	// planned-sample bookkeeping with completed-source sums, which no
	// longer match.
	var lmVal []float64
	var lmSet []bool
	if c.opts.Estimator == EstimatorWeighted && !partial {
		lmVal, lmSet = c.landmarkEstimates(t)
	}
	for o := 0; o < n; o++ {
		b := c.blockOf(graph.NodeID(o))
		cross := float64(t.crossAcc[o] + t.crossConst[b])
		if sampled[o] {
			res.Exact[o] = true
			res.Farness[o] = float64(c.exactIn[o]) + cross
			continue
		}
		m := int64(len(c.assigned[b])) - cnt.assigned[b] // assigned non-sample mass
		inEst := 0.0
		if lmSet != nil && lmSet[o] {
			inEst = lmVal[o]
		} else {
			inEst = c.inBlockEstimate(t, o, b, m, cnt, partial)
		}
		res.Farness[o] = inEst + cross
		if ka := cnt.assigned[b]; res.StdErr != nil && ka > 1 && m > 1 {
			// In-block standard error: the estimate scales the mean sampled
			// distance by the unsampled mass, so its standard error is
			// (m−1)·s/√k with s the sample standard deviation of the node's
			// distances. The cross-block part is exact, so only the in-block
			// extrapolation contributes variance.
			mean := float64(t.sumAssigned[o]) / float64(ka)
			variance := (float64(t.sumSqA[o])/float64(ka) - mean*mean) * float64(ka) / float64(ka-1)
			if variance < 0 {
				variance = 0
			}
			res.StdErr[o] = float64(m-1) * math.Sqrt(variance/float64(ka))
		}
	}
	return res
}

// inBlockEstimate extrapolates unsampled node o's distance sum over block
// b's assigned population, m of which is unsampled.
func (c *cumulative) inBlockEstimate(t *tally, o int, b int32, m int64, cnt *blockCounts, partial bool) float64 {
	ns, ka := cnt.sources[b], cnt.assigned[b]
	pop := int64(len(c.assigned[b]))
	switch {
	case c.opts.Estimator == EstimatorPaper:
		// The literal reading of the paper's Algorithm 1: scale the sampled
		// distance sum by (population−1)/k.
		if ns > 0 {
			return float64(pop-1) / float64(ns) * float64(t.sumRand[o]+t.sumCut[o])
		}
		return 0
	case !partial && ka > 1 && m > 0:
		// Additive offset calibration: samples are kept (well-connected)
		// nodes, so an unsampled node's mean distance to the non-sampled
		// population (mostly reduced-away peripheral nodes) exceeds its mean
		// distance to the samples by roughly the offset Δ the sample rows
		// show: Δ = mean(sample→non-sample) − mean(sample→sample).
		mss := float64(t.aS2S[b]) / float64(ka*(ka-1))
		msn := float64(t.aS2N[b]) / float64(ka*m)
		mu := float64(t.sumAssigned[o])/float64(ka) + (msn - mss)
		if mu < 1 {
			mu = 1 // distinct nodes are at distance ≥ 1
		}
		return float64(t.sumAssigned[o]) + mu*float64(m-1)
	}
	// Fallback (no usable calibration): average-based extrapolation over
	// the uniform samples.
	var avg float64
	if nr := cnt.drawn[b]; nr > 0 {
		avg = float64(t.sumRand[o]) / float64(nr)
	} else if ns > 0 {
		avg = float64(t.sumRand[o]+t.sumCut[o]) / float64(ns)
	}
	return float64(t.sumAssigned[o]) + avg*float64(max(m-1, 0))
}

// landmarkEstimates gives the in-block landmark midpoint estimate (see
// landmarkSums) to every unsampled node of a block whose assigned
// population is covered by a single sample: averages cannot be calibrated
// from one row. set[o] marks the nodes it covers; both are nil when no
// block qualifies.
func (c *cumulative) landmarkEstimates(t *tally) (val []float64, set []bool) {
	for b, assigned := range c.assigned {
		if c.planned.assigned[b] != 1 || len(assigned) <= 2 {
			continue
		}
		var ids []graph.NodeID
		var ds []int64
		for _, o := range assigned {
			if !c.isSample[o] {
				ids = append(ids, o)
				ds = append(ds, t.sumAssigned[o])
			}
		}
		if len(ids) < 2 {
			continue
		}
		lm := landmarkSums(ds)
		if val == nil {
			val, set = make([]float64, c.n), make([]bool, c.n)
		}
		for i, o := range ids {
			val[o] = float64(ds[i]) + lm[i]
			set[o] = true
		}
	}
	return val, set
}

// partial assembles the partial result of the sweeps landed so far, with
// proven bounds; nil while the run offers none: before any source
// completed, or, on a plan with cut vertices, before every cut row landed
// (the cross-block terms are all-or-nothing over the cut rows). It is both
// the snapshot a running anytime run offers and the result a canceled one
// returns.
//
// On a one-block plan every completed row is a whole-graph row, so the
// bounds are those of partialBounds over the completed rows' sums, with the
// first completed sources in draw order as landmarks. On a plan with cut
// vertices the sums are block-local, so no completed-row sharpening
// applies: the bounds are pure landmark bounds from up to maxLandmarks cut
// vertices (central by construction). Every estimate is clamped into its
// bounds.
func (c *cumulative) partial() *Result {
	n := c.n
	c.any.mu.Lock()
	k := int(c.any.completed.Load())
	if k == 0 || c.cutRowsDone() < c.cutPairs {
		c.any.mu.Unlock()
		return nil
	}
	t := c.collect()
	res := c.assemble(t, true)
	var lms []graph.NodeID
	if c.cutPairs == 0 {
		for i, j := range c.sources[0] {
			if c.rowDone[0][i] {
				lms = append(lms, c.red.ToOld[c.d.BlockNodes[0][j]])
			}
		}
	} else {
		for _, v := range c.tree.Cuts {
			lms = append(lms, c.red.ToOld[v])
		}
	}
	c.any.mu.Unlock()

	acc, done := make([]int64, n), make([]bool, n)
	if c.cutPairs == 0 {
		acc, done = t.sumRand, res.Exact
	}
	low, high := partialBounds(acc, done, landmarkRows(c.red.Orig, lms, c.workers))
	for o := 0; o < n; o++ {
		if res.Exact[o] {
			low[o], high[o] = res.Farness[o], res.Farness[o]
			continue
		}
		res.Farness[o] = min(max(res.Farness[o], low[o]), high[o])
	}
	res.Partial = true
	res.Completed, res.Planned = k, c.totalSamples
	res.Low, res.High = low, high
	res.Stats.Samples, res.Stats.FallbackAssignments = k, c.fallbacks
	return res
}

// largestBlock returns the id of the block with the most nodes; rooting the
// BCT there keeps the tree shallow on skewed decompositions.
func largestBlock(d *bicc.Decomposition) int32 {
	best, bestN := int32(0), -1
	for b, nodes := range d.BlockNodes {
		if len(nodes) > bestN {
			best, bestN = int32(b), len(nodes)
		}
	}
	return best
}

// buildBlockGraph materialises one block as a standalone weighted graph in
// local coordinates (index into the block's sorted node list).
func buildBlockGraph(d *bicc.Decomposition, b int32) *graph.WGraph {
	members := d.BlockNodes[b]
	wb := graph.NewWBuilder(len(members))
	for _, e := range d.BlockEdges[b] {
		_ = wb.AddEdge(localIndex(members, e.U), localIndex(members, e.V), e.W)
	}
	return wb.Build()
}

// localIndex finds v in the sorted member list.
func localIndex(members []graph.NodeID, v graph.NodeID) graph.NodeID {
	return graph.NodeID(sort.Search(len(members), func(i int) bool { return members[i] >= v }))
}

// intersectBlocks filters a (small) candidate block list by membership in
// another.
func intersectBlocks(cand, other []int32) []int32 {
	out := cand[:0]
	for _, c := range cand {
		for _, o := range other {
			if c == o {
				out = append(out, c)
				break
			}
		}
	}
	return out
}
