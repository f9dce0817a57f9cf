package core

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/bfs"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/reduce"
)

// estimateGlobal runs the reduction-based estimator without the
// biconnected decomposition (the paper's C+R and I+C+R configurations, and
// with no technique the random-sampling baseline): sample kept nodes of the
// reduced graph, traverse it as one unit (see traverse), and accumulate
// (see globalRun): each row over the kept nodes, the removed nodes once
// per run from the sources' anchor rows.
// Cancellation lands before the traversal fan-out ("core.traverse"), at
// every row boundary inside it, within the kernels themselves, and before
// aggregation ("core.aggregate"); on a non-nil error an anytime run
// returns the partial result of its completed sources, any other run
// discards its accumulators.
func estimateGlobal(ctx context.Context, gp *globalPlan, opts *Options) (*Result, error) {
	red := gp.red
	n := red.Orig.NumNodes()
	nR := red.G.NumNodes()
	res := &Result{
		Farness: make([]float64, n),
		Exact:   make([]bool, n),
	}
	k := samplesFor(nR, opts.fraction())
	rng := rand.New(rand.NewSource(opts.Seed))
	samplesReduced := sampleK(nR, k, rng)

	// Degenerate-reduction augmentation: when the graph reduces so hard
	// that fewer than minSamples sources remain (e.g. a star plus twins
	// collapses to one node), the extrapolation has nothing to calibrate
	// against. Add a few uniformly random *original* nodes as extra
	// sources; their traversals run on the original graph and feed the
	// same accumulators.
	const minSamples = 4
	var extraOrig []graph.NodeID
	if k < minSamples && n > k {
		keptSet := make(map[graph.NodeID]bool, k)
		for _, sR := range samplesReduced {
			keptSet[red.ToOld[sR]] = true
		}
		for _, cand := range sampleK(n, minSamples, rng) {
			if len(extraOrig)+k >= minSamples {
				break
			}
			if !keptSet[cand] {
				extraOrig = append(extraOrig, cand)
			}
		}
	}
	res.Stats.Samples = k + len(extraOrig)

	// Anytime bookkeeping: every completed row marks its source done under a
	// read lock, so snapshots (and the end-of-run partial assembly) only ever
	// observe whole-source accumulator states.
	var any *anyState
	if opts.Anytime || opts.Progress != nil {
		any = newAnyState(n, k+len(extraOrig), opts.Progress)
	}

	if err := fault.Checkpoint(ctx, "core.traverse"); err != nil {
		return nil, err
	}
	start := time.Now()
	run := newGlobalRun(gp, opts, samplesReduced, extraOrig, any)
	samples, kEff := run.samples, len(run.samples)
	// assemble builds the partial result of the sources completed so far,
	// nil when none has. The landmarks are the first completed sources in
	// draw order.
	assemble := func() *Result {
		any.mu.Lock()
		k := int(any.completed.Load()) // the done sources: both move under mu.RLock
		acc, _, _, _ := run.fold()
		exactFar := append([]int64(nil), run.exactFar...)
		done := append([]bool(nil), any.doneSrc...)
		any.mu.Unlock()
		var lms []graph.NodeID
		for _, s := range samples {
			if done[s] {
				lms = append(lms, s)
			}
		}
		return assemblePartial(n, int(any.planned), k, acc, exactFar, done, landmarkRows(red.Orig, lms, run.workers))
	}
	if opts.Anytime && opts.Progress != nil {
		// A snapshot gets the closed-form propagation Plan.Estimate gives
		// the run's own partial, so both answer alike at one completed count.
		snapshot := func() *Result {
			pr := assemble()
			if pr != nil {
				propagateExact(red, pr)
			}
			return pr
		}
		opts.Progress.assemble.Store(&snapshot)
	}
	// partialOr converts a canceled fan-out into the partial result when the
	// run is anytime and at least one source completed.
	partialOr := func(err error) (*Result, error) {
		if opts.Anytime && canceledErr(err) {
			if pr := assemble(); pr != nil {
				pr.Stats.Traverse = time.Since(start)
				return pr, nil
			}
		}
		return nil, err
	}

	if err := run.gather(ctx); err != nil {
		return partialOr(err)
	}
	acc, sumSq, s2s, s2n := run.fold()
	exactFar := run.exactFar
	res.Stats.Traverse = time.Since(start)

	if err := fault.Checkpoint(ctx, "core.aggregate"); err != nil {
		return partialOr(err)
	}
	aggStart := time.Now()
	for _, s := range samples {
		res.Exact[s] = true
	}
	k = kEff
	// EstimatorPaper: scale the sampled distance sum by (n−1)/k — the
	// literal reading of the paper's Algorithm 1 adaptation.
	//
	// EstimatorWeighted: additive offset calibration. Samples are kept
	// (well-connected) nodes, so an unsampled node's mean distance to the
	// non-sampled population (mostly reduced-away peripheral nodes)
	// exceeds its mean distance to the samples by roughly the same offset
	// Δ the sample rows exhibit: Δ = mean(sample→non-sample) −
	// mean(sample→sample). Estimate Σ_{w non-sample} d(x,w) as
	// (mean_s d(s,x) + Δ)·(m−1).
	paperScale := float64(n-1) / float64(k)
	m := int64(n - k) // non-sampled population
	useOffset := opts.Estimator == EstimatorWeighted && m > 0 && k > 1
	delta := 0.0
	if useOffset {
		mss := float64(s2s) / float64(k*(k-1))
		msn := float64(s2n) / float64(int64(k)*m)
		delta = msn - mss
	}
	// Single-sample degenerate case (tiny graphs reduced to almost
	// nothing): the offset has nothing to calibrate against, so fall back
	// to the landmark midpoint heuristic over the non-sampled population.
	var lm []float64
	var lmIdx []int
	if opts.Estimator == EstimatorWeighted && !useOffset && k == 1 && m > 1 {
		lmIdx = make([]int, 0, m)
		ds := make([]int64, 0, m)
		for v := 0; v < n; v++ {
			if !res.Exact[v] {
				lmIdx = append(lmIdx, v)
				ds = append(ds, acc[v])
			}
		}
		lm = landmarkSums(ds)
	}
	for v := 0; v < n; v++ {
		switch {
		case res.Exact[v]:
			res.Farness[v] = float64(exactFar[v])
		case useOffset:
			mu := float64(acc[v])/float64(k) + delta
			if mu < 1 {
				mu = 1 // distinct nodes are at distance ≥ 1
			}
			res.Farness[v] = float64(acc[v]) + mu*float64(m-1)
		default:
			res.Farness[v] = float64(acc[v]) * paperScale
		}
	}
	for i, v := range lmIdx {
		res.Farness[v] = float64(acc[v]) + lm[i]
	}
	if sumSq != nil {
		// StdErr of the extrapolated part: the estimate scales the mean
		// sampled distance μ̂ by the unsampled mass, so its standard
		// error is (m−1)·s/√k with s the sample standard deviation of
		// the node's distances.
		res.StdErr = make([]float64, n)
		if k > 1 && m > 1 {
			for v := 0; v < n; v++ {
				if res.Exact[v] {
					continue
				}
				mean := float64(acc[v]) / float64(k)
				variance := (float64(sumSq[v])/float64(k) - mean*mean) * float64(k) / float64(k-1)
				if variance < 0 {
					variance = 0
				}
				res.StdErr[v] = float64(m-1) * math.Sqrt(variance/float64(k))
			}
		}
	}
	res.Stats.Aggregate = time.Since(aggStart)
	return res, nil
}

// globalRun is the accumulation state of one global-estimator run on a
// plan. Sweeps accumulate into per-worker sums, added up once the
// traversals have joined (or, for a snapshot, under the anytime write
// lock): no atomic per visited node, and integer sums do not depend on the
// order. A reduced-graph sweep is summed over the kept nodes only; each
// source's anchor row feeds its worker's reduce.RowSums, from which fold
// gives the removed nodes their sums. exactFar is shared, since every source
// writes only its own cell.
type globalRun struct {
	red            *reduce.Reduction
	unit           *unitGraph
	opts           *Options
	any            *anyState
	n, nR, workers int
	// samplesReduced are the sources in reduced ids, extraOrig the
	// augmentation sources in original ids, and samples both in original
	// ids.
	samplesReduced, extraOrig, samples []graph.NodeID

	an       *reduce.Anchors // the plan's, or this run's when it has augmentation sources
	colAt    []int32         // per reduced node: its anchor column, or -1
	isSample [2][]bool       // per node of the reduced and the augmentation unit
	sums     []workerSums
	exactFar []int64
}

// The units of a global run: the reduced graph, and the original graph the
// augmentation sources traverse.
const (
	reducedUnit = iota
	augUnit
)

func newGlobalRun(gp *globalPlan, opts *Options, samplesReduced, extraOrig []graph.NodeID, any *anyState) *globalRun {
	red := gp.red
	n, nR := red.Orig.NumNodes(), red.G.NumNodes()
	g := &globalRun{
		red: red, unit: gp.unit, opts: opts, any: any,
		n: n, nR: nR, workers: par.Workers(opts.Workers),
		samplesReduced: samplesReduced, extraOrig: extraOrig,
		an: gp.an, colAt: gp.colAt,
		isSample: [2][]bool{make([]bool, nR)},
		exactFar: make([]int64, n),
	}
	if len(extraOrig) > 0 {
		// The augmentation sources need columns of their own; the event
		// columns come first and are the plan's.
		g.an = globalAnchors(red, extraOrig)
		g.colAt = g.an.KeptColumns(nR)
	}
	for _, sR := range samplesReduced {
		g.samples = append(g.samples, red.ToOld[sR])
		g.isSample[reducedUnit][sR] = true
	}
	g.samples = append(g.samples, extraOrig...)
	if len(extraOrig) > 0 {
		g.isSample[augUnit] = make([]bool, n)
		for _, o := range g.samples {
			g.isSample[augUnit][o] = true
		}
	}
	g.sums = make([]workerSums, g.workers)
	return g
}

// gather traverses the reduced graph from every reduced-graph source and
// the original graph from every augmentation source, accumulating every
// sweep.
func (g *globalRun) gather(ctx context.Context) error {
	units := []unit{{g.unit, g.samplesReduced}}
	if len(g.extraOrig) > 0 {
		units = append(units, unit{newUnitGraph(g.red.Orig.ToWeighted()), g.extraOrig})
	}
	return traverse(ctx, units, g.workers, nil, func(w int) laneSink {
		s := &globalSink{g: g, ws: &g.sums[w]}
		return laneSink{s.start, s.visit, s.finish}
	})
}

// globalSink accumulates one worker's sweeps. Per visit it adds d·|mask| to
// the node's sum (d²·|mask| to its square sum) and d to each lane's own
// total and, at a sample, to its to-samples total, and captures d at the
// anchor columns of every lane; finish completes each lane's anchor row,
// adds the closed forms over the removed nodes and banks the sources. An
// anytime run stages the node sums of a sweep apart and folds them in at
// finish under the read lock, so a snapshot or an interrupted run sees
// whole sweeps only.
type globalSink struct {
	g  *globalRun
	ws *workerSums

	u                 int
	srcs              []graph.NodeID
	acc, sq           []int64 // where the sweep's node sums go
	stageAcc, stageSq []int64
	isSample          []bool
	colAt             []int32 // nil on the augmentation unit
	own, toS          bfs.LaneAcc
	cols              []int32 // the lanes' anchor rows, one after another
	counts            [bfs.MSBFSWidth]int64
}

func (s *globalSink) start(u int, srcs []graph.NodeID) {
	g, ws := s.g, s.ws
	s.u, s.srcs = u, srcs
	s.own.Reset(len(srcs))
	s.toS.Reset(len(srcs))
	s.isSample = g.isSample[u]
	size, acc, sq := g.nR, &ws.acc, &ws.sumSq
	s.colAt = nil
	if u == augUnit {
		size, acc, sq = g.n, &ws.accOrig, &ws.sumSqOrig
	} else {
		s.colAt = g.colAt
		s.cols = laneRows(s.cols, len(srcs), g.an.Width())
	}
	if g.any != nil {
		acc, sq = &s.stageAcc, &s.stageSq
		size = g.n
	}
	s.acc, s.sq = lazy(acc, size), nil
	if g.opts.ComputeStdErr {
		s.sq = lazy(sq, size)
	}
}

func (s *globalSink) visit(v graph.NodeID, mask uint64, d int32) {
	x := int64(d) * int64(bits.OnesCount64(mask))
	s.acc[v] += x
	if s.sq != nil {
		s.sq[v] += int64(d) * x
	}
	s.own.Add(mask, d)
	if s.isSample[v] {
		s.toS.Add(mask, d)
	}
	if s.colAt != nil {
		if c := int(s.colAt[v]); c >= 0 {
			w := s.g.an.Width()
			for m := mask; m != 0; m &= m - 1 {
				s.cols[bits.TrailingZeros64(m)*w+c] = d
			}
		}
	}
}

func (s *globalSink) finish() {
	g, ws, k := s.g, s.ws, len(s.srcs)
	var own, toS [bfs.MSBFSWidth]int64
	s.own.Sums(own[:k])
	s.toS.Sums(toS[:k])
	an, w := g.an, g.an.Width()
	if s.colAt != nil {
		for lane := range k {
			an.Fill(s.cols[lane*w : (lane+1)*w])
		}
	}
	if g.any != nil {
		g.any.mu.RLock()
		if s.u == augUnit {
			unstage(lazy(&ws.accOrig, g.n), s.acc)
			if s.sq != nil {
				unstage(lazy(&ws.sumSqOrig, g.n), s.sq)
			}
		} else {
			unstage(lazy(&ws.acc, g.nR), s.acc[:g.nR])
			if s.sq != nil {
				unstage(lazy(&ws.sumSq, g.nR), s.sq[:g.nR])
			}
		}
	}
	for lane, src := range s.srcs {
		if s.u == reducedUnit {
			cols := s.cols[lane*w : (lane+1)*w]
			if ws.rows == nil {
				ws.rows = an.NewRowSums()
			}
			src = g.red.ToOld[src]
			own[lane] += an.Account(cols, src, 1, ws.rows)
			for _, x := range g.extraOrig {
				toS[lane] += int64(cols[an.Col(x)])
			}
		}
		g.exactFar[src] = own[lane]
		ws.s2s += toS[lane]
		ws.s2n += own[lane] - toS[lane]
		if g.any != nil {
			g.any.doneSrc[src] = true
			s.counts[lane] = g.any.complete()
		}
	}
	if g.any != nil {
		g.any.mu.RUnlock()
		for _, c := range s.counts[:k] {
			g.any.advance(c)
		}
	}
}

// unstage adds a staged sweep's node sums to dst and clears the stage.
func unstage(dst, stage []int64) {
	for v, x := range stage {
		dst[v] += x
	}
	clear(stage)
}

// fold adds up the per-worker sums over original ids (sumSq is nil without
// ComputeStdErr): the kept nodes' sums, then the removed nodes' sums from
// the workers' row sums, then the augmentation sweeps, which already cover
// the removed nodes.
func (g *globalRun) fold() (acc, sumSq []int64, s2s, s2n int64) {
	toOld := g.red.ToOld
	acc = make([]int64, g.n)
	if g.opts.ComputeStdErr {
		sumSq = make([]int64, g.n)
	}
	rows := g.an.NewRowSums()
	for i := range g.sums {
		ws := &g.sums[i]
		for r, x := range ws.acc {
			acc[toOld[r]] += x
		}
		for r, x := range ws.sumSq {
			sumSq[toOld[r]] += x
		}
		if ws.rows != nil {
			rows.Add(ws.rows)
		}
		s2s += ws.s2s
		s2n += ws.s2n
	}
	g.an.AddSums(rows, acc, sumSq)
	for i := range g.sums {
		ws := &g.sums[i]
		for o, x := range ws.accOrig {
			acc[o] += x
		}
		for o, x := range ws.sumSqOrig {
			sumSq[o] += x
		}
	}
	return acc, sumSq, s2s, s2n
}

// globalAnchors is the anchor plan of the reduced graph as one unit over
// every removal event of red, with columns for the extra nodes.
func globalAnchors(red *reduce.Reduction, extra []graph.NodeID) *reduce.Anchors {
	evs := make([]int32, len(red.Events))
	for i := range evs {
		evs[i] = int32(i)
	}
	return reduce.NewAnchors(red, evs, func(o graph.NodeID) int32 { return int32(red.ToNew[o]) }, extra)
}

// workerSums is one traversal worker's share of the global estimator's
// accumulators: Σ d(s, ·) (and Σ d² under ComputeStdErr) over the
// reduced-graph sweeps the worker consumed, by reduced id, and over its
// augmentation sweeps, by original id, plus its sample-to-sample and
// sample-to-non-sample calibration sums.
type workerSums struct {
	acc, sumSq         []int64
	accOrig, sumSqOrig []int64
	rows               *reduce.RowSums // the reduced-graph rows, for the removed nodes
	s2s, s2n           int64
}
