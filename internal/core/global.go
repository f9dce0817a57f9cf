package core

import (
	"context"
	"math"
	"math/rand"
	"time"

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
// plan. Rows
// accumulate into per-worker sums, added up once the traversals have joined
// (or, for a snapshot, under the anytime write lock): no atomic per visited
// node, and integer sums do not depend on the order. A reduced-graph row is
// summed over the kept nodes only; the source's anchor row feeds its
// worker's reduce.RowSums, from which fold gives the removed nodes their
// sums. exactFar is shared, since every source writes only its own cell.
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
	sums     []workerSums
	exactFar []int64
}

func newGlobalRun(gp *globalPlan, opts *Options, samplesReduced, extraOrig []graph.NodeID, any *anyState) *globalRun {
	red := gp.red
	n, nR := red.Orig.NumNodes(), red.G.NumNodes()
	g := &globalRun{
		red: red, unit: gp.unit, opts: opts, any: any,
		n: n, nR: nR, workers: par.Workers(opts.Workers),
		samplesReduced: samplesReduced, extraOrig: extraOrig,
		an:       gp.an,
		exactFar: make([]int64, n),
	}
	if len(extraOrig) > 0 {
		// The augmentation sources need columns of their own; the event
		// columns come first and are the plan's.
		g.an = globalAnchors(red, extraOrig)
	}
	for _, sR := range samplesReduced {
		g.samples = append(g.samples, red.ToOld[sR])
	}
	g.samples = append(g.samples, extraOrig...)
	g.sums = make([]workerSums, g.workers)
	return g
}

// gather traverses the reduced graph from every reduced-graph source and
// the original graph from every augmentation source, accumulating each row.
func (g *globalRun) gather(ctx context.Context) error {
	red := g.red
	err := traverse(ctx, []unit{{g.unit, g.samplesReduced}}, g.workers, nil,
		func(worker, _ int, srcR graph.NodeID, dist []int32) {
			g.reducedRow(&g.sums[worker], srcR, dist)
		})
	if err != nil {
		return err
	}
	return plainRows(ctx, red.Orig, g.extraOrig, g.workers, func(worker, i int, dist []int32) {
		g.augRow(&g.sums[worker], dist, g.extraOrig[i])
	})
}

// reducedRow consumes one reduced-graph source's row over the kept nodes.
func (g *globalRun) reducedRow(ws *workerSums, srcR graph.NodeID, dist []int32) {
	if g.any != nil {
		g.any.mu.RLock()
	}
	an, srcOrig := g.an, g.red.ToOld[srcR]
	if ws.rows == nil {
		ws.rows, ws.cols = an.NewRowSums(), make([]int32, an.Width())
	}
	cols := ws.cols
	an.Fill(dist, cols)
	own := an.Account(cols, srcOrig, 1, ws.rows)
	acc := lazy(&ws.acc, g.nR)[:len(dist)]
	for v, d := range dist {
		own += int64(d)
		acc[v] += int64(d)
	}
	if g.opts.ComputeStdErr {
		sq := lazy(&ws.sumSq, g.nR)[:len(dist)]
		for v, d := range dist {
			sq[v] += int64(d) * int64(d)
		}
	}
	var toSamples int64
	for _, s := range g.samplesReduced {
		toSamples += int64(dist[s])
	}
	for _, x := range g.extraOrig {
		toSamples += int64(cols[an.Col(x)])
	}
	g.bank(ws, srcOrig, own, toSamples)
}

// augRow consumes an augmentation source's row, which already covers the
// original graph.
func (g *globalRun) augRow(ws *workerSums, row []int32, srcOrig graph.NodeID) {
	if g.any != nil {
		g.any.mu.RLock()
	}
	var own, toSamples int64
	acc := lazy(&ws.accOrig, g.n)[:len(row)]
	for v, d := range row {
		own += int64(d)
		acc[v] += int64(d)
	}
	if g.opts.ComputeStdErr {
		sq := lazy(&ws.sumSqOrig, g.n)[:len(row)]
		for v, d := range row {
			sq[v] += int64(d) * int64(d)
		}
	}
	for _, s := range g.samples {
		toSamples += int64(row[s])
	}
	g.bank(ws, srcOrig, own, toSamples)
}

// bank records a source's own farness and calibration sums and, for an
// anytime run, marks it done and counts it, releases the read lock and
// reports progress.
func (g *globalRun) bank(ws *workerSums, srcOrig graph.NodeID, own, toSamples int64) {
	g.exactFar[srcOrig] = own
	ws.s2s += toSamples
	ws.s2n += own - toSamples
	if g.any != nil {
		g.any.doneSrc[srcOrig] = true
		c := g.any.complete()
		g.any.mu.RUnlock()
		g.any.advance(c)
	}
}

// fold adds up the per-worker sums over original ids (sumSq is nil without
// ComputeStdErr): the kept nodes' sums, then the removed nodes' sums from
// the workers' row sums, then the augmentation rows, which already cover
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
// reduced-graph rows the worker consumed, by reduced id, and over its
// augmentation rows, by original id, plus its sample-to-sample and
// sample-to-non-sample calibration sums.
type workerSums struct {
	acc, sumSq         []int64
	accOrig, sumSqOrig []int64
	rows               *reduce.RowSums // the reduced-graph rows, for the removed nodes
	s2s, s2n           int64
	cols               []int32 // the current source's anchor row
}
