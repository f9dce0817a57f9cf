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
// reduced graph, traverse it as one unit (see traverse), extend distances
// over the removal log, and accumulate.
// Cancellation lands before the traversal fan-out ("core.traverse"), at
// every row boundary inside it, within the kernels themselves, and before
// aggregation ("core.aggregate"); on a non-nil error the partially filled
// accumulators are discarded with the rest of the run.
func estimateGlobal(ctx context.Context, red *reduce.Reduction, opts *Options) (*Result, error) {
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
	workers := par.Workers(opts.Workers)

	// Every source in original ids, reduced-graph samples and augmentation
	// alike.
	samples := make([]graph.NodeID, 0, k+len(extraOrig))
	for _, sR := range samplesReduced {
		samples = append(samples, red.ToOld[sR])
	}
	samples = append(samples, extraOrig...)
	kEff := len(samples)

	// Rows accumulate into per-worker sums, added up once the traversals
	// have joined (or, for a snapshot, under the anytime write lock): no
	// atomic per visited node, and integer sums do not depend on the order.
	// Each worker's arrays are allocated on its first row, so idle workers
	// cost nothing. exactFar is shared, since every source writes only its
	// own cell.
	sums := make([]workerSums, workers)
	exactFar := make([]int64, n) // exact farness of sampled nodes

	// accumulateRow consumes one source's whole distance row over original
	// ids.
	accumulateRow := func(worker int, row []int32, srcOrig graph.NodeID) {
		if any != nil {
			any.mu.RLock()
		}
		ws := &sums[worker]
		if ws.acc == nil {
			ws.acc = make([]int64, n)
			if opts.ComputeStdErr {
				ws.sumSq = make([]int64, n)
			}
		}
		var own, toSamples int64
		acc := ws.acc[:len(row)]
		for v, d := range row {
			own += int64(d)
			acc[v] += int64(d)
		}
		if sq := ws.sumSq; sq != nil {
			for v, d := range row {
				sq[v] += int64(d) * int64(d)
			}
		}
		for _, s := range samples {
			toSamples += int64(row[s])
		}
		exactFar[srcOrig] = own
		ws.s2s += toSamples
		ws.s2n += own - toSamples
		if any != nil {
			any.markDone(srcOrig, row)
			any.mu.RUnlock()
			any.advance()
		}
	}
	if any != nil && opts.Anytime {
		any.assemble = func() *Result {
			any.mu.Lock()
			accC, _, _, _ := addSums(sums, n, false)
			exC := append([]int64(nil), exactFar...)
			doneC := append([]bool(nil), any.doneSrc...)
			any.mu.Unlock()
			return assemblePartial(n, int(any.planned), accC, exC, doneC, any.landmarkRows())
		}
	}
	// partialOr converts a canceled fan-out into the partial result when the
	// run is anytime and at least one source completed.
	partialOr := func(err error) (*Result, error) {
		if any != nil && opts.Anytime && canceledErr(err) {
			if pr := any.final(); pr != nil {
				pr.Stats.Traverse = time.Since(start)
				return pr, nil
			}
		}
		return nil, err
	}

	// Reduced-graph rows are scattered to original ids and extended over
	// the removal log; augmentation rows already cover the original graph.
	// A reduction that removed nothing (random sampling) keeps the input's
	// ids, so its rows are accumulated as they are.
	var distOrig [][]int32
	if !keepsIDs(red) {
		distOrig = make([][]int32, workers)
		for i := range distOrig {
			distOrig[i] = make([]int32, n)
		}
	}
	err := traverse(ctx, []unit{{red.G, red.G.Unweighted(), samplesReduced}}, workers, nil,
		func(worker, _ int, srcR graph.NodeID, dist []int32) {
			row := dist
			if distOrig != nil {
				row = distOrig[worker]
				red.Scatter(dist, row)
				red.Extend(row)
			}
			accumulateRow(worker, row, red.ToOld[srcR])
		})
	if err == nil {
		err = plainRows(ctx, red.Orig, extraOrig, workers, func(worker, i int, dist []int32) {
			accumulateRow(worker, dist, extraOrig[i])
		})
	}
	if err != nil {
		return partialOr(err)
	}
	acc, sumSq, s2s, s2n := addSums(sums, n, opts.ComputeStdErr)
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

// keepsIDs reports whether red removed nothing and kept every node's id, so
// reduced-graph rows already are original-id rows.
func keepsIDs(red *reduce.Reduction) bool {
	if len(red.Events) > 0 || len(red.ToOld) != red.Orig.NumNodes() {
		return false
	}
	for i, o := range red.ToOld {
		if int(o) != i {
			return false
		}
	}
	return true
}

// workerSums is one traversal worker's share of the global estimator's
// accumulators: Σ d(s, ·) (and Σ d² under ComputeStdErr) over the rows the
// worker consumed, plus its sample-to-sample and sample-to-non-sample
// calibration sums.
type workerSums struct {
	acc, sumSq []int64
	s2s, s2n   int64
}

// addSums adds up the per-worker accumulators; sumSq is nil unless withSq.
func addSums(sums []workerSums, n int, withSq bool) (acc, sumSq []int64, s2s, s2n int64) {
	acc = make([]int64, n)
	if withSq {
		sumSq = make([]int64, n)
	}
	for _, ws := range sums {
		for v, a := range ws.acc {
			acc[v] += a
		}
		if withSq {
			for v, q := range ws.sumSq {
				sumSq[v] += q
			}
		}
		s2s += ws.s2s
		s2n += ws.s2n
	}
	return acc, sumSq, s2s, s2n
}
