// Package topk finds the k most central nodes (lowest farness / highest
// closeness) — the ranking problem of Okamoto, Chen and Li that the paper's
// related-work section cites — using the estimate-then-verify strategy:
// a cheap BRICS estimate orders candidates, then exact traversals confirm
// them best-first until the k-th confirmed value provably (under the
// margin assumption) beats everything unverified.
//
// Nodes whose estimate is flagged exact (sampled nodes, propagated twins
// and chain interiors) need no verification traversal at all, which on
// heavily reducible graphs eliminates most of the work.
package topk

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sketch"
)

// Options configures the search.
type Options struct {
	// Estimate configures the underlying BRICS estimation run. With
	// Candidates set no run is made, but Estimate.Workers still sizes the
	// sketch filter and Estimate.Anytime still selects degradation on a
	// canceled verification.
	Estimate core.Options
	// Candidates, when non-nil, is the estimate of g that orders the
	// candidates in place of a run of its own: a caller holding an estimate
	// with the same options (a server's cached result) passes it here and
	// skips the whole estimation. It must cover every node of g. A Partial
	// estimate makes the result Partial, as a partial run of its own would.
	// The search never modifies it.
	Candidates *core.Result
	// Margin is the assumed maximum relative underestimation of the
	// estimator: verification stops once kthBest ≤ nextEstimate/(1+Margin).
	// The result is provably exact if every estimate e(v) satisfies
	// true(v) ≥ e(v)/(1+Margin). Default 0.15.
	Margin float64
	// MaxVerify caps exact traversals (0 = no cap). When the cap fires
	// the result is best-effort and Result.Certain is false.
	MaxVerify int
	// Sketch, when non-nil, enables the cluster-sketch candidate filter: the
	// sketch's proven per-node farness lower bounds (see
	// sketch.FarnessLowerBounds) let the search skip the verification BFS of
	// any candidate that provably cannot enter the top k — once k exact
	// values are known, a candidate whose lower bound meets the k-th best
	// farness is discarded unverified. The filter never changes the returned
	// top-k set (the bound is proven, and ties cannot displace an
	// equal-farness incumbent); with MaxVerify set it can only stretch the
	// budget further. Result.Filtered counts the traversals saved.
	Sketch *sketch.Sketch
}

// Result of a top-k search.
type Result struct {
	// Nodes holds the k most central nodes in increasing farness order.
	Nodes []graph.NodeID
	// Farness holds their exact farness values.
	Farness []float64
	// Verified counts the exact traversals spent.
	Verified int
	// Filtered counts candidates whose verification traversal the sketch
	// filter proved unnecessary (0 unless Options.Sketch was set).
	Filtered int
	// Certain reports whether the stopping rule concluded (true) or the
	// MaxVerify cap fired (false).
	Certain bool
	// Partial marks an anytime search (Options.Estimate.Anytime) that was
	// cut short by its context: Farness may mix exact values with estimates
	// from a partial estimation run, and Certain is always false. A Partial
	// result must never be cached or served as exact.
	Partial bool
	// EstimateStats carries the underlying estimation run's statistics.
	EstimateStats core.RunStats
}

// Closeness returns the k nodes with the smallest farness.
func Closeness(g *graph.Graph, k int, opts Options) (*Result, error) {
	return ClosenessContext(context.Background(), g, k, opts)
}

// ClosenessContext is Closeness with cooperative cancellation: the
// underlying estimation run (unless Options.Candidates supplies the
// estimate) checks ctx at its stage boundaries, and the
// verification phase checks it before (and inside) every exact traversal. A
// canceled run returns a core.ErrCanceled-wrapping error.
func ClosenessContext(ctx context.Context, g *graph.Graph, k int, opts Options) (*Result, error) {
	n := g.NumNodes()
	if k <= 0 {
		return nil, fmt.Errorf("topk: k = %d out of range", k)
	}
	if k > n {
		k = n
	}
	if opts.Margin <= 0 {
		opts.Margin = 0.15
	}
	est := opts.Candidates
	if est == nil {
		var err error
		if est, err = core.EstimateContext(ctx, g, opts.Estimate); err != nil {
			return nil, err
		}
	} else if len(est.Farness) != n || len(est.Exact) != n {
		return nil, fmt.Errorf("topk: candidate estimate covers %d nodes, graph has %d", len(est.Farness), n)
	}
	estPartial := est.Partial

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return est.Farness[order[i]] < est.Farness[order[j]] })

	type cand struct {
		v   graph.NodeID
		far float64
	}
	best := make([]cand, 0, k+1) // sorted ascending, capped at k
	insert := func(c cand) {
		pos := sort.Search(len(best), func(i int) bool { return best[i].far > c.far })
		best = append(best, cand{})
		copy(best[pos+1:], best[pos:])
		best[pos] = c
		if len(best) > k {
			best = best[:k]
		}
	}
	res := &Result{Certain: true, EstimateStats: est.Stats}
	// Verification consumes candidates one at a time (the stopping rule is
	// inherently sequential), but the traversals themselves need not be: the
	// next group of unverified candidates is prefetched speculatively
	// through one ≤64-lane bit-parallel sweep — candidates adjacent in
	// estimate order tend to be central and near each other, so their lane
	// frontiers merge quickly and the group costs little more than one BFS.
	// The group size starts small (the stopping rule often fires within a
	// few candidates) and doubles as verification keeps going. Every lane
	// computed counts against MaxVerify — groups are clipped to the remaining
	// budget, never exceeding it — and the per-lane sums (a bfs.LaneAcc, in
	// lane space) are bit-identical to bfs.Sum over a per-source row. A
	// group may be a single candidate: a one-lane sweep is still a sweep.
	workers := par.Workers(opts.Estimate.Workers)
	exactCache := make([]float64, n)
	haveExact := make([]bool, n)
	// Sketch filter: proven farness lower bounds let the loop below discard
	// candidates that cannot enter the top k without spending a BFS on them.
	// skippable(v) is true only when the skip is provably result-neutral:
	// k exact values are already held and far(v) ≥ lbFar[v] ≥ kth best, so
	// inserting v's exact value would change nothing (an equal-farness
	// candidate sorts after the incumbent and is truncated away).
	var lbFar []int64
	if opts.Sketch != nil {
		lbFar = opts.Sketch.FarnessLowerBounds(workers)
	}
	skippable := func(v graph.NodeID) bool {
		return lbFar != nil && len(best) == k && float64(lbFar[v]) >= best[k-1].far &&
			!est.Exact[v] && !haveExact[v]
	}
	var ms *bfs.MSScratch
	var lanes bfs.LaneAcc
	groupSize := 8
	done := ctx.Done()
	// prefetch verifies the next group of candidates from startIdx on, the
	// one at startIdx among them; every sweep passes the "topk.verify" fault
	// point once.
	prefetch := func(startIdx int) error {
		size := groupSize
		if opts.MaxVerify > 0 {
			size = min(size, opts.MaxVerify-res.Verified)
		}
		batch := make([]graph.NodeID, 0, size)
		for _, vi := range order[startIdx:] {
			v := graph.NodeID(vi)
			if est.Exact[v] || haveExact[v] || skippable(v) {
				continue // skippable lanes would be filtered before their
				// cached sum is ever read — don't waste prefetch width
			}
			batch = append(batch, v)
			if len(batch) == size {
				break
			}
		}
		if err := fault.Checkpoint(ctx, "topk.verify"); err != nil {
			return err
		}
		if ms == nil {
			ms = bfs.NewMSScratch(n)
			ms.SetDone(done)
		}
		var farBySlot [bfs.MSBFSWidth]int64
		bfs.SweepSums(g, batch, ms, &lanes, farBySlot[:])
		if par.Interrupted(done) {
			return par.CtxErr(ctx) // partial sums; discard them
		}
		for lane, v := range batch {
			exactCache[v] = float64(farBySlot[lane])
			haveExact[v] = true
			res.Verified++
		}
		if groupSize < bfs.MSBFSWidth {
			groupSize *= 2
		}
		return nil
	}
	exactOf := func(idx int, v graph.NodeID) (float64, error) {
		if est.Exact[v] {
			return est.Farness[v], nil
		}
		if !haveExact[v] {
			if err := prefetch(idx); err != nil {
				return 0, err
			}
		}
		return exactCache[v], nil
	}

	for idx, vi := range order {
		v := graph.NodeID(vi)
		if len(best) == k {
			// Stopping rule: everything unverified has estimate ≥ this
			// one (sorted); under the margin assumption its true value is
			// ≥ estimate/(1+margin).
			bound := est.Farness[v] / (1 + opts.Margin)
			if best[k-1].far <= bound {
				break
			}
		}
		if skippable(v) {
			res.Filtered++
			continue
		}
		if opts.MaxVerify > 0 && res.Verified >= opts.MaxVerify && !est.Exact[v] && !haveExact[v] {
			// Budget exhausted; remaining candidates stay unverified.
			res.Certain = false
			// Fill any remaining slots with estimates of the best
			// unverified candidates so callers still get k entries.
			for _, rest := range order[idx:] {
				if len(best) == k {
					break
				}
				insert(cand{graph.NodeID(rest), est.Farness[rest]})
			}
			break
		}
		far, err := exactOf(idx, v)
		if err != nil {
			// Anytime degradation: a canceled verification keeps the
			// best-so-far ranking, filling any remaining slots from the
			// estimate order — exactly like the MaxVerify budget path, but
			// flagged Partial so no caller mistakes it for an exact ranking.
			if opts.Estimate.Anytime && errors.Is(err, core.ErrCanceled) {
				res.Partial, res.Certain = true, false
				for _, rest := range order[idx:] {
					if len(best) == k {
						break
					}
					insert(cand{graph.NodeID(rest), est.Farness[rest]})
				}
				break
			}
			return nil, err
		}
		insert(cand{v, far})
	}
	if estPartial {
		// The ranking was ordered by a partial estimate; even a completed
		// verification sweep inherits that uncertainty in which candidates
		// were considered.
		res.Partial, res.Certain = true, false
	}

	for _, c := range best {
		res.Nodes = append(res.Nodes, c.v)
		res.Farness = append(res.Farness, c.far)
	}
	return res, nil
}

// Exact computes the exact top-k by brute force (one traversal per node);
// the oracle tests compare against.
func Exact(g *graph.Graph, k int, workers int) *Result {
	far := core.ExactFarness(g, workers)
	n := len(far)
	if k > n {
		k = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return far[order[i]] < far[order[j]] })
	res := &Result{Certain: true, Verified: n}
	for _, v := range order[:k] {
		res.Nodes = append(res.Nodes, graph.NodeID(v))
		res.Farness = append(res.Farness, far[v])
	}
	return res
}
