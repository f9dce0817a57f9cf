package core

import (
	"context"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/par"
)

// sampleK draws k distinct values from [0, n) uniformly at random using a
// partial Fisher–Yates shuffle. k is clamped to [1, n].
func sampleK(n, k int, rng *rand.Rand) []graph.NodeID {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids[:k]
}

// samplesFor converts a fraction into a source count.
func samplesFor(n int, fraction float64) int {
	k := int(fraction*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// RandomSampling is the paper's Algorithm 1: choose k = fraction·n nodes
// uniformly at random, traverse from each, report exact farness for the
// sampled nodes and the (n−1)/k-scaled distance sum for the rest. The
// traversal engine follows the one traversal policy (see engineFor).
func RandomSampling(g *graph.Graph, fraction float64, workers int, seed int64) *Result {
	res, _ := randomSampling(context.Background(), g, fraction, workers, seed, false, nil)
	return res
}

// randomSampling is RandomSampling with cooperative cancellation: traversals
// stop at the next source (or frontier level) once ctx is done and the run
// returns a nil Result with an ErrCanceled-wrapping error. With anytime set
// it returns a Partial result built from the completed sources instead
// (exact farness for them, clamped extrapolations plus proven [Low, High]
// bounds for the rest), and publishes periodic snapshots into prog (which
// may be nil). A run whose context never fires produces the same farness
// either way.
func randomSampling(ctx context.Context, g *graph.Graph, fraction float64, workers int, seed int64, anytime bool, prog *Progress) (*Result, error) {
	n := g.NumNodes()
	res := &Result{
		Farness: make([]float64, n),
		Exact:   make([]bool, n),
	}
	if n <= 1 {
		for i := range res.Exact {
			res.Exact[i] = true
		}
		return res, nil
	}
	if fraction <= 0 {
		fraction = 0.3
	}
	if fraction > 1 {
		fraction = 1
	}
	k := samplesFor(n, fraction)
	rng := rand.New(rand.NewSource(seed))
	samples := sampleK(n, k, rng)
	res.Stats.Samples = k

	start := time.Now()
	workers = par.Workers(workers)
	acc := make([]int64, n)
	exactFar := make([]int64, n)
	done := ctx.Done()
	var any *anyState
	if anytime || prog != nil {
		any = newAnyState(n, k, prog)
	}
	// accumulateAny is the anytime row consumer shared by every engine path:
	// whole-row accumulation under the read lock keeps snapshots consistent.
	accumulateAny := func(src graph.NodeID, dist []int32) {
		any.mu.RLock()
		var own int64
		for w, d := range dist {
			own += int64(d)
			atomic.AddInt64(&acc[w], int64(d))
		}
		atomic.StoreInt64(&exactFar[src], own)
		any.markDone(src, dist)
		any.mu.RUnlock()
		any.advance()
	}
	if any != nil && anytime {
		any.assemble = func() *Result {
			any.mu.Lock()
			accC := append([]int64(nil), acc...)
			exC := append([]int64(nil), exactFar...)
			doneC := append([]bool(nil), any.doneSrc...)
			any.mu.Unlock()
			return assemblePartial(n, k, accC, exC, doneC, any.landmarkRows())
		}
	}
	partialOr := func(err error) (*Result, error) {
		if any != nil && anytime && canceledErr(err) {
			if pr := any.final(); pr != nil {
				pr.Stats.Traverse = time.Since(start)
				return pr, nil
			}
		}
		return nil, err
	}
	switch chooseEngine(k, workers, n) {
	case batched:
		sources := permuted(samples, clusterOrder(samples, func() []graph.NodeID {
			return graph.Order(g, graph.RelabelBFS, workers).Perm
		}))
		if any != nil {
			// Anytime batched path: the mask-granularity sweep below streams
			// visits mid-sweep, which would leave torn rows in the
			// accumulators on a cancellation. Consume whole rows instead —
			// the same integers reach acc, so a full run stays bit-identical
			// to the mask path; only the wall-clock differs.
			err := bfs.RunBatchesCtx(ctx, g, sources, workers, func(_, base int, batch []graph.NodeID, rows [][]int32) {
				for lane, src := range batch {
					if par.Interrupted(done) {
						return // canceled: bank no more rows; the fan-out returns the ctx error
					}
					accumulateAny(src, rows[lane])
				}
			})
			if err != nil {
				return partialOr(err)
			}
			break
		}
		// The mask-granularity sweep adds d·popcount once per (node,
		// arriving lane set) instead of once per lane. When clustering
		// merges the lane frontiers the common case is a single full-mask
		// visit per node — 64 accumulator updates for the price of one
		// atomic. farBySlot[base+lane] is only ever written by the goroutine
		// running that batch's sweep, so the per-source sums need no atomics;
		// only the shared acc cells do.
		farBySlot := make([]int64, k)
		err := bfs.RunBatchesMaskCtx(ctx, g, sources, workers, func(_, base int, batch []graph.NodeID, v graph.NodeID, mask uint64, d int32) {
			atomic.AddInt64(&acc[v], int64(d)*int64(bits.OnesCount64(mask)))
			bfs.AccumulateLanes(farBySlot[base:base+len(batch)], mask, int64(d))
		})
		if err != nil {
			return nil, err
		}
		for i, src := range sources {
			exactFar[src] = farBySlot[i]
		}
	case frontier:
		// Sources run one after another, each BFS fanning its levels out
		// across the workers. The row accumulation matches the per-source
		// path, so farness is bit-identical.
		fs := bfs.NewFrontierScratch()
		dist := make([]int32, n)
		for _, src := range samples {
			if err := bfs.FrontierDistancesCtx(ctx, g, src, dist, workers, fs); err != nil {
				return partialOr(err)
			}
			if any != nil {
				accumulateAny(src, dist)
				continue
			}
			var own int64
			for w, d := range dist {
				own += int64(d)
				acc[w] += int64(d)
			}
			exactFar[src] = own
		}
	default:
		type ws struct {
			dist []int32
			s    bfs.Scratch
		}
		scratch := make([]ws, workers)
		for i := range scratch {
			scratch[i].dist = make([]int32, n)
		}
		err := par.ForDynamicCtx(ctx, k, workers, 1, func(worker, i int) {
			s := &scratch[worker]
			src := samples[i]
			_ = bfs.HybridDistancesCtx(ctx, g, src, s.dist, &s.s)
			if par.Interrupted(done) {
				return // partial row; an anytime run keeps only whole rows
			}
			if any != nil {
				accumulateAny(src, s.dist)
				return
			}
			var own int64
			for w, d := range s.dist {
				own += int64(d)
				atomic.AddInt64(&acc[w], int64(d))
			}
			atomic.StoreInt64(&exactFar[src], own)
		})
		if err != nil {
			return partialOr(err)
		}
	}
	res.Stats.Traverse = time.Since(start)

	scale := float64(n-1) / float64(k)
	for _, s := range samples {
		res.Exact[s] = true
	}
	for v := 0; v < n; v++ {
		if res.Exact[v] {
			res.Farness[v] = float64(exactFar[v])
		} else {
			res.Farness[v] = float64(acc[v]) * scale
		}
	}
	return res, nil
}
