package bfs

import (
	"context"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
)

// BatchHandler consumes one completed multi-source batch. base is the index
// of batch[0] in the driver's source list, batch the ≤64 sources of this
// sweep, and rows[lane][v] the distance from batch[lane] to v (Unreached
// where unreachable). Handlers run concurrently from up to `workers`
// goroutines — one invocation per batch, identified by a stable worker
// index for callers that keep their own per-worker state. rows alias the
// worker's scratch and are only valid for the duration of the call.
type BatchHandler func(worker, base int, batch []graph.NodeID, rows [][]int32)

// numBatches returns how many ≤64-wide batches k sources split into.
func numBatches(k int) int { return (k + MSBFSWidth - 1) / MSBFSWidth }

// RunBatches traverses the unweighted graph g from every source using
// bit-parallel 64-wide multi-source sweeps fanned out across a worker
// pool. Per-worker scratch (lane-mask arrays, frontier buffers and the
// distance slab) is allocated once and reused across batches. This is the
// batched engine of the estimators' traversal policy.
func RunBatches(g *graph.Graph, sources []graph.NodeID, workers int, handle BatchHandler) {
	_ = RunBatchesCtx(context.Background(), g, sources, workers, handle)
}

// maskRowFill returns a mask-level visitor that scatters distances into the
// per-lane rows, with a fast path for the fully merged mask (all k lanes
// arriving together) that walks the rows directly instead of decoding bits.
func maskRowFill(rows [][]int32, k int) func(v graph.NodeID, mask uint64, d int32) {
	full := fullMask(k)
	return func(v graph.NodeID, mask uint64, d int32) {
		if mask == full {
			for lane := 0; lane < k; lane++ {
				rows[lane][v] = d
			}
			return
		}
		for m := mask; m != 0; m &= m - 1 {
			rows[bits.TrailingZeros64(m)][v] = d
		}
	}
}

// fullMask is the bitmask with the low k lanes set.
func fullMask(k int) uint64 {
	if k >= MSBFSWidth {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k) - 1
}

// RunBatchesCtx is RunBatches with cooperative cancellation. Batches go to
// workers with dynamic scheduling (batch costs vary with how much the lanes'
// frontiers overlap), each sweep running on the worker's own scratch.
// Cancellation lands at two granularities: workers stop claiming batches
// once ctx is done, and the running sweep bails at its next frontier level
// (the scratch carries ctx.Done()). On a non-nil (par.ErrCanceled-wrapping)
// return the handler may have seen only a subset of batches; callers
// discard their accumulation.
func RunBatchesCtx(ctx context.Context, g *graph.Graph, sources []graph.NodeID, workers int, handle BatchHandler) error {
	if len(sources) == 0 {
		return par.CtxErr(ctx)
	}
	if err := fault.Checkpoint(ctx, "bfs.batch"); err != nil {
		return err
	}
	n := g.NumNodes()
	nb := numBatches(len(sources))
	workers = min(par.Workers(workers), nb)
	done := ctx.Done()
	// Per-worker scratch: one multi-source scratch plus a 64-row distance
	// slab, reused for every batch the worker claims.
	ms := make([]*MSScratch, workers)
	slabs := make([][][]int32, workers)
	for i := range ms {
		ms[i] = NewMSScratch(n, 1)
		ms[i].SetDone(done)
		slab := make([]int32, MSBFSWidth*n)
		slabs[i] = make([][]int32, MSBFSWidth)
		for j := range slabs[i] {
			slabs[i][j] = slab[j*n : (j+1)*n : (j+1)*n]
		}
	}
	return par.ForDynamicCtx(ctx, nb, workers, 1, func(worker, bi int) {
		base := bi * MSBFSWidth
		batch := sources[base:min(base+MSBFSWidth, len(sources))]
		rows := slabs[worker][:len(batch)]
		for lane := range batch {
			Fill(rows[lane])
		}
		MultiSourceMasksInto(g, batch, ms[worker], maskRowFill(rows, len(batch)))
		if par.Interrupted(done) {
			return // rows are partial; don't hand them to the accumulator
		}
		handle(worker, base, batch, rows)
	})
}

// MaskHandler consumes the visit stream of a mask-granularity batch run:
// one call per (node, newly arrived lane set, distance) triple, identified
// by the worker that produced it and the batch's base index into the
// driver's source list. Handlers for different batches run concurrently;
// callers that accumulate should either use atomics for cross-batch cells
// or keep per-worker state (the worker index is stable).
type MaskHandler func(worker, base int, batch []graph.NodeID, v graph.NodeID, mask uint64, d int32)

// RunBatchesMaskCtx traverses the unweighted graph from every source with
// 64-wide multi-source sweeps like RunBatchesCtx, but streams mask-level
// visits to the handler instead of materialising per-lane distance rows —
// the right shape for pure accumulation (farness sums) where a merged-lane
// visit can be consumed as one d·popcount update instead of 64 row writes
// followed by 64 row scans. On a non-nil return the handler saw a partial
// visit stream and the caller must discard its accumulation.
func RunBatchesMaskCtx(ctx context.Context, g *graph.Graph, sources []graph.NodeID, workers int, handle MaskHandler) error {
	if len(sources) == 0 {
		return par.CtxErr(ctx)
	}
	nb := numBatches(len(sources))
	workers = par.Workers(workers)
	if workers > nb {
		workers = nb
	}
	done := ctx.Done()
	scratch := make([]*MSScratch, workers)
	for i := range scratch {
		scratch[i] = NewMSScratch(g.NumNodes(), 1)
		scratch[i].SetDone(done)
	}
	return par.ForDynamicCtx(ctx, nb, workers, 1, func(worker, bi int) {
		base := bi * MSBFSWidth
		hi := base + MSBFSWidth
		if hi > len(sources) {
			hi = len(sources)
		}
		batch := sources[base:hi]
		MultiSourceMasksInto(g, batch, scratch[worker], func(v graph.NodeID, mask uint64, d int32) {
			handle(worker, base, batch, v, mask, d)
		})
	})
}
