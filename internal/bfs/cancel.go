package bfs

import (
	"context"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
)

// This file holds the context-aware entry points of the per-source kernels.
// Each wraps the corresponding done-channel kernel: the traversal polls
// ctx.Done() every interruptEvery queue pops and bails early once it fires.
// A non-nil return wraps par.ErrCanceled and means dist holds a partial
// traversal that must be discarded; a nil return guarantees output
// bit-identical to the non-ctx variant (the poll never changes visit order).

// DistancesCtx is Distances with cooperative cancellation.
func DistancesCtx(ctx context.Context, g *graph.Graph, src graph.NodeID, dist []int32, q *queue.FIFO) error {
	distancesDone(g, src, dist, q, ctx.Done())
	return par.CtxErr(ctx)
}

// WDistancesCtx is WDistances with cooperative cancellation.
func WDistancesCtx(ctx context.Context, g *graph.WGraph, src graph.NodeID, dist []int32, b *queue.Bucket) error {
	wDistancesDone(g, src, dist, b, ctx.Done())
	return par.CtxErr(ctx)
}
