// Package bfs provides the traversal kernels of the system. Sampled sources
// and top-k candidates are traversed up to 64 at a time in bit-parallel
// sweeps: the level-synchronous sweep on unweighted graphs and the
// lane-masked Dial on the integer-weighted graphs produced by chain
// contraction, picked by graph.Graph.Weighted (MultiSourceW). Plain
// per-source BFS and Dial serve the exact oracles and reference checks, and
// a bidirectional BFS answers point-to-point queries. All kernels write into
// caller-provided buffers, so parallel drivers reuse scratch per worker.
package bfs

import (
	"repro/internal/graph"
	"repro/internal/queue"
)

// Unreached marks nodes not reached by a traversal.
const Unreached int32 = -1

// Fill sets every element of dist to Unreached. Kernels call it themselves;
// it is exported for callers that compose partial traversals.
func Fill(dist []int32) {
	for i := range dist {
		dist[i] = Unreached
	}
}

// Distances runs a BFS from src over g, filling dist with hop counts
// (Unreached for unreachable nodes). dist must have length g.NumNodes().
// The scratch queue may be nil, in which case one is allocated.
func Distances(g *graph.Graph, src graph.NodeID, dist []int32, q *queue.FIFO) {
	Fill(dist)
	if q == nil {
		q = queue.NewFIFO(g.NumNodes())
	} else {
		q.Reset()
	}
	dist[src] = 0
	q.Push(src)
	for !q.Empty() {
		u := q.Pop()
		du := dist[u]
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreached {
				dist[v] = du + 1
				q.Push(v)
			}
		}
	}
}

// WDistances runs Dial's algorithm from src over g, filling dist with
// shortest-path lengths; on an unweighted graph it computes what Distances
// does. dist must have length g.NumNodes(); b, when non-nil, must have been
// created with at least the graph's maximum edge weight.
func WDistances(g *graph.Graph, src graph.NodeID, dist []int32, b *queue.Bucket) {
	Fill(dist)
	if b == nil {
		b = queue.NewBucket(g.MaxWeight())
	} else {
		b.Reset()
	}
	dist[src] = 0
	b.Push(src, 0)
	for !b.Empty() {
		u, du := b.Pop()
		if dist[u] != du {
			continue // stale entry superseded by a shorter path
		}
		for i, v := range g.Neighbors(u) {
			nd := du + g.Weight(u, i)
			if dist[v] == Unreached || nd < dist[v] {
				dist[v] = nd
				b.Push(v, nd)
			}
		}
	}
}

// Eccentricity returns the largest finite distance in dist, i.e. the
// eccentricity of the traversal's source within its component.
func Eccentricity(dist []int32) int32 {
	var ecc int32
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Sum returns the sum of all finite distances in dist — the farness of the
// source restricted to its component — and the count of reached nodes
// (including the source itself).
func Sum(dist []int32) (sum int64, reached int) {
	for _, d := range dist {
		if d != Unreached {
			sum += int64(d)
			reached++
		}
	}
	return sum, reached
}
