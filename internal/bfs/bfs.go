// Package bfs provides the traversal kernels of the system. Sampled sources
// and top-k candidates are traversed up to 64 at a time in bit-parallel
// sweeps: the level-synchronous sweep on unweighted graphs and the
// lane-masked Dial on the integer-weighted graphs produced by chain
// contraction (MultiSourceW). Plain per-source BFS and Dial serve the exact
// oracles and reference checks, and a bidirectional BFS answers
// point-to-point queries. All kernels write into caller-provided buffers so
// that parallel drivers can reuse scratch per worker.
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

// Scratch bundles the per-worker reusable state for weighted traversals.
type Scratch struct {
	Dist []int32
	Q    *queue.FIFO
	B    *queue.Bucket
}

// NewScratch allocates traversal scratch for an n-node graph whose edge
// weights do not exceed maxWeight.
func NewScratch(n int, maxWeight int32) *Scratch {
	return &Scratch{
		Dist: make([]int32, n),
		Q:    queue.NewFIFO(n),
		B:    queue.NewBucket(maxWeight),
	}
}

// WDistances runs Dial's algorithm from src over the weighted graph g,
// filling dist with shortest-path lengths. For all-weights-one graphs it is
// equivalent to BFS (and BFS should be preferred; see WDistancesAuto).
// dist must have length g.NumNodes(); b must have been created with at least
// the graph's maximum edge weight.
func WDistances(g *graph.WGraph, src graph.NodeID, dist []int32, b *queue.Bucket) {
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
		nbrs := g.Neighbors(u)
		ws := g.Weights(u)
		for i, v := range nbrs {
			nd := du + ws[i]
			if dist[v] == Unreached || nd < dist[v] {
				dist[v] = nd
				b.Push(v, nd)
			}
		}
	}
}

// WDistancesBFS runs plain BFS over a weighted graph whose weights are all
// 1; callers guarantee the precondition (see graph.WGraph.Unweighted).
func WDistancesBFS(g *graph.WGraph, src graph.NodeID, dist []int32, q *queue.FIFO) {
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

// WDistancesAuto dispatches to BFS when the graph is unweighted (detected
// once by the caller and passed in) and Dial otherwise.
func WDistancesAuto(g *graph.WGraph, unweighted bool, src graph.NodeID, s *Scratch) {
	if unweighted {
		WDistancesBFS(g, src, s.Dist, s.Q)
	} else {
		WDistances(g, src, s.Dist, s.B)
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
