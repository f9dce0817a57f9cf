package graph

import (
	"sort"

	"repro/internal/par"
)

// BFSOrder returns a Cuthill–McKee-style BFS numbering of g: pos[v] is v's
// position in the visit order. The sweep starts from the minimum-degree
// node (lowest id on ties), visits each popped node's unvisited neighbours
// in (degree ascending, id ascending) order, and seeds the next unvisited
// min-degree node when a component is exhausted. Consecutive positions are
// graph neighbours, which is what proximity-clustered source batching sorts
// by: graph-nearby sources land in the same position range, so consecutive
// ≤64-wide batches cover one neighbourhood each. Weights are ignored — hop
// proximity is what batching clusters by, and chain-contracted weights
// still connect hop-adjacent survivors.
//
// The degree keys are computed in parallel; the sweep is sequential because
// the visit order is the output, and a sequential sweep is what makes it
// deterministic at every worker count.
func BFSOrder(g *Graph, workers int) []NodeID {
	offsets, adj := g.offsets, g.adj
	n := len(offsets) - 1
	if n == 0 {
		return nil
	}
	deg := make([]int32, n)
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			deg[v] = int32(offsets[v+1] - offsets[v])
		}
	})
	byDegree := func(ids []NodeID) func(i, j int) bool {
		return func(i, j int) bool {
			if deg[ids[i]] != deg[ids[j]] {
				return deg[ids[i]] < deg[ids[j]]
			}
			return ids[i] < ids[j]
		}
	}

	roots := make([]NodeID, n)
	for i := range roots {
		roots[i] = NodeID(i)
	}
	sort.Slice(roots, byDegree(roots))

	pos := make([]NodeID, n)
	for i := range pos {
		pos[i] = -1
	}
	order := make([]NodeID, 0, n) // doubles as the BFS queue
	nbuf := make([]NodeID, 0, 64)
	rootIdx := 0
	for qi := 0; qi < n; qi++ {
		if qi == len(order) {
			for pos[roots[rootIdx]] >= 0 {
				rootIdx++
			}
			r := roots[rootIdx]
			pos[r] = NodeID(len(order))
			order = append(order, r)
		}
		v := order[qi]
		nbuf = nbuf[:0]
		for _, w := range adj[offsets[v]:offsets[v+1]] {
			if pos[w] < 0 {
				nbuf = append(nbuf, w)
			}
		}
		sort.Slice(nbuf, byDegree(nbuf))
		for _, w := range nbuf {
			pos[w] = NodeID(len(order))
			order = append(order, w)
		}
	}
	return pos
}

// Permute returns g renumbered so that node v becomes perm[v]. perm must be
// a permutation of 0..n-1; the result is isomorphic to g, so every distance
// is invariant under it. Tests use it to check that outputs do not depend
// on the input's vertex numbering.
func Permute(g *Graph, perm []NodeID) *Graph {
	edges := make([][2]NodeID, 0, g.NumEdges())
	g.Edges(func(u, v NodeID) { edges = append(edges, [2]NodeID{perm[u], perm[v]}) })
	return FromEdges(g.NumNodes(), edges)
}
