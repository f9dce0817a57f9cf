// Package redundant implements the "R" of BRICS: removal of redundant
// degree-3 and degree-4 nodes (Section III-C of the paper). A node v is
// redundant when no shortest path passes through it except as an endpoint;
// it can then be deleted from the traversal graph and its per-source
// distance recovered as d(s,v) = min over neighbours x of d(s,x) + w(x,v)
// (the paper's Algorithm 3, generalised to the weighted edges that chain
// contraction introduces).
//
// The paper's structural conditions — degree 3 with mutually adjacent
// neighbours (Fig. 1(e)), degree 4 with every neighbour adjacent to at
// least two other neighbours (Fig. 1(f)) — are exact only on unweighted
// graphs. This package checks the precise condition instead: for every
// neighbour pair (x, y), the shortest x→y path inside the subgraph induced
// by N(v) must be no longer than w(x,v)+w(v,y). On all-weight-1 graphs this
// coincides with the paper's conditions for the triangle case and subsumes
// the degree-4 case.
//
// Marked nodes form an independent set: once v is marked, its neighbours
// are skipped. This guarantees that every removed node has all of its
// neighbours present in the final reduced graph, which Algorithm 3's
// one-hop recovery step requires.
package redundant

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// Node records one removed redundant node together with the neighbour list
// that recovers its distances.
type Node struct {
	V       graph.NodeID
	Nbrs    []graph.NodeID
	Weights []int32
}

// Distance returns d(s, V) given a distance oracle over the kept graph:
// the minimum of d(s,x) + w(x,V) over neighbours x (Algorithm 3). dist
// values of bfs.Unreached (-1) are skipped; the result is -1 when no
// neighbour was reached.
func (r *Node) Distance(dist []int32) int32 {
	best := int32(-1)
	for i, x := range r.Nbrs {
		dx := dist[x]
		if dx < 0 {
			continue
		}
		d := dx + r.Weights[i]
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

// Result of redundant-node detection.
type Result struct {
	Nodes []Node
	// Marked[v] is true for removed nodes.
	Marked []bool
}

// MaxDegree bounds the degree of candidate nodes; the paper considers 3 and
// 4. Raising it trades preprocessing time for more removals.
const MaxDegree = 4

// Find detects an independent set of redundant nodes of degree 3..MaxDegree
// in g, weighted or not. Nodes listed in `protected` (e.g. nodes another
// stage already depends on) are never marked. Find is FindWorkers at one
// worker — every worker count yields the same Result.
func Find(g *graph.Graph, protected []bool) *Result { return FindWorkers(g, protected, 1) }

// FindWorkers splits detection into two phases: the expensive per-node
// local test (the neighbourhood Floyd–Warshall plus 2-connectivity check)
// is embarrassingly parallel and runs over all candidates at once, then a
// cheap sequential greedy sweep in ascending id order selects the
// independent set — the same set the one-pass sequential scan picks,
// because the local test never depends on the marks. Bit-identical output
// for every worker count.
func FindWorkers(g *graph.Graph, protected []bool, workers int) *Result {
	n := g.NumNodes()
	workers = par.Workers(workers)
	res := &Result{Marked: make([]bool, n)}
	cand := make([]bool, n)
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			id := graph.NodeID(v)
			deg := g.Degree(id)
			if deg < 3 || deg > MaxDegree {
				continue
			}
			if protected != nil && protected[v] {
				continue
			}
			cand[v] = isRedundant(g, id)
		}
	})
	for v := 0; v < n; v++ {
		if !cand[v] {
			continue
		}
		id := graph.NodeID(v)
		// Independence: skip if any neighbour is already marked.
		nbrs := g.Neighbors(id)
		skip := false
		for _, x := range nbrs {
			if res.Marked[x] {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		res.Marked[v] = true
		ws := make([]int32, len(nbrs))
		for i := range ws {
			ws[i] = g.Weight(id, i)
		}
		res.Nodes = append(res.Nodes, Node{V: id, Nbrs: append([]graph.NodeID(nil), nbrs...), Weights: ws})
	}
	return res
}

// isRedundant checks two conditions.
//
// Detour: for every pair of neighbours (x, y) of v there must be a path
// from x to y inside the subgraph induced by N(v) whose length is at most
// w(x,v)+w(v,y) — then no shortest path needs v. The neighbourhood has at
// most MaxDegree nodes, so a tiny Floyd–Warshall over it is cheapest.
//
// Biconnectivity: the neighbour-induced subgraph must itself be
// 2-vertex-connected. A 2-connected subgraph lies inside a single
// biconnected component of any supergraph, which is what lets the
// Cumulative estimator assign the removed node to one block (Fact III.6).
// Without this, a detour that runs through a third neighbour can leave the
// neighbours spread over several blocks once v is gone. On unweighted
// graphs this condition coincides with the paper's: a degree-3 node needs
// mutually adjacent neighbours (a triangle), and a degree-4 neighbourhood
// with every neighbour adjacent to ≥2 others has minimum degree 2 on 4
// vertices, which is always 2-connected.
func isRedundant(g *graph.Graph, v graph.NodeID) bool {
	nbrs := g.Neighbors(v)
	k := len(nbrs)
	const inf = int32(1 << 30)
	var d [MaxDegree][MaxDegree]int32
	var adj [MaxDegree][MaxDegree]bool
	var wv [MaxDegree]int32 // w(v, nbrs[i])
	for i := 0; i < k; i++ {
		wv[i] = g.Weight(v, i)
		for j := 0; j < k; j++ {
			if i == j {
				d[i][j] = 0
			} else {
				d[i][j] = inf
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if w, ok := g.EdgeWeight(nbrs[i], nbrs[j]); ok {
				if w < d[i][j] {
					d[i][j] = w
					d[j][i] = w
				}
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	if !smallBiconnected(&adj, k) {
		return false
	}
	for m := 0; m < k; m++ {
		for i := 0; i < k; i++ {
			if d[i][m] >= inf {
				continue // avoid inf+inf overflow
			}
			for j := 0; j < k; j++ {
				if d[m][j] < inf && d[i][m]+d[m][j] < d[i][j] {
					d[i][j] = d[i][m] + d[m][j]
				}
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if d[i][j] > wv[i]+wv[j] {
				return false
			}
		}
	}
	return true
}

// smallBiconnected reports whether the k-node graph given by the adjacency
// matrix is 2-vertex-connected: connected, and still connected after
// deleting any single vertex. k is at most MaxDegree, so brute force wins.
func smallBiconnected(adj *[MaxDegree][MaxDegree]bool, k int) bool {
	if k < 3 {
		return false
	}
	connectedWithout := func(skip int) bool {
		start := -1
		count := 0
		for i := 0; i < k; i++ {
			if i != skip {
				count++
				if start < 0 {
					start = i
				}
			}
		}
		var seen [MaxDegree]bool
		var stack [MaxDegree]int
		top := 0
		stack[top] = start
		top++
		seen[start] = true
		reached := 1
		for top > 0 {
			top--
			u := stack[top]
			for w := 0; w < k; w++ {
				if w != skip && !seen[w] && adj[u][w] {
					seen[w] = true
					reached++
					stack[top] = w
					top++
				}
			}
		}
		return reached == count
	}
	if !connectedWithout(-1) {
		return false
	}
	for skip := 0; skip < k; skip++ {
		if !connectedWithout(skip) {
			return false
		}
	}
	return true
}
