// Package dynamic maintains exact farness values under edge insertions and
// deletions — the "extension of this problem to dynamic setting" the
// paper's conclusion names as future work, following the filtering idea of
// Sariyüce, Kaya, Saule and Çatalyürek ("Incremental algorithms for
// closeness centrality", the paper's reference [24]).
//
// The key observation: after inserting edge {u, v}, the distance d(x, y)
// can only change if a path through the new edge beats the old distance,
// which requires |d(x,u) − d(x,v)| ≥ 2 for the *source* x (otherwise
// d(x,u)+1+d(v,y) ≥ d(x,v)+d(v,y) ≥ d(x,y) for every y). Distances — and
// hence farness — are therefore untouched for every node outside the
// affected set X = {x : |d(x,u) − d(x,v)| ≥ 2}, and one BFS per affected
// node refreshes the rest: 2 + |X| traversals instead of n.
//
// Deletion is symmetric with the filter |d(x,u) − d(x,v)| = 1 computed
// *before* the removal (an edge whose endpoints are equidistant from x
// lies on no shortest path from x).
package dynamic

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
)

// Index maintains a mutable undirected simple graph together with the
// exact farness of every node.
type Index struct {
	adj     []map[graph.NodeID]struct{}
	farness []int64
	workers int
	// UpdatedLast reports how many nodes the last mutation refreshed
	// (the |X| of the filter); useful for instrumentation and tests.
	UpdatedLast int
}

// New builds an index from a connected simple graph. Cost: one BFS per
// node (the unavoidable initial exact computation), parallelised.
func New(g *graph.Graph, workers int) (*Index, error) {
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("dynamic: graph must be connected")
	}
	n := g.NumNodes()
	ix := &Index{
		adj:     make([]map[graph.NodeID]struct{}, n),
		farness: make([]int64, n),
		workers: par.Workers(workers),
	}
	for v := 0; v < n; v++ {
		ix.adj[v] = make(map[graph.NodeID]struct{}, g.Degree(graph.NodeID(v)))
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			ix.adj[v][w] = struct{}{}
		}
	}
	ix.recomputeAll()
	return ix, nil
}

// NumNodes returns the node count.
func (ix *Index) NumNodes() int { return len(ix.adj) }

// Degree returns the current degree of v.
func (ix *Index) Degree(v graph.NodeID) int { return len(ix.adj[v]) }

// HasEdge reports whether {u, v} is present.
func (ix *Index) HasEdge(u, v graph.NodeID) bool {
	_, ok := ix.adj[u][v]
	return ok
}

// Farness returns the exact farness of v.
func (ix *Index) Farness(v graph.NodeID) float64 { return float64(ix.farness[v]) }

// bfs runs a BFS over the current adjacency, filling dist.
func (ix *Index) bfs(src graph.NodeID, dist []int32, q *queue.FIFO) {
	for i := range dist {
		dist[i] = -1
	}
	q.Reset()
	dist[src] = 0
	q.Push(src)
	for !q.Empty() {
		u := q.Pop()
		du := dist[u]
		for w := range ix.adj[u] {
			if dist[w] == -1 {
				dist[w] = du + 1
				q.Push(w)
			}
		}
	}
}

func (ix *Index) recomputeAll() {
	n := len(ix.adj)
	type ws struct {
		dist []int32
		q    *queue.FIFO
	}
	scratch := make([]ws, ix.workers)
	for i := range scratch {
		scratch[i] = ws{dist: make([]int32, n), q: queue.NewFIFO(n)}
	}
	par.ForDynamic(n, ix.workers, 8, func(worker, v int) {
		s := &scratch[worker]
		ix.bfs(graph.NodeID(v), s.dist, s.q)
		var sum int64
		for _, d := range s.dist {
			sum += int64(d)
		}
		ix.farness[v] = sum
	})
	ix.UpdatedLast = n
}

// refresh recomputes farness for exactly the given nodes.
func (ix *Index) refresh(affected []graph.NodeID) {
	n := len(ix.adj)
	type ws struct {
		dist []int32
		q    *queue.FIFO
	}
	scratch := make([]ws, ix.workers)
	for i := range scratch {
		scratch[i] = ws{dist: make([]int32, n), q: queue.NewFIFO(n)}
	}
	par.ForDynamic(len(affected), ix.workers, 1, func(worker, i int) {
		s := &scratch[worker]
		v := affected[i]
		ix.bfs(v, s.dist, s.q)
		var sum int64
		for _, d := range s.dist {
			sum += int64(d)
		}
		ix.farness[v] = sum
	})
	ix.UpdatedLast = len(affected)
}

// affectedSet returns nodes x with |d(x,u) − d(x,v)| >= threshold.
func (ix *Index) affectedSet(u, v graph.NodeID, threshold int32) []graph.NodeID {
	n := len(ix.adj)
	du := make([]int32, n)
	dv := make([]int32, n)
	q := queue.NewFIFO(n)
	ix.bfs(u, du, q)
	ix.bfs(v, dv, q)
	var out []graph.NodeID
	for x := 0; x < n; x++ {
		diff := du[x] - dv[x]
		if diff < 0 {
			diff = -diff
		}
		if diff >= threshold {
			out = append(out, graph.NodeID(x))
		}
	}
	return out
}

// AddEdge inserts the undirected edge {u, v} and refreshes the farness of
// every affected node. Inserting an existing edge or a self loop is a
// no-op returning nil.
func (ix *Index) AddEdge(u, v graph.NodeID) error {
	n := graph.NodeID(len(ix.adj))
	if u < 0 || v < 0 || u >= n || v >= n {
		return fmt.Errorf("dynamic: edge {%d,%d} out of range", u, v)
	}
	if u == v || ix.HasEdge(u, v) {
		ix.UpdatedLast = 0
		return nil
	}
	// Filter before mutating: the affected test uses pre-insertion
	// distances, and a source is affected iff the endpoints were ≥ 2
	// apart from it.
	affected := ix.affectedSet(u, v, 2)
	ix.adj[u][v] = struct{}{}
	ix.adj[v][u] = struct{}{}
	ix.refresh(affected)
	return nil
}

// RemoveEdge deletes the undirected edge {u, v} and refreshes affected
// farness values. It refuses deletions that would disconnect the graph.
func (ix *Index) RemoveEdge(u, v graph.NodeID) error {
	n := graph.NodeID(len(ix.adj))
	if u < 0 || v < 0 || u >= n || v >= n {
		return fmt.Errorf("dynamic: edge {%d,%d} out of range", u, v)
	}
	if !ix.HasEdge(u, v) {
		return fmt.Errorf("dynamic: edge {%d,%d} not present", u, v)
	}
	// A source x can be affected only if the edge lies on one of its
	// shortest paths, which needs |d(x,u) − d(x,v)| = 1 (equality 0 means
	// the edge is a chord of equal-distance rings). Compute the filter
	// before deleting.
	affected := ix.affectedSet(u, v, 1)
	delete(ix.adj[u], v)
	delete(ix.adj[v], u)
	// Connectivity check: u must still reach v.
	dist := make([]int32, len(ix.adj))
	q := queue.NewFIFO(len(ix.adj))
	ix.bfs(u, dist, q)
	if dist[v] == -1 {
		ix.adj[u][v] = struct{}{}
		ix.adj[v][u] = struct{}{}
		return fmt.Errorf("dynamic: removing {%d,%d} would disconnect the graph", u, v)
	}
	ix.refresh(affected)
	return nil
}

// Snapshot materialises the current graph as an immutable CSR Graph.
func (ix *Index) Snapshot() *graph.Graph {
	b := graph.NewBuilder(len(ix.adj))
	for u := range ix.adj {
		for v := range ix.adj[u] {
			if graph.NodeID(u) < v {
				_ = b.AddEdge(graph.NodeID(u), v)
			}
		}
	}
	return b.Build()
}

// TopK returns the k most central nodes under the current graph.
func (ix *Index) TopK(k int) []graph.NodeID {
	n := len(ix.adj)
	if k > n {
		k = n
	}
	ord := make([]graph.NodeID, n)
	for i := range ord {
		ord[i] = graph.NodeID(i)
	}
	sort.Slice(ord, func(i, j int) bool { return ix.farness[ord[i]] < ix.farness[ord[j]] })
	return ord[:k]
}
