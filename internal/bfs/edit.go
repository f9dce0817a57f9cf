package bfs

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/queue"
)

// EditEdge is the one edge edit of the dynamic setting (the paper's future
// work), shared by the server's write path and the exact farness index. It
// inserts (add) or removes the edge {u, v} of the connected simple graph g
// and returns the edited copy with the nodes whose farness the edit can
// change, by the filter of Sariyüce et al. (the paper's reference [24]).
//
// After inserting {u, v}, d(x, y) can only drop if a path through the new
// edge beats it, which needs |d(x,u) − d(x,v)| ≥ 2: otherwise
// d(x,u)+1+d(v,y) ≥ d(x,v)+d(v,y) ≥ d(x,y) for every y. A removal can only
// lengthen paths from x that used the edge, which needs |d(x,u) − d(x,v)|
// = 1 (an edge between nodes equidistant from x lies on no shortest path
// from x). Both filters read the distances before the edit, one BFS row per
// endpoint, so every node outside affected keeps its farness.
//
// A self loop or an existing edge is a no-op insert: next is g and affected
// is empty. An out-of-range node, the removal of a missing edge and the
// removal of a bridge are errors, and g is left as it was.
func EditEdge(g *graph.Graph, u, v graph.NodeID, add bool) (next *graph.Graph, affected []graph.NodeID, err error) {
	if n := graph.NodeID(g.NumNodes()); u < 0 || v < 0 || u >= n || v >= n {
		return nil, nil, fmt.Errorf("dynamic: edge {%d,%d} out of range", u, v)
	}
	switch {
	case add && (u == v || g.HasEdge(u, v)):
		return g, nil, nil
	case add:
		return g.WithEdge(u, v), affectedNodes(g, u, v, 2), nil
	case !g.HasEdge(u, v):
		return nil, nil, fmt.Errorf("dynamic: edge {%d,%d} not present", u, v)
	}
	if next = g.WithoutEdge(u, v); PointToPoint(next, u, v) == Unreached {
		return nil, nil, fmt.Errorf("dynamic: removing {%d,%d} would disconnect the graph", u, v)
	}
	return next, affectedNodes(g, u, v, 1), nil
}

// affectedNodes returns, in ascending order, the nodes x of g with
// |d(x,u) − d(x,v)| ≥ threshold.
func affectedNodes(g *graph.Graph, u, v graph.NodeID, threshold int32) []graph.NodeID {
	n := g.NumNodes()
	du, dv, q := make([]int32, n), make([]int32, n), queue.NewFIFO(n)
	Distances(g, u, du, q)
	Distances(g, v, dv, q)
	var out []graph.NodeID
	for x := range du {
		if d := du[x] - dv[x]; d >= threshold || -d >= threshold {
			out = append(out, graph.NodeID(x))
		}
	}
	return out
}
