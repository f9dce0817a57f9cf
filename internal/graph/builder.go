package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Builder accumulates edges and produces a normalised Graph. It tolerates
// raw real-world input: duplicate edges, both orientations of the same edge,
// and self loops are all silently dropped, matching the paper's
// preprocessing ("each graph is made simple undirected, unweighted ... by
// removing self loops, multiple edges", Section IV-B). Of parallel weighted
// edges only the lightest is kept: a heavier parallel edge never carries a
// shortest path, which is exactly the Type-3/Type-4 redundant-chain rule
// after contraction.
type Builder struct {
	n     int
	us    []NodeID
	vs    []NodeID
	ws    []int32 // parallels us once an edge heavier than 1 was added; nil before
	fixed bool    // n was set explicitly and must not grow
}

// NewBuilder returns a builder for a graph with n nodes. Edges touching
// nodes outside [0, n) are rejected by AddEdge.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, fixed: true}
}

// NewGrowingBuilder returns a builder whose node count is the largest
// endpoint seen plus one. Useful when streaming unknown edge lists.
func NewGrowingBuilder() *Builder {
	return &Builder{}
}

// AddEdge records the undirected edge {u, v} of weight 1. Self loops are
// dropped.
func (b *Builder) AddEdge(u, v NodeID) error { return b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records the undirected edge {u, v} of weight w. Weights
// must be positive; self loops are dropped (a self loop never carries a
// shortest path).
func (b *Builder) AddWeightedEdge(u, v NodeID, w int32) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative node id in edge {%d,%d}", u, v)
	}
	if b.fixed && (int(u) >= b.n || int(v) >= b.n) {
		return fmt.Errorf("graph: edge {%d,%d} outside fixed node range [0,%d)", u, v, b.n)
	}
	if w <= 0 {
		return fmt.Errorf("graph: edge {%d,%d} has non-positive weight %d", u, v, w)
	}
	if !b.fixed {
		b.n = max(b.n, int(u)+1, int(v)+1)
	}
	if u == v {
		return nil // self loop: normalised away
	}
	if w != 1 && b.ws == nil {
		b.ws = make([]int32, len(b.us), cap(b.us))
		for i := range b.ws {
			b.ws[i] = 1
		}
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	if b.ws != nil {
		b.ws = append(b.ws, w)
	}
	return nil
}

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int { return b.n }

// Build produces the CSR graph, keeping the lightest of each group of
// parallel edges. The builder can be reused afterwards.
func (b *Builder) Build() *Graph {
	n := b.n
	deg := make([]int64, n+1)
	for i := range b.us {
		deg[b.us[i]+1]++
		deg[b.vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	adj := make([]NodeID, deg[n])
	var wts []int32
	if b.ws != nil {
		wts = make([]int32, deg[n])
	}
	cursor := make([]int64, n)
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		iu, iv := deg[u]+cursor[u], deg[v]+cursor[v]
		adj[iu], adj[iv] = v, u
		if wts != nil {
			wts[iu], wts[iv] = b.ws[i], b.ws[i]
		}
		cursor[u]++
		cursor[v]++
	}
	// Sort each adjacency list, the lightest of parallel entries first, and
	// keep the first entry of each group in place.
	out := int64(0)
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		lo, hi := deg[v], deg[v+1]
		if wts == nil {
			slices.Sort(adj[lo:hi])
		} else {
			sort.Sort(byNeighbor{adj[lo:hi], wts[lo:hi]})
		}
		offsets[v] = out
		prev := NodeID(-1)
		for i := lo; i < hi; i++ {
			if adj[i] != prev {
				prev = adj[i]
				adj[out] = prev
				if wts != nil {
					wts[out] = wts[i]
				}
				out++
			}
		}
	}
	offsets[n] = out
	if wts != nil {
		wts = wts[:out:out]
	}
	return newGraph(offsets, adj[:out:out], wts)
}

// byNeighbor sorts one adjacency list with its weights by (neighbour,
// weight).
type byNeighbor struct {
	adj []NodeID
	w   []int32
}

func (s byNeighbor) Len() int { return len(s.adj) }

func (s byNeighbor) Less(i, j int) bool {
	return s.adj[i] < s.adj[j] || s.adj[i] == s.adj[j] && s.w[i] < s.w[j]
}

func (s byNeighbor) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// FromEdges builds a graph with n nodes from an explicit edge list. It is a
// convenience wrapper used heavily by tests.
func FromEdges(n int, edges [][2]NodeID) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			panic(err) // programmer error in literal edge list
		}
	}
	return b.Build()
}

// FromWeightedEdges builds a graph with n nodes from an explicit list of
// {u, v, weight} edges; convenience wrapper for tests.
func FromWeightedEdges(n int, edges [][3]int32) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddWeightedEdge(e[0], e[1], e[2]); err != nil {
			panic(err)
		}
	}
	return b.Build()
}
