// Package graph provides compact CSR (compressed sparse row) representations
// of undirected graphs, together with the construction, normalisation and
// subgraph utilities that the BRICS reduction pipeline is built on.
//
// Two representations are provided:
//
//   - Graph: a simple, unweighted, undirected graph. This is the input type
//     of the whole system; the paper's preprocessing (Section IV-B) turns any
//     raw edge list into this form.
//   - WGraph: an integer-weighted undirected multigraph. Chain contraction
//     (internal/chains) produces these: a contracted chain of interior
//     length ℓ becomes a single edge of weight ℓ+1.
//
// Node identifiers are dense int32 values in [0, NumNodes()). Every adjacency
// list is sorted, which the twin-detection hashing and the redundant-node
// local checks rely on.
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node. IDs are dense: a graph with n nodes uses IDs
// 0..n-1.
type NodeID = int32

// MaxNodeID bounds accepted node identifiers (2^27 ≈ 134M). Ids are used
// directly as dense indices, so a single absurd id in a corrupt file would
// otherwise allocate gigabytes; the largest paper dataset has 10^6 nodes.
// Every untrusted loader (internal/io text parsers, internal/bincsr binary
// artifacts) enforces this bound before allocating.
const MaxNodeID = 1 << 27

// Graph is a simple undirected graph in CSR form. Both directions of every
// edge are stored, so len(Adj) == 2*NumEdges(). Adjacency lists are sorted
// in increasing order and contain no duplicates and no self loops.
type Graph struct {
	offsets []int64
	adj     []NodeID
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the edge {u, v} is present. It runs a binary
// search over the (sorted) shorter adjacency list.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.Neighbors(u), v)
	return found
}

// CSR exposes the raw offsets and adjacency arrays. The hot traversal
// kernels (direction-optimising bit-parallel multi-source sweeps) iterate
// the arrays directly instead of paying a method call per node. Both slices
// alias the graph's storage and must not be modified.
func (g *Graph) CSR() (offsets []int64, adj []NodeID) {
	return g.offsets, g.adj
}

// FromCSR wraps pre-built CSR arrays in a Graph without copying them.
//
// Aliasing contract: the Graph returned is a read-only *view* — it aliases
// offsets and adj directly, so the caller must not modify either slice for
// the lifetime of the graph, and the backing memory must outlive every
// reader (for an mmap-backed artifact that means the mapping may only be
// unmapped after all traversals over the graph have finished). Traversal
// and reduction kernels run directly on the supplied arrays with no copy.
//
// Only the offsets array is checked here (non-empty, starts at 0, monotone,
// ends at len(adj)) — a single O(n) pass over the small array. Neighbour
// range, sortedness and symmetry are the caller's responsibility: binary
// artifact loaders enforce them via checksums and Validate, trusted
// builders by construction.
func FromCSR(offsets []int64, adj []NodeID) (*Graph, error) {
	if err := checkOffsets(offsets, int64(len(adj))); err != nil {
		return nil, err
	}
	return &Graph{offsets: offsets, adj: adj}, nil
}

// WFromCSR is FromCSR for weighted graphs; weights must parallel adj. The
// same aliasing contract applies to all three arrays.
func WFromCSR(offsets []int64, adj []NodeID, weights []int32) (*WGraph, error) {
	if err := checkOffsets(offsets, int64(len(adj))); err != nil {
		return nil, err
	}
	if len(weights) != len(adj) {
		return nil, fmt.Errorf("graph: weights length %d != adjacency length %d", len(weights), len(adj))
	}
	return &WGraph{offsets: offsets, adj: adj, weights: weights}, nil
}

// checkOffsets validates a CSR offsets array against an adjacency length.
func checkOffsets(offsets []int64, adjLen int64) error {
	if len(offsets) == 0 {
		return fmt.Errorf("graph: empty offsets array")
	}
	if int64(len(offsets)-1) > MaxNodeID {
		return fmt.Errorf("graph: %d nodes exceeds MaxNodeID (%d)", len(offsets)-1, MaxNodeID)
	}
	if offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", offsets[0])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", i-1)
		}
	}
	if last := offsets[len(offsets)-1]; last != adjLen {
		return fmt.Errorf("graph: offsets end at %d, want adjacency length %d", last, adjLen)
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		offsets: make([]int64, len(g.offsets)),
		adj:     make([]NodeID, len(g.adj)),
	}
	copy(c.offsets, g.offsets)
	copy(c.adj, g.adj)
	return c
}

// WithEdge returns a copy of g with the edge {u, v} added. The copy is one
// O(n+m) pass that splices the two new entries into their sorted positions,
// so no adjacency list is re-sorted. u and v must be distinct in-range nodes
// that are not adjacent in g.
func (g *Graph) WithEdge(u, v NodeID) *Graph { return g.editEdge(u, v, 1) }

// WithoutEdge returns a copy of g with the edge {u, v} removed, in one
// O(n+m) pass like WithEdge. The edge must be present in g.
func (g *Graph) WithoutEdge(u, v NodeID) *Graph { return g.editEdge(u, v, -1) }

// editEdge copies g with {u, v} inserted (delta 1) or deleted (delta -1).
// With a < b, b's slot in a's list comes before a's slot in b's list, so the
// new adjacency is the old one in three runs around those two slots, and
// the offsets after a shift by delta and those after b by 2·delta.
func (g *Graph) editEdge(u, v NodeID, delta int) *Graph {
	a, b := min(u, v), max(u, v)
	ia, _ := slices.BinarySearch(g.Neighbors(a), b)
	ib, _ := slices.BinarySearch(g.Neighbors(b), a)
	pa, pb := g.offsets[a]+int64(ia), g.offsets[b]+int64(ib)
	c := &Graph{
		offsets: make([]int64, len(g.offsets)),
		adj:     make([]NodeID, len(g.adj)+2*delta),
	}
	copy(c.offsets, g.offsets[:a+1])
	for x := int(a) + 1; x < len(g.offsets); x++ {
		shift := int64(delta)
		if x > int(b) {
			shift *= 2
		}
		c.offsets[x] = g.offsets[x] + shift
	}
	copy(c.adj, g.adj[:pa])
	if delta > 0 {
		c.adj[pa] = b
		copy(c.adj[pa+1:], g.adj[pa:pb])
		c.adj[pb+1] = a
		copy(c.adj[pb+2:], g.adj[pb:])
	} else {
		copy(c.adj[pa:], g.adj[pa+1:pb])
		copy(c.adj[pb-1:], g.adj[pb+1:])
	}
	return c
}

// Edges calls fn once per undirected edge {u, v} with u < v.
func (g *Graph) Edges(fn func(u, v NodeID)) {
	for u := NodeID(0); u < NodeID(g.NumNodes()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// Validate checks the structural invariants of the CSR representation:
// offsets monotone, adjacency sorted, no self loops, no duplicates, and the
// symmetry of every edge. It is used by tests and by the I/O layer after
// parsing untrusted input.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	for v := 0; v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at node %d", v)
		}
		nbrs := g.Neighbors(NodeID(v))
		for i, w := range nbrs {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbour %d", v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: node %d has a self loop", v)
			}
			if i > 0 && nbrs[i-1] >= w {
				return fmt.Errorf("graph: adjacency of node %d not strictly sorted", v)
			}
			if !g.HasEdge(w, NodeID(v)) {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", v, w)
			}
		}
	}
	if int(g.offsets[n]) != len(g.adj) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[n], len(g.adj))
	}
	return nil
}

// WGraph is an integer-weighted undirected multigraph in CSR form. Parallel
// edges with different weights may exist only transiently during
// construction; NewWGraph keeps the minimum-weight edge of each parallel
// group, since a heavier parallel edge can never lie on a shortest path.
type WGraph struct {
	offsets []int64
	adj     []NodeID
	weights []int32
}

// NumNodes returns the number of nodes.
func (g *WGraph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *WGraph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the degree of v.
func (g *WGraph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The slice aliases graph
// storage.
func (g *WGraph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Weights returns the edge weights parallel to Neighbors(v). The slice
// aliases graph storage.
func (g *WGraph) Weights(v NodeID) []int32 {
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// CSR exposes the raw offsets, adjacency and weight arrays (see Graph.CSR).
// All three slices alias the graph's storage and must not be modified.
func (g *WGraph) CSR() (offsets []int64, adj []NodeID, weights []int32) {
	return g.offsets, g.adj, g.weights
}

// EdgeWeight returns the weight of edge {u, v} and whether it exists.
func (g *WGraph) EdgeWeight(u, v NodeID) (int32, bool) {
	nbrs := g.Neighbors(u)
	ws := g.Weights(u)
	for i, w := range nbrs {
		if w == v {
			return ws[i], true
		}
	}
	return 0, false
}

// MaxWeight returns the largest edge weight, or 0 for an edgeless graph.
// Dial's algorithm sizes its bucket ring from this.
func (g *WGraph) MaxWeight() int32 {
	var mw int32
	for _, w := range g.weights {
		if w > mw {
			mw = w
		}
	}
	return mw
}

// Edges calls fn once per undirected edge {u, v, weight} with u < v.
func (g *WGraph) Edges(fn func(u, v NodeID, w int32)) {
	for u := NodeID(0); u < NodeID(g.NumNodes()); u++ {
		nbrs := g.Neighbors(u)
		ws := g.Weights(u)
		for i, v := range nbrs {
			if u < v {
				fn(u, v, ws[i])
			}
		}
	}
}

// Validate checks the CSR invariants of a weighted graph: sorted adjacency,
// positive weights, no self loops, and symmetric edges with equal weights.
func (g *WGraph) Validate() error {
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(NodeID(v))
		ws := g.Weights(NodeID(v))
		for i, w := range nbrs {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("wgraph: node %d has out-of-range neighbour %d", v, w)
			}
			if int(w) == v {
				return fmt.Errorf("wgraph: node %d has a self loop", v)
			}
			if i > 0 && nbrs[i-1] >= w {
				return fmt.Errorf("wgraph: adjacency of node %d not strictly sorted", v)
			}
			if ws[i] <= 0 {
				return fmt.Errorf("wgraph: edge {%d,%d} has non-positive weight %d", v, w, ws[i])
			}
			back, ok := g.EdgeWeight(w, NodeID(v))
			if !ok || back != ws[i] {
				return fmt.Errorf("wgraph: edge {%d,%d} asymmetric (weights %d vs %d, ok=%v)", v, w, ws[i], back, ok)
			}
		}
	}
	if int(g.offsets[n]) != len(g.adj) {
		return fmt.Errorf("wgraph: offsets[n] = %d, want %d", g.offsets[n], len(g.adj))
	}
	return nil
}

// Unweighted reports whether every edge has weight 1; traversals can then
// use plain BFS instead of Dial's algorithm.
func (g *WGraph) Unweighted() bool {
	for _, w := range g.weights {
		if w != 1 {
			return false
		}
	}
	return true
}

// ToWeighted converts a simple graph into the equivalent weighted graph with
// all weights 1.
func (g *Graph) ToWeighted() *WGraph {
	w := &WGraph{
		offsets: g.offsets,
		adj:     g.adj,
		weights: make([]int32, len(g.adj)),
	}
	for i := range w.weights {
		w.weights[i] = 1
	}
	return w
}
