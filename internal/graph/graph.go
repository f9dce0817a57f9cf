// Package graph provides the compact CSR (compressed sparse row)
// representation of undirected graphs, together with the construction,
// normalisation and subgraph utilities that the BRICS reduction pipeline is
// built on.
//
// One representation serves every stage: Graph, an undirected graph whose
// edges carry optional positive integer weights. The paper's preprocessing
// (Section IV-B) turns any raw edge list into an unweighted Graph, the input
// of the whole system. Chain contraction (internal/chains) is the only step
// that weighs an edge: a contracted chain of interior length ℓ becomes a
// single edge of weight ℓ+1. A Graph stores no weight array exactly when
// every edge weighs 1, which every constructor enforces, so Weighted() is a
// nil check and traversals route on it: plain BFS when it is false, Dial's
// algorithm when it is true.
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
// edge are stored, so len(adj) == 2*NumEdges(). Adjacency lists are sorted
// in increasing order and contain no duplicates and no self loops. weights,
// when present, parallels adj with the positive weight of every entry; it
// is nil exactly when every edge weighs 1.
type Graph struct {
	offsets []int64
	adj     []NodeID
	weights []int32
}

// newGraph assembles a graph over the given arrays, dropping a weight array
// in which every edge weighs 1.
func newGraph(offsets []int64, adj []NodeID, weights []int32) *Graph {
	if !slices.ContainsFunc(weights, func(w int32) bool { return w != 1 }) {
		weights = nil
	}
	return &Graph{offsets: offsets, adj: adj, weights: weights}
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

// Weighted reports whether some edge weighs more than 1. Traversals run
// plain BFS when it is false and Dial's algorithm when it is true.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Weights returns the edge weights parallel to Neighbors(v), or nil when
// the graph is unweighted (every weight is 1). The slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Weights(v NodeID) []int32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// Weight returns the weight of v's i-th edge, the one to Neighbors(v)[i].
func (g *Graph) Weight(v NodeID, i int) int32 {
	if g.weights == nil {
		return 1
	}
	return g.weights[g.offsets[v]+int64(i)]
}

// EdgeWeight returns the weight of edge {u, v} and whether it exists. It
// scans u's adjacency: its caller, the redundant-node test, probes the
// short lists around a degree-3/4 node, where a scan beats a binary search.
func (g *Graph) EdgeWeight(u, v NodeID) (int32, bool) {
	for i, w := range g.Neighbors(u) {
		if w == v {
			return g.Weight(u, i), true
		}
	}
	return 0, false
}

// MaxWeight returns the largest edge weight, or 0 for an edgeless graph.
// Dial's algorithm sizes its bucket ring from this.
func (g *Graph) MaxWeight() int32 {
	if g.weights == nil {
		return int32(min(len(g.adj), 1))
	}
	return slices.Max(g.weights)
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

// CSRWeights exposes the raw weight array parallel to the CSR adjacency,
// nil when the graph is unweighted. It aliases the graph's storage and must
// not be modified.
func (g *Graph) CSRWeights() []int32 { return g.weights }

// FromCSR wraps pre-built CSR arrays in a Graph without copying them.
// weights, when non-nil, must parallel adj; a weight array in which every
// edge weighs 1 is dropped, so the graph is unweighted.
//
// Aliasing contract: the Graph returned is a read-only *view* — it aliases
// the arrays directly, so the caller must not modify any of them for the
// lifetime of the graph, and the backing memory must outlive every reader
// (for an mmap-backed artifact that means the mapping may only be unmapped
// after all traversals over the graph have finished). Traversal and
// reduction kernels run directly on the supplied arrays with no copy.
//
// Only the offsets array is checked here (non-empty, starts at 0, monotone,
// ends at len(adj)) — a single O(n) pass over the small array — plus the
// weights length. Neighbour range, sortedness, symmetry and positive
// weights are the caller's responsibility: binary artifact loaders enforce
// them via checksums and Validate, trusted builders by construction.
func FromCSR(offsets []int64, adj []NodeID, weights []int32) (*Graph, error) {
	if err := checkOffsets(offsets, int64(len(adj))); err != nil {
		return nil, err
	}
	if weights != nil && len(weights) != len(adj) {
		return nil, fmt.Errorf("graph: weights length %d != adjacency length %d", len(weights), len(adj))
	}
	return newGraph(offsets, adj, weights), nil
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
	return &Graph{offsets: slices.Clone(g.offsets), adj: slices.Clone(g.adj), weights: slices.Clone(g.weights)}
}

// WithEdge returns a copy of g with the edge {u, v} added. The copy is one
// O(n+m) pass that splices the two new entries into their sorted positions,
// so no adjacency list is re-sorted. g must be unweighted, and u and v
// distinct in-range nodes that are not adjacent in g.
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
// offsets monotone, adjacency sorted, no self loops, no duplicates, the
// symmetry of every edge, and for a weighted graph positive weights equal
// in both directions with some weight above 1. Each reverse entry is found
// by binary search, as in HasEdge. It is used by tests and by the I/O layer
// after parsing untrusted input.
func (g *Graph) Validate() error {
	if err := checkOffsets(g.offsets, int64(len(g.adj))); err != nil {
		return err
	}
	if g.weights != nil && len(g.weights) != len(g.adj) {
		return fmt.Errorf("graph: weights length %d != adjacency length %d", len(g.weights), len(g.adj))
	}
	n := g.NumNodes()
	heavy := false
	for v := 0; v < n; v++ {
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
			j, ok := slices.BinarySearch(g.Neighbors(w), NodeID(v))
			if !ok {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", v, w)
			}
			wt, back := g.Weight(NodeID(v), i), g.Weight(w, j)
			if wt <= 0 || back != wt {
				return fmt.Errorf("graph: edge {%d,%d} has weights %d and %d, want one positive weight", v, w, wt, back)
			}
			heavy = heavy || back != 1
		}
	}
	if g.weights != nil && !heavy {
		return fmt.Errorf("graph: weight array present but every edge weighs 1")
	}
	return nil
}
