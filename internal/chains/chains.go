// Package chains implements the "C" of BRICS: discovery, classification and
// contraction of chain nodes (Section III-B of the paper). A chain is a
// maximal path u - a₁ - a₂ - … - a_ℓ - v whose interior nodes all have
// degree two. The paper's four chain types are:
//
//	Type-1: one endpoint is a degree-1 node (a dangling tail) — redundant.
//	Type-2: both endpoints are the same node (a pendant cycle) — redundant.
//	Type-3: a chain strictly longer than a parallel connection — redundant.
//	Type-4: identical chains (equal endpoints, equal length) — all but one
//	        redundant.
//
// Where the paper says chain nodes are "removed", non-redundant chains must
// keep the graph connected, so this package *contracts* every chain with two
// distinct live endpoints into a single weighted edge of weight ℓ+1 and
// removes the interior nodes; redundant parallels are then dropped
// automatically by graph.ContractInto, which keeps only the lightest edge
// of each parallel group. Interior distances are recovered per BFS source by
// the split formula of the paper's Algorithm 2 (see Extend).
package chains

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// Type classifies a chain per the paper's Fig. 1.
type Type uint8

const (
	// Dangling is Type-1: the chain ends in a degree-1 node; only the u
	// anchor exists.
	Dangling Type = iota + 1
	// Cycle is Type-2: both endpoints are the same node.
	Cycle
	// Parallel is Type-3/4: a chain between two distinct anchors. Whether
	// it is redundant (3/4) or the surviving connection is decided later
	// by comparing contracted edges; the interior post-processing is
	// identical either way.
	Parallel
)

func (t Type) String() string {
	switch t {
	case Dangling:
		return "dangling(type-1)"
	case Cycle:
		return "cycle(type-2)"
	case Parallel:
		return "parallel(type-3/4)"
	default:
		return "invalid"
	}
}

// Chain records one discovered chain. Node ids are in the coordinate system
// of the graph handed to Find.
type Chain struct {
	// U is the anchor the interior is enumerated from. For Dangling
	// chains it is the only anchor.
	U graph.NodeID
	// V is the far anchor; -1 for Dangling chains; equal to U for Cycle
	// chains.
	V graph.NodeID
	// Interior lists the removed nodes in path order starting adjacent
	// to U. Interior[i] is at offset i+1 from U along the chain.
	Interior []graph.NodeID
	// Type classifies the chain.
	Type Type
}

// Len returns ℓ, the number of interior nodes.
func (c *Chain) Len() int { return len(c.Interior) }

// EdgeWeight returns the weight of the contracted edge (ℓ+1). Meaningful
// only for Parallel chains with U != V.
func (c *Chain) EdgeWeight() int32 { return int32(len(c.Interior)) + 1 }

// Result of chain discovery.
type Result struct {
	// Chains lists every discovered chain.
	Chains []Chain
	// Removed is the total number of interior nodes across chains.
	Removed int
	// WholeGraph is set when the entire input is a single path or cycle
	// (every node has degree ≤ 2). No chains are emitted in that case;
	// callers must special-case such graphs (closed-form farness).
	WholeGraph bool
}

// Find discovers all maximal chains of g. The returned chains have disjoint
// interiors; anchors (degree ≠ 2 nodes) are never interior to any chain.
//
// Degree-1 nodes adjacent to an anchor become singleton Dangling chains;
// degree-1 nodes ending a run of degree-2 nodes are folded into that run's
// Dangling chain, matching the paper's Type-1. Find is FindWorkers at one
// worker — every worker count yields the same Result.
func Find(g *graph.Graph) *Result { return FindWorkers(g, 1) }

// anchorScan fills interior flags for g and returns the ascending anchor
// list, or nil when the graph has no anchor (a pure path/cycle input).
func anchorScan(g *graph.Graph, workers int, interior []bool) []graph.NodeID {
	n := g.NumNodes()
	nb := par.NumBlocks(n, workers)
	counts := make([]int64, nb)
	par.ForBlocks(n, workers, func(b, lo, hi int) {
		cnt := int64(0)
		for v := lo; v < hi; v++ {
			d := g.Degree(graph.NodeID(v))
			interior[v] = d == 1 || d == 2
			if !interior[v] {
				cnt++
			}
		}
		counts[b] = cnt
	})
	var total int64
	for b := range counts {
		c := counts[b]
		counts[b] = total
		total += c
	}
	if total == 0 {
		return nil
	}
	anchors := make([]graph.NodeID, total)
	par.ForBlocks(n, workers, func(b, lo, hi int) {
		out := counts[b]
		for v := lo; v < hi; v++ {
			if !interior[v] {
				anchors[out] = graph.NodeID(v)
				out++
			}
		}
	})
	return anchors
}

// FindWorkers is Find with chain discovery fanned out over the anchors
// (<1 worker means GOMAXPROCS). Without the sequential pass's shared
// visited[] marks, each chain is walked from both of its entries; a
// canonical ownership rule keeps exactly the copy the sequential scan
// would have emitted — a Parallel chain belongs to its smaller anchor, a
// pendant cycle to its smaller entry neighbour, a Dangling chain to its
// only anchor — so the concatenation of the per-anchor chain lists in
// anchor order is bit-identical to the sequential result for every worker
// count.
func FindWorkers(g *graph.Graph, workers int) *Result {
	n := g.NumNodes()
	workers = par.Workers(workers)
	res := &Result{}
	interior := make([]bool, n)
	anchors := anchorScan(g, workers, interior)
	if anchors == nil {
		res.WholeGraph = n > 0
		return res
	}

	// walk follows a run of degree-≤2 nodes starting from `first`, which
	// was reached from `from`. It returns the interior nodes in order and
	// the terminating anchor (or -1 if the run ends at a degree-1 node).
	// Read-only: safe from concurrent walkers.
	walk := func(from, first graph.NodeID) (run []graph.NodeID, end graph.NodeID) {
		prev, cur := from, first
		for {
			if !interior[cur] {
				return run, cur
			}
			run = append(run, cur)
			if g.Degree(cur) == 1 {
				return run, -1
			}
			nbrs := g.Neighbors(cur)
			next := nbrs[0]
			if next == prev {
				next = nbrs[1]
			}
			prev, cur = cur, next
		}
	}

	perAnchor := make([][]Chain, len(anchors))
	par.ForDynamic(len(anchors), workers, 32, func(_, ai int) {
		u := anchors[ai]
		var local []Chain
		for _, first := range g.Neighbors(u) {
			if !interior[first] {
				continue
			}
			run, end := walk(u, first)
			switch {
			case end == -1:
				local = append(local, Chain{U: u, V: -1, Interior: run, Type: Dangling})
			case end == u:
				// A pendant cycle is walked from both of u's entry edges;
				// keep the walk that entered through the smaller entry —
				// the one the sequential neighbour scan found first.
				if len(run) > 1 && run[0] > run[len(run)-1] {
					continue
				}
				local = append(local, Chain{U: u, V: u, Interior: run, Type: Cycle})
			default:
				// A chain between two anchors is walked from both; its
				// smaller anchor owns it, matching the ascending anchor
				// scan of the sequential pass.
				if end < u {
					continue
				}
				local = append(local, Chain{U: u, V: end, Interior: run, Type: Parallel})
			}
		}
		perAnchor[ai] = local
	})
	for _, local := range perAnchor {
		for i := range local {
			res.Removed += len(local[i].Interior)
		}
		res.Chains = append(res.Chains, local...)
	}
	return res
}

// InteriorDistance returns d(s, Interior[i]) given the source's distances
// to the chain's anchors, using the split formula of the paper's
// Algorithm 2. du is d(s,U); dv is d(s,V) and ignored for Dangling chains.
// Position i is 0-based (Interior[i] sits i+1 steps from U).
func (c *Chain) InteriorDistance(du, dv int32, i int) int32 {
	off := int32(i) + 1
	switch c.Type {
	case Dangling:
		return du + off
	case Cycle:
		// Around the pendant cycle of length ℓ+1 edges.
		other := int32(len(c.Interior)) + 1 - off
		if other < off {
			off = other
		}
		return du + off
	default:
		l := int32(len(c.Interior)) + 1 // contracted edge weight
		a := du + off
		b := dv + l - off
		if b < a {
			return b
		}
		return a
	}
}
