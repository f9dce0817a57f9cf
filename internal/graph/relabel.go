package graph

import (
	"fmt"
	"sort"

	"repro/internal/par"
)

// This file implements cache-aware CSR relabeling: a vertex renumbering
// chosen for memory locality, plus the parallel rebuild of the CSR arrays
// under that renumbering. BFS-per-source workloads stream the adjacency of
// every frontier node; when frontier neighbours live close together in the
// adjacency array, those streams hit cache lines that are already resident.
// Two orderings are provided:
//
//   - RelabelDegree: degree-descending. Hubs — the nodes every traversal
//     touches first and most often — are packed at the front of the arrays,
//     so the hot working set of a scale-free graph fits in cache.
//   - RelabelBFS: BFS order from a min-degree root with degree-ascending
//     tie-breaks (Cuthill–McKee style). Consecutive new ids are graph
//     neighbours, which compresses the CSR bandwidth; frontier expansion
//     then touches near-contiguous index ranges.
//
// Orderings are pure permutations: the relabeled graph is isomorphic to the
// input, so BFS/SSSP distances are invariant under the renumbering.
//
// The rebuild (offset scatter, prefix sum, adjacency fill + per-node sort)
// is data-parallel over the par helpers with deterministic block schedules.
// The degree ordering is a fully parallel counting sort. The BFS ordering's
// degree keys are computed in parallel; the sweep itself is sequential
// because the visit order *is* the output.

// RelabelMode selects the vertex ordering used to rebuild a CSR for memory
// locality.
type RelabelMode int

const (
	// RelabelNone keeps the input ordering (no rebuild, zero cost).
	RelabelNone RelabelMode = iota
	// RelabelDegree renumbers by descending degree, ties by ascending old
	// id — packs hubs first; best for scale-free (web/social) graphs.
	RelabelDegree
	// RelabelBFS renumbers in BFS visit order from a minimum-degree root,
	// neighbours visited degree-ascending (Cuthill–McKee style) — best for
	// low-diameter locality and mesh-like graphs.
	RelabelBFS
)

// String returns the flag spelling of the mode.
func (m RelabelMode) String() string {
	switch m {
	case RelabelNone:
		return "none"
	case RelabelDegree:
		return "degree"
	case RelabelBFS:
		return "bfs"
	default:
		return fmt.Sprintf("RelabelMode(%d)", int(m))
	}
}

// Relabeling is a vertex renumbering: Perm[old] = new, Inv[new] = old.
// Both slices have one entry per node and are inverse permutations of each
// other.
type Relabeling struct {
	Perm []NodeID
	Inv  []NodeID
}

// Relabel returns g rebuilt under the given ordering together with the
// permutation that produced it. RelabelNone returns (g, nil) unchanged.
// Output is bit-identical for every worker count.
func Relabel(g *Graph, mode RelabelMode, workers int) (*Graph, *Relabeling) {
	r := orderOf(g.offsets, g.adj, mode, workers)
	if r == nil {
		return g, nil
	}
	return applyPerm(g, r, workers), r
}

// RelabelW is Relabel for weighted graphs; edge weights follow their edges
// through the renumbering.
func RelabelW(g *WGraph, mode RelabelMode, workers int) (*WGraph, *Relabeling) {
	r := orderOf(g.offsets, g.adj, mode, workers)
	if r == nil {
		return g, nil
	}
	return applyPermW(g, r, workers), r
}

// Order computes the permutation of a relabel mode without rebuilding the
// graph — for callers that want the ordering itself rather than the
// relabeled CSR. Proximity-clustered source batching is the main consumer:
// sorting traversal sources by their RelabelBFS (Cuthill–McKee) position
// groups graph-nearby sources into the same position range, so consecutive
// ≤64-wide batches cover one neighbourhood each. Returns nil for
// RelabelNone. Deterministic at every worker count.
func Order(g *Graph, mode RelabelMode, workers int) *Relabeling {
	return orderOf(g.offsets, g.adj, mode, workers)
}

// OrderW is Order for weighted graphs (the ordering ignores weights — BFS
// hop proximity is what batching wants to cluster by, and chain-contracted
// weights still connect hop-adjacent survivors).
func OrderW(g *WGraph, mode RelabelMode, workers int) *Relabeling {
	return orderOf(g.offsets, g.adj, mode, workers)
}

// orderOf computes the permutation for a mode, or nil for RelabelNone.
func orderOf(offsets []int64, adj []NodeID, mode RelabelMode, workers int) *Relabeling {
	switch mode {
	case RelabelDegree:
		return degreeOrder(offsets, workers)
	case RelabelBFS:
		return bfsOrder(offsets, adj, workers)
	default:
		return nil
	}
}

// degreeOrder is a parallel counting sort by (degree descending, old id
// ascending): per-block degree histograms, a sequential scan over the
// (small) degree axis to turn them into per-block placement cursors, then a
// parallel placement pass. Blocks follow the deterministic ForBlocks
// schedule, so within a degree the ascending-block, ascending-id placement
// reproduces the sequential tie-break exactly at every worker count.
func degreeOrder(offsets []int64, workers int) *Relabeling {
	n := len(offsets) - 1
	if n == 0 {
		return &Relabeling{}
	}
	workers = par.Workers(workers)
	nb := par.NumBlocks(n, workers)

	blockMax := make([]int, nb)
	par.ForBlocks(n, workers, func(b, lo, hi int) {
		m := 0
		for v := lo; v < hi; v++ {
			if d := int(offsets[v+1] - offsets[v]); d > m {
				m = d
			}
		}
		blockMax[b] = m
	})
	maxDeg := 0
	for _, m := range blockMax {
		if m > maxDeg {
			maxDeg = m
		}
	}

	blockCnt := make([][]int64, nb)
	par.ForBlocks(n, workers, func(b, lo, hi int) {
		cnt := make([]int64, maxDeg+1)
		for v := lo; v < hi; v++ {
			cnt[offsets[v+1]-offsets[v]]++
		}
		blockCnt[b] = cnt
	})

	// Turn histograms into placement cursors: degrees descend across the
	// output, blocks (= ascending old id) ascend within a degree.
	var run int64
	for d := maxDeg; d >= 0; d-- {
		for b := 0; b < nb; b++ {
			c := blockCnt[b][d]
			blockCnt[b][d] = run
			run += c
		}
	}

	perm := make([]NodeID, n)
	inv := make([]NodeID, n)
	par.ForBlocks(n, workers, func(b, lo, hi int) {
		next := blockCnt[b]
		for v := lo; v < hi; v++ {
			d := offsets[v+1] - offsets[v]
			p := next[d]
			next[d]++
			perm[v] = NodeID(p)
			inv[p] = NodeID(v)
		}
	})
	return &Relabeling{Perm: perm, Inv: inv}
}

// bfsOrder computes a Cuthill–McKee-style BFS numbering: start from the
// minimum-degree node (lowest id on ties), visit each popped node's
// unvisited neighbours in (degree ascending, id ascending) order, and seed
// the next unvisited min-degree node when a component is exhausted. The
// degree keys and the root priority order are computed in parallel; the
// sweep is sequential because the visit order is the output itself, and a
// sequential sweep is what makes it deterministic.
func bfsOrder(offsets []int64, adj []NodeID, workers int) *Relabeling {
	n := len(offsets) - 1
	if n == 0 {
		return &Relabeling{}
	}
	deg := make([]int32, n)
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			deg[v] = int32(offsets[v+1] - offsets[v])
		}
	})

	roots := make([]NodeID, n)
	for i := range roots {
		roots[i] = NodeID(i)
	}
	sort.Slice(roots, func(i, j int) bool {
		if deg[roots[i]] != deg[roots[j]] {
			return deg[roots[i]] < deg[roots[j]]
		}
		return roots[i] < roots[j]
	})

	perm := make([]NodeID, n)
	for i := range perm {
		perm[i] = -1
	}
	inv := make([]NodeID, 0, n) // doubles as the BFS queue: inv IS the visit order
	nbuf := make([]NodeID, 0, 64)
	rootIdx := 0
	for qi := 0; qi < n; qi++ {
		if qi == len(inv) {
			for perm[roots[rootIdx]] >= 0 {
				rootIdx++
			}
			r := roots[rootIdx]
			perm[r] = NodeID(len(inv))
			inv = append(inv, r)
		}
		v := inv[qi]
		nbuf = nbuf[:0]
		for _, w := range adj[offsets[v]:offsets[v+1]] {
			if perm[w] < 0 {
				nbuf = append(nbuf, w)
			}
		}
		sort.Slice(nbuf, func(i, j int) bool {
			if deg[nbuf[i]] != deg[nbuf[j]] {
				return deg[nbuf[i]] < deg[nbuf[j]]
			}
			return nbuf[i] < nbuf[j]
		})
		for _, w := range nbuf {
			perm[w] = NodeID(len(inv))
			inv = append(inv, w)
		}
	}
	return &Relabeling{Perm: perm, Inv: inv}
}

// applyPerm rebuilds g's CSR under r: degree scatter, prefix sum, then a
// fill pass that iterates *new* ids (sequential writes, the access pattern
// the relabeling exists to create) and re-sorts each adjacency list, since
// a permutation does not preserve neighbour order.
func applyPerm(g *Graph, r *Relabeling, workers int) *Graph {
	n := g.NumNodes()
	offsets, adj := g.offsets, g.adj
	noff := make([]int64, n+1)
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			noff[r.Perm[v]+1] = offsets[v+1] - offsets[v]
		}
	})
	par.PrefixSum(noff, workers)
	nadj := make([]NodeID, len(adj))
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for nv := lo; nv < hi; nv++ {
			v := r.Inv[nv]
			out := noff[nv]
			for _, w := range adj[offsets[v]:offsets[v+1]] {
				nadj[out] = r.Perm[w]
				out++
			}
			sortIDs(nadj[noff[nv]:out])
		}
	})
	return &Graph{offsets: noff, adj: nadj}
}

// applyPermW is applyPerm for weighted graphs; weights travel with their
// edges through the per-node sort.
func applyPermW(g *WGraph, r *Relabeling, workers int) *WGraph {
	n := g.NumNodes()
	offsets, adj, wts := g.offsets, g.adj, g.weights
	noff := make([]int64, n+1)
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			noff[r.Perm[v]+1] = offsets[v+1] - offsets[v]
		}
	})
	par.PrefixSum(noff, workers)
	nadj := make([]NodeID, len(adj))
	nwts := make([]int32, len(wts))
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for nv := lo; nv < hi; nv++ {
			v := r.Inv[nv]
			out := noff[nv]
			lo64 := out
			base := offsets[v]
			for i, w := range adj[base:offsets[v+1]] {
				nadj[out] = r.Perm[w]
				nwts[out] = wts[base+int64(i)]
				out++
			}
			sortPairs(nadj[lo64:out], nwts[lo64:out])
		}
	})
	return &WGraph{offsets: noff, adj: nadj, weights: nwts}
}

// sortIDs sorts a small adjacency segment ascending: insertion sort up to a
// threshold (the common case — most degrees are small), sort.Slice beyond.
func sortIDs(a []NodeID) {
	if len(a) <= 32 {
		for i := 1; i < len(a); i++ {
			x := a[i]
			j := i - 1
			for j >= 0 && a[j] > x {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = x
		}
		return
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

// sortPairs co-sorts an adjacency segment and its parallel weights by
// neighbour id.
func sortPairs(a []NodeID, w []int32) {
	if len(a) <= 32 {
		for i := 1; i < len(a); i++ {
			x, xw := a[i], w[i]
			j := i - 1
			for j >= 0 && a[j] > x {
				a[j+1], w[j+1] = a[j], w[j]
				j--
			}
			a[j+1], w[j+1] = x, xw
		}
		return
	}
	sort.Sort(&pairSorter{a, w})
}

type pairSorter struct {
	a []NodeID
	w []int32
}

func (p *pairSorter) Len() int           { return len(p.a) }
func (p *pairSorter) Less(i, j int) bool { return p.a[i] < p.a[j] }
func (p *pairSorter) Swap(i, j int) {
	p.a[i], p.a[j] = p.a[j], p.a[i]
	p.w[i], p.w[j] = p.w[j], p.w[i]
}
