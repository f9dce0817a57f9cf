package graph

import (
	"sort"

	"repro/internal/par"
)

// This file holds the parallel CSR construction shared by every stage of
// the reduction pipeline: induced-subgraph extraction and chain
// contraction, built as three data-parallel passes over the CSR arrays —
// a per-node kept-neighbour count, a prefix sum turning counts into
// offsets, and a per-node adjacency copy. The node renumbering is monotone
// (kept nodes keep their relative order), so filtered adjacency lists stay
// sorted and no per-node sort is needed, unlike the Builder path. All
// passes use static block schedules and associative reductions, so the
// output is bit-identical for every worker count.

// WEdge is an explicit weighted edge handed to the contraction builders
// (the contracted stand-in for a removed chain).
type WEdge struct {
	U, V NodeID
	W    int32
}

// CompactIDs fills toNew with the dense renumbering of the kept nodes —
// toNew[v] = rank of v among keep==true nodes, -1 for dropped ones — and
// returns the kept count. toNew must have len(keep) entries. The
// renumbering is monotone, which is what keeps filtered CSR adjacency
// sorted without re-sorting.
func CompactIDs(keep []bool, toNew []NodeID, workers int) int {
	n := len(keep)
	workers = par.Workers(workers)
	if workers == 1 || n < 4096 {
		kept := 0
		for v := 0; v < n; v++ {
			if keep[v] {
				toNew[v] = NodeID(kept)
				kept++
			} else {
				toNew[v] = -1
			}
		}
		return kept
	}
	nb := par.NumBlocks(n, workers)
	sums := make([]int64, nb)
	par.ForBlocks(n, workers, func(b, lo, hi int) {
		cnt := int64(0)
		for v := lo; v < hi; v++ {
			if keep[v] {
				cnt++
			}
		}
		sums[b] = cnt
	})
	var total int64
	for b := range sums {
		s := sums[b]
		sums[b] = total
		total += s
	}
	par.ForBlocks(n, workers, func(b, lo, hi int) {
		id := NodeID(sums[b])
		for v := lo; v < hi; v++ {
			if keep[v] {
				toNew[v] = id
				id++
			} else {
				toNew[v] = -1
			}
		}
	})
	return int(total)
}

// SubgraphInto extracts the subgraph induced by keep in parallel, writing
// the old→new renumbering into toNew (len g.NumNodes(), -1 for dropped
// nodes). Output is bit-identical to Subgraph for every worker count.
func SubgraphInto(g *Graph, keep []bool, toNew []NodeID, workers int) *Graph {
	n := g.NumNodes()
	kept := CompactIDs(keep, toNew, workers)
	offsets := make([]int64, kept+1)
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			nv := toNew[v]
			if nv < 0 {
				continue
			}
			cnt := int64(0)
			for _, w := range g.Neighbors(NodeID(v)) {
				if keep[w] {
					cnt++
				}
			}
			offsets[nv+1] = cnt
		}
	})
	total := par.PrefixSum(offsets, workers)
	adj := make([]NodeID, total)
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			nv := toNew[v]
			if nv < 0 {
				continue
			}
			out := offsets[nv]
			for _, w := range g.Neighbors(NodeID(v)) {
				if nw := toNew[w]; nw >= 0 {
					adj[out] = nw
					out++
				}
			}
		}
	})
	return &Graph{offsets: offsets, adj: adj}
}

// WSubgraphInto is SubgraphInto for weighted graphs.
func WSubgraphInto(g *WGraph, keep []bool, toNew []NodeID, workers int) *WGraph {
	n := g.NumNodes()
	kept := CompactIDs(keep, toNew, workers)
	offsets := make([]int64, kept+1)
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			nv := toNew[v]
			if nv < 0 {
				continue
			}
			cnt := int64(0)
			for _, w := range g.Neighbors(NodeID(v)) {
				if keep[w] {
					cnt++
				}
			}
			offsets[nv+1] = cnt
		}
	})
	total := par.PrefixSum(offsets, workers)
	adj := make([]NodeID, total)
	wts := make([]int32, total)
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			nv := toNew[v]
			if nv < 0 {
				continue
			}
			out := offsets[nv]
			nbrs := g.Neighbors(NodeID(v))
			ws := g.Weights(NodeID(v))
			for i, w := range nbrs {
				if nw := toNew[w]; nw >= 0 {
					adj[out] = nw
					wts[out] = ws[i]
					out++
				}
			}
		}
	})
	return &WGraph{offsets: offsets, adj: adj, weights: wts}
}

// extEntry is one directed contracted-edge entry in new-id space.
type extEntry struct {
	from, to NodeID
	w        int32
}

// buildExtEntries remaps the extra edges into new-id space, doubles them
// into directed entries and sorts by (from, to, w) so that per-node
// segments are sorted and the lightest parallel duplicate comes first —
// exactly the WBuilder dedup rule. Extra edges are few (one per contracted
// chain), so this stays sequential and deterministic.
func buildExtEntries(extra []WEdge, toNew []NodeID) []extEntry {
	if len(extra) == 0 {
		return nil
	}
	ents := make([]extEntry, 0, 2*len(extra))
	for _, e := range extra {
		u, v := toNew[e.U], toNew[e.V]
		if u < 0 || v < 0 || u == v {
			continue // self loops never carry shortest paths; endpoints must be kept
		}
		ents = append(ents, extEntry{u, v, e.W}, extEntry{v, u, e.W})
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].from != ents[j].from {
			return ents[i].from < ents[j].from
		}
		if ents[i].to != ents[j].to {
			return ents[i].to < ents[j].to
		}
		return ents[i].w < ents[j].w
	})
	return ents
}

// extSegment returns the half-open range of ents whose from == v.
func extSegment(ents []extEntry, v NodeID) []extEntry {
	lo := sort.Search(len(ents), func(i int) bool { return ents[i].from >= v })
	hi := sort.Search(len(ents), func(i int) bool { return ents[i].from > v })
	return ents[lo:hi]
}

// mergeCount returns the number of distinct neighbour ids in the union of
// the remapped kept neighbours of old node v and its ext segment.
func mergeCount(nbrs []NodeID, toNew []NodeID, ext []extEntry) int64 {
	cnt := int64(0)
	j := 0
	var prev NodeID = -1
	emit := func(id NodeID) {
		if id != prev {
			cnt++
			prev = id
		}
	}
	for _, w := range nbrs {
		nw := toNew[w]
		if nw < 0 {
			continue
		}
		for j < len(ext) && ext[j].to < nw {
			emit(ext[j].to)
			j++
		}
		emit(nw)
		for j < len(ext) && ext[j].to == nw {
			j++
		}
	}
	for j < len(ext) {
		emit(ext[j].to)
		j++
	}
	return cnt
}

// mergeFill writes the merged (neighbour, weight) lists for old node v into
// adj/wts at out, taking the minimum weight when a graph edge and an extra
// edge (or several extra edges) connect the same pair.
func mergeFill(nbrs []NodeID, ws []int32, toNew []NodeID, ext []extEntry, adj []NodeID, wts []int32, out int64) {
	j := 0
	flushExtBefore := func(limit NodeID) {
		for j < len(ext) && ext[j].to < limit {
			to, w := ext[j].to, ext[j].w
			j++
			for j < len(ext) && ext[j].to == to {
				j++ // heavier duplicates of the same contracted pair
			}
			adj[out] = to
			wts[out] = w
			out++
		}
	}
	for i, nb := range nbrs {
		nw := toNew[nb]
		if nw < 0 {
			continue
		}
		flushExtBefore(nw)
		w := ws[i]
		for j < len(ext) && ext[j].to == nw {
			if ext[j].w < w {
				w = ext[j].w
			}
			j++
		}
		adj[out] = nw
		wts[out] = w
		out++
	}
	flushExtBefore(NodeID(len(toNew)))
}

// ones returns an all-ones weight view of length n for contracting an
// unweighted graph, grown lazily in the caller's per-worker buffer.
func ones(n int, buf *[]int32) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
		for i := range *buf {
			(*buf)[i] = 1
		}
	}
	return (*buf)[:n]
}

// ContractInto builds the weighted graph over the kept nodes of the simple
// graph g: every kept-kept edge survives with weight 1 and the extra edges
// (contracted chains, in g's ids, both endpoints kept) are merged in,
// keeping the lightest of each parallel group — the WBuilder rule, built
// directly in CSR form. toNew is filled like SubgraphInto. Bit-identical
// output for every worker count.
func ContractInto(g *Graph, keep []bool, toNew []NodeID, extra []WEdge, workers int) *WGraph {
	n := g.NumNodes()
	kept := CompactIDs(keep, toNew, workers)
	ents := buildExtEntries(extra, toNew)
	offsets := make([]int64, kept+1)
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			nv := toNew[v]
			if nv < 0 {
				continue
			}
			offsets[nv+1] = mergeCount(g.Neighbors(NodeID(v)), toNew, extSegment(ents, nv))
		}
	})
	total := par.PrefixSum(offsets, workers)
	adj := make([]NodeID, total)
	wts := make([]int32, total)
	par.ForBlocks(n, workers, func(_, lo, hi int) {
		var localOnes []int32
		for v := lo; v < hi; v++ {
			nv := toNew[v]
			if nv < 0 {
				continue
			}
			nbrs := g.Neighbors(NodeID(v))
			mergeFill(nbrs, ones(len(nbrs), &localOnes), toNew, extSegment(ents, nv), adj, wts, offsets[nv])
		}
	})
	return &WGraph{offsets: offsets, adj: adj, weights: wts}
}
