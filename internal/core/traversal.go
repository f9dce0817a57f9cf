package core

import (
	"sort"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// engine is the traversal engine one traversal unit runs its sampled sources
// on. A unit is the whole (reduced) graph for the global estimators and one
// biconnected block for the cumulative one. Every engine produces
// bit-identical farness for the same seed: BFS levels and shortest-path
// distances are unique, and every accumulator on the path is integer
// arithmetic keyed by source id.
type engine int

const (
	// perSource runs one traversal per source, parallel across sources: the
	// direction-optimising (push/pull) BFS on unweighted graphs, Dial's
	// bucket queue on weighted ones (pull sweeps need unit weights).
	perSource engine = iota
	// batched packs sources into ≤64-wide bit-parallel sweeps that share
	// edge scans (bfs.RunBatches*, bfs.MultiSourceW*) and fans the batches
	// out across the workers.
	batched
	// frontier runs the sources one after another and splits each
	// traversal's frontier levels (BFS) or bucket relaxations (Dial) across
	// the workers: the transposed fan-out, for units with fewer sources
	// than workers.
	frontier
)

func (e engine) String() string {
	switch e {
	case batched:
		return "batched"
	case frontier:
		return "frontier"
	default:
		return "per-source"
	}
}

// batchMinSources is the batching threshold: below 8 sources in a unit a
// 64-lane sweep mostly carries empty lanes. BENCH_traversal.json (recorded
// at 53dd37a, num_cpu=1) has per-source at 0.51–0.96x of this policy on all
// four families at 20% sampling; the value 8 itself was not swept.
const batchMinSources = 8

// frontierMinNodes is the floor below which a traversal's levels are too
// small for a per-level fan-out to pay. BENCH_frontier.json (num_cpu=1)
// has the frontier engine at 1.20–1.24x of per-source on the community and
// social stand-ins and 0.84–0.85x on web and road, all far above this
// floor; no host with more than one CPU has measured the floor itself.
const frontierMinNodes = 1 << 12

// engineFor is the traversal policy: the engine for a unit of n nodes that
// carries k sampled sources, at the given worker count. Batching wins as
// soon as enough sources share the unit. Otherwise the frontier engine runs
// when fewer than half the workers would have a source under per-source
// parallelism and the unit is large enough to amortise the per-level
// fan-out. Everything else runs per-source.
func engineFor(k, workers, n int) engine {
	switch {
	case k >= batchMinSources:
		return batched
	case workers > 1 && k > 0 && 2*k <= workers && n >= frontierMinNodes:
		return frontier
	}
	return perSource
}

// chooseEngine is what every estimator calls. It is engineFor; tests swap
// it to pin one engine and restore it afterwards.
var chooseEngine = engineFor

// SingleSourceFrontier reports whether one traversal at a time over an
// n-node graph should use the frontier-parallel engine at the given worker
// count. It is the traversal policy with k = 1, for callers outside this
// package that verify candidates one BFS at a time (topk).
func SingleSourceFrontier(workers, n int) bool {
	return chooseEngine(1, workers, n) == frontier
}

// clusterOrder returns the order in which the batched engine should take
// sources, or nil to keep sample-draw order. Sources are clustered only when
// they span more than one batch (k > bfs.MSBFSWidth): one batch has a fixed
// composition, so reordering it is pure overhead. BENCH_batching.json
// (recorded at 53dd37a, num_cpu=1) has clustering at 1.27–1.53x of
// sample-draw order for random sampling on all four families, and within
// noise (0.95–1.05x) for the cumulative estimator.
//
// The order sorts sources by pos, their position in a BFS ordering of the
// traversal graph, ties by index, so consecutive runs (one batch each) cover
// one neighbourhood and the 64 lane frontiers merge after a few hops. pos is
// called only when clustering. Accumulation stays keyed by source id, so the
// reorder changes no output integer.
func clusterOrder(sources []graph.NodeID, pos func() []graph.NodeID) []int {
	if len(sources) <= bfs.MSBFSWidth {
		return nil
	}
	p := pos()
	order := make([]int, len(sources))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := p[sources[order[a]]], p[sources[order[b]]]
		if pa != pb {
			return pa < pb
		}
		return order[a] < order[b]
	})
	return order
}

// permuted returns xs rearranged by order (xs itself when order is nil).
func permuted(xs []graph.NodeID, order []int) []graph.NodeID {
	if order == nil {
		return xs
	}
	out := make([]graph.NodeID, len(order))
	for i, j := range order {
		out[i] = xs[j]
	}
	return out
}
