package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bfs"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
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
	// edge scans (bfs.MultiSourceWRows) and fans the batches out across the
	// workers.
	batched
)

func (e engine) String() string {
	if e == batched {
		return "batched"
	}
	return "per-source"
}

// batchMinSources is the batching threshold: below 8 sources in a unit a
// 64-lane sweep mostly carries empty lanes. BENCH_traversal.json (recorded
// at 53dd37a, num_cpu=1) has per-source at 0.51–0.96x of this policy on all
// four families at 20% sampling; the value 8 itself was not swept.
const batchMinSources = 8

// engineFor is the traversal policy: the engine for a unit that carries k
// sampled sources. Batching wins as soon as enough sources share the unit;
// everything else runs per-source.
func engineFor(k int) engine {
	if k >= batchMinSources {
		return batched
	}
	return perSource
}

// chooseEngine is what every estimator calls. It is engineFor; tests swap
// it to pin one engine and restore it afterwards.
var chooseEngine = engineFor

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

// unitGraph is a traversal unit's graph as a Plan holds it: the graph, its
// cached Unweighted(), and its BFS positions (graph.BFSOrder), computed by
// the first run that clusters the unit's sources and shared by every later
// one.
type unitGraph struct {
	g          *graph.WGraph
	unweighted bool
	posOnce    sync.Once
	pos        []graph.NodeID
}

func newUnitGraph(g *graph.WGraph) *unitGraph {
	return &unitGraph{g: g, unweighted: g.Unweighted()}
}

// positions returns the unit's BFS positions, computing them on first use.
// graph.BFSOrder is the same at every worker count.
func (u *unitGraph) positions(workers int) []graph.NodeID {
	u.posOnce.Do(func() { u.pos = graph.BFSOrder(u.g, workers) })
	return u.pos
}

// unit is one traversal unit: a plan's graph and one run's sources to
// traverse it from, in that graph's ids.
type unit struct {
	*unitGraph
	sources []graph.NodeID
}

// traversalTask is one entry of the driver's task pool: a single source
// (per-source engine) or a ≤64-wide batch (batched engine), all in unit u.
type traversalTask struct {
	u    int
	e    engine
	srcs []graph.NodeID
}

// traverse is the one traversal driver of every estimator. Per
// unit it asks the policy for an engine, clusters and cuts batched sources
// into ≤64-wide sweeps, and queues the work on one dynamic task pool; tasks
// holding a source for which first reports true (first may be nil) run
// before the others. Every (unit, source) distance row, in the unit's ids,
// reaches row exactly once from a stable worker index in [0, workers); dist
// aliases the worker's scratch and is valid only during the call. Rows are
// whole: once ctx is done no further row is delivered (checked before every
// lane), and the ErrCanceled-wrapping error tells the caller to discard or
// degrade what it accumulated. An error from a kernel or from the "bfs.batch"
// fault point at the start of every batched task aborts the run: the first
// one is returned, its task delivers no row, and tasks not yet started are
// skipped. Callers key their accumulation by source, so the engine and the
// task order change no output integer.
func traverse(ctx context.Context, units []unit, workers int,
	first func(u int, src graph.NodeID) bool,
	row func(worker, u int, src graph.NodeID, dist []int32)) error {
	workers = par.Workers(workers)
	var tasks, rest []traversalTask
	var uses [2]bool // indexed by engine
	maxN, maxW := 0, int32(1)
	for ui, un := range units {
		if len(un.sources) == 0 {
			continue
		}
		maxN, maxW = max(maxN, un.g.NumNodes()), max(maxW, un.g.MaxWeight())
		e := chooseEngine(len(un.sources))
		uses[e] = true
		srcs, width := un.sources, 1
		if e == batched {
			srcs = permuted(srcs, clusterOrder(srcs, func() []graph.NodeID {
				return un.positions(workers)
			}))
			width = bfs.MSBFSWidth
		}
		for base := 0; base < len(srcs); base += width {
			t := traversalTask{ui, e, srcs[base:min(base+width, len(srcs))]}
			if first != nil && holdsFirst(t, first) {
				tasks = append(tasks, t)
			} else {
				rest = append(rest, t)
			}
		}
	}
	tasks = append(tasks, rest...)

	var kernelErr atomic.Pointer[error] // the first kernel or fault-point error
	failed := func(err error) bool {
		if err == nil {
			return false
		}
		kernelErr.CompareAndSwap(nil, &err)
		return true
	}
	done := ctx.Done()
	scratch := make([]traversalScratch, min(workers, len(tasks)))
	for i := range scratch {
		scratch[i] = newTraversalScratch(maxN, maxW, uses, done)
	}
	err := par.ForDynamicCtx(ctx, len(tasks), len(scratch), 1, func(worker, ti int) {
		if kernelErr.Load() != nil {
			return
		}
		t, s := tasks[ti], &scratch[worker]
		un := units[t.u]
		n := un.g.NumNodes()
		if t.e == batched {
			if failed(fault.Checkpoint(ctx, "bfs.batch")) {
				return
			}
			rows := s.rows[:len(t.srcs)]
			for i := range rows {
				rows[i] = s.slab[i*n : (i+1)*n]
			}
			bfs.MultiSourceWRows(un.g, un.unweighted, t.srcs, s.ms, rows)
			for lane, src := range t.srcs {
				if par.Interrupted(done) {
					return // canceled: rows may be partial; deliver no more
				}
				row(worker, t.u, src, rows[lane])
			}
			return
		}
		src, dist := t.srcs[0], s.s.Dist[:n]
		var err error
		if un.unweighted {
			err = bfs.WHybridDistancesBFSCtx(ctx, un.g, src, dist, s.s)
		} else {
			err = bfs.WDistancesCtx(ctx, un.g, src, dist, s.s.B)
		}
		if failed(err) || par.Interrupted(done) {
			return // partial row
		}
		row(worker, t.u, src, dist)
	})
	if kerr := kernelErr.Load(); kerr != nil {
		return *kerr
	}
	return err
}

// holdsFirst reports whether any source of t is one the caller wants first.
func holdsFirst(t traversalTask, first func(u int, src graph.NodeID) bool) bool {
	for _, s := range t.srcs {
		if first(t.u, s) {
			return true
		}
	}
	return false
}

// traversalScratch is one worker's reusable traversal state, sized to the
// largest unit and allocated only for the engines the run uses.
type traversalScratch struct {
	s    *bfs.Scratch   // per-source engine: distance row and queues
	ms   *bfs.MSScratch // batched engine: lane masks and frontiers
	slab []int32        // batched engine: 64 distance rows
	rows [][]int32
}

func newTraversalScratch(maxN int, maxW int32, uses [2]bool, done <-chan struct{}) traversalScratch {
	var s traversalScratch
	if uses[perSource] {
		s.s = bfs.NewScratch(maxN, maxW)
	}
	if uses[batched] {
		s.ms = bfs.NewMSScratch(maxN, maxW)
		s.ms.SetDone(done)
		s.slab = make([]int32, bfs.MSBFSWidth*maxN)
		s.rows = make([][]int32, bfs.MSBFSWidth)
	}
	return s
}

// plainRows runs one plain BFS per source over the unreduced graph g,
// parallel across sources, and hands row the i-th source's whole distance
// row (valid only during the call). It serves the traversals that have no
// reduced-graph unit: the global estimator's augmentation sources and the
// landmark rows of a partial result (landmarkRows).
func plainRows(ctx context.Context, g *graph.Graph, sources []graph.NodeID, workers int, row func(worker, i int, dist []int32)) error {
	n := g.NumNodes()
	dist := make([][]int32, min(par.Workers(workers), len(sources)))
	qs := make([]*queue.FIFO, len(dist))
	for i := range dist {
		dist[i], qs[i] = make([]int32, n), queue.NewFIFO(n)
	}
	return par.ForDynamicCtx(ctx, len(sources), len(dist), 1, func(worker, i int) {
		bfs.Distances(g, sources[i], dist[worker], qs[worker])
		row(worker, i, dist[worker])
	})
}
