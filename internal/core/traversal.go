package core

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bfs"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
)

// sweepWidth is the traversal policy: the number of lanes each bit-parallel
// sweep (bfs.MultiSourceW) of a traversal unit carries when the unit has k
// sampled sources. A unit is one biconnected block of the reduced graph, or
// the whole reduced graph on a one-block plan. Every width
// produces bit-identical farness for the same seed: BFS levels and
// shortest-path distances are unique, and every accumulator on the path is
// integer arithmetic keyed by source id. Tests swap the hook (1-lane sweeps
// advance one source at a time) and restore it afterwards.
var sweepWidth = func(int) int { return bfs.MSBFSWidth }

// clusterOrder returns the order in which a unit's sweeps should take
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

// traversalTask is one entry of the driver's task pool: one sweep of unit
// u, lane i carrying srcs[i].
type traversalTask struct {
	u    int
	srcs []graph.NodeID
}

// laneSink consumes the sweeps of one traversal worker. Between start and
// finish every (lane, node) pair the sweep reaches arrives exactly once,
// packed as lane masks (see bfs.MultiSourceW); finish is called only for a
// sweep that was not interrupted, so a sink that keeps a sweep's sums apart
// until finish lands each sweep whole or not at all.
type laneSink struct {
	start  func(u int, srcs []graph.NodeID)
	visit  func(v graph.NodeID, mask uint64, d int32)
	finish func()
}

// traverse is the estimator's one traversal driver. Per unit it clusters
// the sources and cuts them into sweeps of the policy's width, and queues
// the sweeps on one dynamic task pool. The sources for which first reports
// true (a block's cut vertices) form sweeps of their own, which run before
// all others on one worker; on several, the costliest other sweep starts
// beside them. Every sweep reaches the sink newSink built for its
// worker index in [0, workers), once. Sweeps are whole: once ctx is done no
// further sweep is finished (checked after every sweep), and the
// ErrCanceled-wrapping error tells the caller to discard or degrade what it
// accumulated. A run whose every sweep finished returns nil even if ctx is
// done by then: its accumulation is complete. An error from the "bfs.batch"
// fault point at the start of every sweep aborts the run: the first one is
// returned, its task finishes no sweep, and tasks not yet started are
// skipped. Callers key their
// accumulation by source, so the sweep width and the task order change no
// output integer.
func traverse(ctx context.Context, units []unit, workers int,
	first func(u int, src graph.NodeID) bool, newSink func(worker int) laneSink) error {
	workers = par.Workers(workers)
	var tasks, rest []traversalTask
	for ui, un := range units {
		if len(un.sources) == 0 {
			continue
		}
		width := sweepWidth(len(un.sources))
		var head, tail []graph.NodeID
		for _, src := range un.sources {
			if first(ui, src) {
				head = append(head, src)
			} else {
				tail = append(tail, src)
			}
		}
		tasks = appendTasks(tasks, ui, width, head, un, workers)
		rest = appendTasks(rest, ui, width, tail, un, workers)
	}
	// Within each group the costliest sweeps go first, so the pool does not
	// end on one long sweep. With several workers the costliest of the rest
	// also starts at once, beside the first group: a worker that joins the
	// pool late would otherwise leave it to start behind the first group.
	byCost := func(ts []traversalTask) {
		sort.SliceStable(ts, func(i, j int) bool { return taskCost(units, ts[i]) > taskCost(units, ts[j]) })
	}
	byCost(tasks)
	byCost(rest)
	if workers > 1 && len(tasks) > 0 && len(rest) > 0 {
		tasks = append([]traversalTask{rest[0]}, tasks...)
		rest = rest[1:]
	}
	tasks = append(tasks, rest...)

	var faultErr atomic.Pointer[error] // the first fault-point error
	var landed atomic.Int64            // sweeps finished
	done := ctx.Done()
	scratch := make([]*bfs.MSScratch, min(workers, len(tasks)))
	sinks := make([]laneSink, len(scratch))
	for i := range scratch {
		scratch[i] = scratchPool.Get().(*bfs.MSScratch)
		scratch[i].SetDone(done)
		defer putScratch(scratch[i])
		sinks[i] = newSink(i)
	}
	err := par.ForDynamicCtx(ctx, len(tasks), len(scratch), 1, func(worker, ti int) {
		if faultErr.Load() != nil {
			return
		}
		if err := fault.Checkpoint(ctx, "bfs.batch"); err != nil {
			faultErr.CompareAndSwap(nil, &err)
			return
		}
		t, sink := tasks[ti], sinks[worker]
		un := units[t.u]
		sink.start(t.u, t.srcs)
		bfs.MultiSourceW(un.g, un.unweighted, t.srcs, scratch[worker], sink.visit)
		if par.Interrupted(done) {
			return // canceled: the sweep may be partial; land nothing
		}
		sink.finish()
		landed.Add(1)
	})
	if ferr := faultErr.Load(); ferr != nil {
		return *ferr
	}
	if landed.Load() == int64(len(tasks)) {
		return nil
	}
	return err
}

// appendTasks cuts srcs, sources of unit ui, into sweeps of the given width
// in clustered order.
func appendTasks(tasks []traversalTask, ui, width int, srcs []graph.NodeID, un unit, workers int) []traversalTask {
	srcs = permuted(srcs, clusterOrder(srcs, func() []graph.NodeID {
		return un.positions(workers)
	}))
	for base := 0; base < len(srcs); base += width {
		tasks = append(tasks, traversalTask{ui, srcs[base:min(base+width, len(srcs))]})
	}
	return tasks
}

// taskCost is a sweep's cost in (lane, node or edge) steps of its unit.
func taskCost(units []unit, t traversalTask) int {
	g := units[t.u].g
	return len(t.srcs) * (g.NumNodes() + g.NumEdges())
}

// laneRows returns k rows of width w, one after another, every entry -1,
// reusing buf: the anchor rows a sink captures a sweep's lanes into.
func laneRows(buf []int32, k, w int) []int32 {
	buf = slices.Grow(buf[:0], k*w)[:k*w]
	for i := range buf {
		buf[i] = -1
	}
	return buf
}

// scratchPool keeps sweep scratch across runs, so the buffers a sweep grows
// as it goes (the masked Dial's bucket ring above all) are grown once, not
// once per run. A plan per graph would not help a server that builds a new
// plan on every mutation.
var scratchPool = sync.Pool{New: func() any { return new(bfs.MSScratch) }}

// putScratch returns sweep scratch to the pool.
func putScratch(s *bfs.MSScratch) {
	s.SetDone(nil)
	scratchPool.Put(s)
}
