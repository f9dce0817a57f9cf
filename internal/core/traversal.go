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
	// edge scans (bfs.MultiSourceW) and fans the batches out across the
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

// laneSink consumes the sweeps of one traversal worker. A sweep is one
// task: up to 64 sources of unit u, lane i carrying srcs[i], on the batched
// engine, or one source on the per-source engine, whose finished row is
// handed over as a one-lane sweep (whole is then true). Between start and
// finish every reached (lane, node) pair arrives exactly once, packed as
// lane masks (see bfs.MultiSourceW); finish is called only for a sweep that
// was not interrupted, so a sink that keeps a sweep's sums apart until
// finish lands each sweep whole or not at all.
type laneSink struct {
	start  func(u int, srcs []graph.NodeID, whole bool)
	visit  func(v graph.NodeID, mask uint64, d int32)
	finish func()
}

// traverse is the one traversal driver of every estimator. Per unit it asks
// the policy for an engine, clusters and cuts batched sources into ≤64-wide
// sweeps, and queues the work on one dynamic task pool. The sources for
// which first reports true (first may be nil) form sweeps of their own,
// which run before all others on one worker; on several, the costliest
// other sweep starts beside them. Every sweep reaches the sink newSink built
// for its worker index in [0, workers), once. Sweeps are whole: once ctx is
// done no further sweep is finished (checked after every sweep), and the
// ErrCanceled-wrapping error tells the caller to discard or degrade what it
// accumulated. An error from a kernel or from the "bfs.batch" fault point at
// the start of every batched task aborts the run: the first one is
// returned, its task finishes no sweep, and tasks not yet started are
// skipped. Callers key their accumulation by source, so the engine and the
// task order change no output integer.
func traverse(ctx context.Context, units []unit, workers int,
	first func(u int, src graph.NodeID) bool, newSink func(worker int) laneSink) error {
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
		head, tail := un.sources, []graph.NodeID(nil)
		if first != nil {
			head, tail = nil, nil
			for _, src := range un.sources {
				if first(ui, src) {
					head = append(head, src)
				} else {
					tail = append(tail, src)
				}
			}
		}
		tasks = appendTasks(tasks, ui, e, head, un, workers)
		rest = appendTasks(rest, ui, e, tail, un, workers)
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

	var kernelErr atomic.Pointer[error] // the first kernel or fault-point error
	failed := func(err error) bool {
		if err == nil {
			return false
		}
		kernelErr.CompareAndSwap(nil, &err)
		return true
	}
	done := ctx.Done()
	scratch := make([]*traversalScratch, min(workers, len(tasks)))
	sinks := make([]laneSink, len(scratch))
	for i := range scratch {
		scratch[i] = getScratch(maxN, maxW, uses, done)
		defer putScratch(scratch[i])
		sinks[i] = newSink(i)
	}
	err := par.ForDynamicCtx(ctx, len(tasks), len(scratch), 1, func(worker, ti int) {
		if kernelErr.Load() != nil {
			return
		}
		t, s, sink := tasks[ti], scratch[worker], sinks[worker]
		un := units[t.u]
		if t.e == batched {
			if failed(fault.Checkpoint(ctx, "bfs.batch")) {
				return
			}
			sink.start(t.u, t.srcs, false)
			bfs.MultiSourceW(un.g, un.unweighted, t.srcs, s.ms, sink.visit)
			if par.Interrupted(done) {
				return // canceled: the sweep may be partial; land nothing
			}
			sink.finish()
			return
		}
		src, dist := t.srcs[0], s.s.Dist[:un.g.NumNodes()]
		var err error
		if un.unweighted {
			err = bfs.WHybridDistancesBFSCtx(ctx, un.g, src, dist, s.s)
		} else {
			err = bfs.WDistancesCtx(ctx, un.g, src, dist, s.s.B)
		}
		if failed(err) || par.Interrupted(done) {
			return // partial row
		}
		sink.start(t.u, t.srcs, true)
		for v, d := range dist {
			if d != bfs.Unreached {
				sink.visit(graph.NodeID(v), 1, d)
			}
		}
		sink.finish()
	})
	if kerr := kernelErr.Load(); kerr != nil {
		return *kerr
	}
	return err
}

// appendTasks cuts srcs, sources of unit ui, into tasks for engine e: one
// per source, or ≤64-wide batches in clustered order.
func appendTasks(tasks []traversalTask, ui int, e engine, srcs []graph.NodeID, un unit, workers int) []traversalTask {
	width := 1
	if e == batched {
		srcs = permuted(srcs, clusterOrder(srcs, func() []graph.NodeID {
			return un.positions(workers)
		}))
		width = bfs.MSBFSWidth
	}
	for base := 0; base < len(srcs); base += width {
		tasks = append(tasks, traversalTask{ui, e, srcs[base:min(base+width, len(srcs))]})
	}
	return tasks
}

// taskCost is a sweep's cost in (lane, node or edge) steps of its unit.
func taskCost(units []unit, t traversalTask) int {
	g := units[t.u].g
	return len(t.srcs) * (g.NumNodes() + g.NumEdges())
}

// traversalScratch is one worker's reusable traversal state, allocated only
// for the engines a run uses and grown to its largest unit.
type traversalScratch struct {
	s  *bfs.Scratch   // per-source engine: distance row and queues
	sN int            // the node count s was made for
	sW int32          // and its maximum weight
	ms *bfs.MSScratch // batched engine: lane masks, frontiers, bucket ring
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

// scratchPool keeps traversal scratch across runs, so the buffers a sweep
// grows as it goes (the masked Dial's bucket ring above all) are grown once,
// not once per run. A plan per graph would not help a server that builds a
// new plan on every mutation.
var scratchPool = sync.Pool{New: func() any { return new(traversalScratch) }}

// getScratch takes scratch from the pool, sized for units of up to maxN
// nodes and weight maxW; the batched engine's sweeps stop when done fires.
func getScratch(maxN int, maxW int32, uses [2]bool, done <-chan struct{}) *traversalScratch {
	s := scratchPool.Get().(*traversalScratch)
	if uses[perSource] && (s.s == nil || s.sN < maxN || s.sW < maxW) {
		s.s, s.sN, s.sW = bfs.NewScratch(maxN, maxW), maxN, maxW
	}
	if uses[batched] {
		if s.ms == nil {
			s.ms = bfs.NewMSScratch(maxN) // grows itself per sweep
		}
		s.ms.SetDone(done)
	}
	return s
}

// putScratch returns scratch to the pool.
func putScratch(s *traversalScratch) {
	if s.ms != nil {
		s.ms.SetDone(nil)
	}
	scratchPool.Put(s)
}
