package core

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/par"
)

// Progress tracks a running estimation's sampling progress and, when the run
// is an anytime run (Options.Anytime), builds partial snapshots of it on
// demand. A Progress may be polled concurrently with the run it observes;
// all methods are safe for concurrent use. The zero value is ready to use.
type Progress struct {
	planned   atomic.Int64
	completed atomic.Int64
	assemble  atomic.Pointer[func() *Result]

	// OnAdvance, when non-nil, is called after every completed source with
	// the new completed count and the planned total. It must be set before
	// the run starts and must be fast and non-blocking; it runs on worker
	// goroutines, outside the run's locks, so it may take a Snapshot. Tests
	// use it to cancel a run at an exact progress point.
	OnAdvance func(completed, planned int64)
}

// Planned reports the total number of traversal sources the run intends to
// complete (0 until sampling has been decided).
func (p *Progress) Planned() int64 { return p.planned.Load() }

// Completed reports how many sources have been fully accumulated so far.
func (p *Progress) Completed() int64 { return p.completed.Load() }

// Fraction reports Completed/Planned in [0,1]; 0 while Planned is unknown.
func (p *Progress) Fraction() float64 {
	pl := p.planned.Load()
	if pl <= 0 {
		return 0
	}
	f := float64(p.completed.Load()) / float64(pl)
	if f > 1 {
		f = 1
	}
	return f
}

// Snapshot builds the partial result of the sources completed so far: the
// same result the run would return if it were canceled at this point. It
// returns nil when the run is not anytime or has no partial yet: nothing
// has completed, or, on a plan with cut vertices, not every cut sweep has
// landed. Each call assembles a fresh Result, which the caller owns; the
// run itself is not interrupted.
func (p *Progress) Snapshot() *Result {
	if f := p.assemble.Load(); f != nil {
		return (*f)()
	}
	return nil
}

// anyState is the bookkeeping an anytime run threads through its traversal
// fan-out. Consistency contract: workers hold mu.RLock while they land one
// sweep — its accumulators, its sources' done marks and their counts — so
// shared accumulators only ever move between assemblies by whole sweeps,
// and Progress.Completed never lags a snapshot; an assembly (the snapshot,
// or a canceled run's partial) holds mu.Lock while it reads them. After the
// fan-out has returned (ForDynamicCtx and the traversal driver join their
// workers before returning an error) the accumulators are quiescent, and
// the whole run's assembly reads them without the lock.
type anyState struct {
	mu      sync.RWMutex
	planned int64
	prog    *Progress // may be nil: anytime without an observer

	completed atomic.Int64

	// doneSrc[original id] = this source's row has been fully accumulated.
	// Written under mu.RLock; indices are distinct per source.
	doneSrc []bool
}

const maxLandmarks = 4

func newAnyState(n int, planned int, prog *Progress) *anyState {
	a := &anyState{planned: int64(planned), prog: prog, doneSrc: make([]bool, n)}
	if prog != nil {
		prog.planned.Store(int64(planned))
	}
	return a
}

// complete counts one completed source in the run's and the observer's
// counters and returns the new count.
func (a *anyState) complete() int64 {
	c := a.completed.Add(1)
	if a.prog != nil {
		// Workers get here out of order: publish c only if it is larger, so
		// a late smaller count never overwrites the final one.
		for old := a.prog.completed.Load(); c > old && !a.prog.completed.CompareAndSwap(old, c); {
			old = a.prog.completed.Load()
		}
	}
	return c
}

// advance hands a completed count to the observer's OnAdvance hook. Must be
// called after mu.RUnlock: the hook may take a snapshot.
func (a *anyState) advance(c int64) {
	if a.prog != nil && a.prog.OnAdvance != nil {
		a.prog.OnAdvance(c, a.planned)
	}
}

// landmarkRows runs a plain BFS on g from each of the first maxLandmarks
// sources and returns their distance rows: the landmarks of partialBounds.
// A canceled run still needs them for its partial, so they take no context.
func landmarkRows(g *graph.Graph, sources []graph.NodeID, workers int) [][]int32 {
	sources = sources[:min(len(sources), maxLandmarks)]
	rows := make([][]int32, len(sources))
	par.ForDynamic(len(sources), workers, 1, func(_, i int) {
		rows[i] = make([]int32, g.NumNodes())
		bfs.Distances(g, sources[i], rows[i], nil)
	})
	return rows
}

// partialBounds computes proven farness bounds for every vertex whose own
// traversal did not complete (done[v] false). For such a vertex v,
//
//	farness(v) = Σ_{s done} d(v,s) + Σ_{w not done, w≠v} d(v,w)
//
// where the first term is exactly acc[v] when the run accumulated whole
// rows of the original graph (zero otherwise, with done all false). Each
// unknown term is bracketed through any landmark row ℓ (a distance row of
// the original graph, see landmarkRows) by the triangle inequality:
//
//	max(1, |dℓ(v) − dℓ(w)|)  ≤  d(v,w)  ≤  dℓ(v) + dℓ(w)
//
// (distinct vertices of a connected unweighted graph are at distance ≥ 1).
// Summed over the not-done population U with sorting + prefix sums this is
// O(n log n) per landmark; the bound takes the max (lower) / min (upper)
// over all landmarks. The entries of done vertices are left zero: the
// caller has their exact farness.
func partialBounds(acc []int64, done []bool, landmarks [][]int32) (low, high []float64) {
	n := len(acc)
	low = make([]float64, n)
	high = make([]float64, n)
	// The not-done population, shared by every landmark pass.
	u := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !done[v] {
			low[v], high[v] = math.Inf(-1), math.Inf(1)
			u = append(u, v)
		}
	}
	if len(u) == 0 {
		return low, high
	}
	vals := make([]int64, len(u))
	prefix := make([]int64, len(u)+1)
	for _, lmRow := range landmarks {
		for i, v := range u {
			vals[i] = int64(lmRow[v])
		}
		slices.Sort(vals)
		for i, x := range vals {
			prefix[i+1] = prefix[i] + x
		}
		sumU := prefix[len(u)]
		m := int64(len(u))
		for _, v := range u {
			x := int64(lmRow[v])
			// cLE values ≤ x with sum sumLE; cLT values < x.
			cLE, _ := slices.BinarySearch(vals, x+1)
			cLT, _ := slices.BinarySearch(vals, x)
			sumLE := prefix[cLE]
			// T = Σ_{w∈U} |x − dℓ(w)|  (v's own term is 0).
			t := x*int64(cLE) - sumLE + (sumU - sumLE) - x*(m-int64(cLE))
			ties := int64(cLE - cLT) // values == x, including v itself
			lowC := t + ties - 1     // each zero-gap pair still has d ≥ 1
			highC := (m-1)*x + (sumU - x)
			lo := float64(acc[v] + lowC)
			hi := float64(acc[v] + highC)
			if lo > low[v] {
				low[v] = lo
			}
			if hi < high[v] {
				high[v] = hi
			}
		}
	}
	return low, high
}

// finishPartial re-establishes the partial invariants after exact
// propagation may have rewritten values: exact vertices collapse their
// bounds, estimated vertices are clamped back inside theirs.
func (r *Result) finishPartial() {
	if !r.Partial || r.Low == nil {
		return
	}
	for v := range r.Farness {
		if r.Exact[v] {
			r.Low[v], r.High[v] = r.Farness[v], r.Farness[v]
			continue
		}
		if r.Farness[v] < r.Low[v] {
			r.Farness[v] = r.Low[v]
		}
		if r.Farness[v] > r.High[v] {
			r.Farness[v] = r.High[v]
		}
	}
}

// canceledErr reports whether err came from context cancellation or deadline
// expiry (the only errors an anytime run degrades into a partial result).
func canceledErr(err error) bool {
	return err != nil && errors.Is(err, ErrCanceled)
}
