// Package par contains the small set of parallel-execution helpers the rest
// of the system is built on: a bounded parallel-for over an index range and
// a dynamic (work-stealing-ish, chunk-grabbing) variant for irregular work
// such as BFS-per-source, where per-item cost varies by orders of magnitude.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// group joins the worker goroutines of one par call. Like a
// sync.WaitGroup, except that it keeps the first panic any worker raises and
// re-raises it from wait on the caller's goroutine: an unrecovered panic on
// a worker goroutine would end the process, while on the caller it unwinds
// to whatever recover the caller has (bricsd answers 500).
type group struct {
	wg    sync.WaitGroup
	once  sync.Once
	first any
}

// spawn runs fn on a new worker goroutine.
func (g *group) spawn(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if v := recover(); v != nil {
				g.once.Do(func() { g.first = v })
			}
		}()
		fn()
	}()
}

// wait joins every worker, then re-raises the first worker panic, if any.
func (g *group) wait() {
	g.wg.Wait()
	if g.first != nil {
		panic(g.first)
	}
}

// Workers normalises a worker-count option: values < 1 mean "use
// GOMAXPROCS".
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// For runs fn(i) for every i in [0, n) using the given number of workers.
// Iterations are distributed in contiguous static blocks, which is the right
// schedule for uniform per-item cost (e.g. per-node post-processing).
// workers < 1 selects GOMAXPROCS. For is a no-op when n <= 0. A panic in fn
// is re-raised on the caller once every worker has returned; the same holds
// for every other helper in this package.
func For(n, workers int, fn func(i int)) {
	workers = Workers(workers)
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var g group
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		g.spawn(func() {
			for i := lo; i < hi; i++ {
				fn(i)
			}
		})
	}
	g.wait()
}

// blockSize returns the contiguous block length of the static schedule
// shared by For, ForBlocks and PrefixSum: ⌈n/workers⌉. Deterministic in
// (n, workers), which lets two passes over the same range agree on block
// boundaries.
func blockSize(n, workers int) int {
	return (n + workers - 1) / workers
}

// NumBlocks returns the number of blocks ForBlocks will invoke for an
// n-item range at the given worker count — callers that carry a per-block
// accumulator (counts for a prefix sum, partial reductions) size it with
// this.
func NumBlocks(n, workers int) int {
	workers = Workers(workers)
	if n <= 0 {
		return 0
	}
	if workers > n {
		workers = n
	}
	chunk := blockSize(n, workers)
	return (n + chunk - 1) / chunk
}

// ForBlocks runs fn(block, lo, hi) once per contiguous block of the static
// schedule, one block per worker — the low-overhead variant of For for
// memset/copy/count-style loops where a closure call per element would
// dominate. Block boundaries are deterministic in (n, workers); block
// indices are dense in [0, NumBlocks(n, workers)).
func ForBlocks(n, workers int, fn func(block, lo, hi int)) {
	workers = Workers(workers)
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	chunk := blockSize(n, workers)
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var g group
	for b := 0; b*chunk < n; b++ {
		lo := b * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		g.spawn(func() { fn(b, lo, hi) })
	}
	g.wait()
}

// FillInt32 sets every element of a to v across workers — the memset idiom
// the graph kernels repeat (distance rows, discovery tags, parent arrays)
// lifted into one helper. The static block schedule matches ForBlocks.
func FillInt32(a []int32, v int32, workers int) {
	ForBlocks(len(a), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = v
		}
	})
}

// PrefixSum converts a into its inclusive prefix sum in place
// (a[i] becomes a[0]+…+a[i]) and returns the total. The parallel schedule
// is the usual three-phase scan — per-block sums, a sequential scan of the
// block sums, then a per-block sweep — and integer addition is associative,
// so the result is bit-identical for every worker count. Small inputs run
// sequentially; CSR offset construction is the intended caller.
func PrefixSum(a []int64, workers int) int64 {
	n := len(a)
	workers = Workers(workers)
	if workers == 1 || n < 4096 {
		var run int64
		for i := range a {
			run += a[i]
			a[i] = run
		}
		return run
	}
	nb := NumBlocks(n, workers)
	sums := make([]int64, nb)
	ForBlocks(n, workers, func(b, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += a[i]
		}
		sums[b] = s
	})
	var total int64
	for b := range sums {
		s := sums[b]
		sums[b] = total
		total += s
	}
	ForBlocks(n, workers, func(b, lo, hi int) {
		run := sums[b]
		for i := lo; i < hi; i++ {
			run += a[i]
			a[i] = run
		}
	})
	return total
}

// ForDynamic runs fn(worker, i) for every i in [0, n) with dynamic
// chunk-grabbing scheduling: each worker atomically claims the next chunk of
// the given size. Use for irregular work such as one BFS per sampled source,
// where a static schedule would leave workers idle behind one giant block.
// The worker index lets callers keep per-worker scratch (distance arrays,
// queues) without locking.
func ForDynamic(n, workers, chunk int, fn func(worker, i int)) {
	workers = Workers(workers)
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var g group
	for worker := 0; worker < workers; worker++ {
		g.spawn(func() {
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(worker, i)
				}
			}
		})
	}
	g.wait()
}
