package bfs

import (
	"context"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
)

// This file holds the frontier-parallel ("edge-map", in GBBS terms)
// traversal engine: a single traversal whose per-level work is split across
// workers, for the cases where source-level parallelism has nothing to fan
// out over — exact all-sources ground truth, topk verification BFS, a
// low-sample-count run on one giant component. Two kernels share the
// FrontierScratch state:
//
//   - frontierDone: level-synchronous BFS with direction optimisation.
//     Sparse (push) levels split the frontier into static blocks; each block
//     claims discovered nodes with a CAS from Unreached to the level and
//     collects them into a per-block buffer. Dense (pull) levels — chosen by
//     the same tuned alpha/beta rule as the per-source hybrid kernel
//     (pullLevel) — split the *node range* instead: every unvisited node
//     scans its own neighbours for a frontier member (dist == level−1) and
//     claims itself, contention-free. Either way the next frontier is
//     compacted from the per-block buffers with one par.PrefixSum over the
//     block counts and a parallel copy.
//
//   - wFrontierDone: parallel bucketed Dial. Buckets settle in increasing
//     distance exactly as in the sequential kernel; within one bucket the
//     settled nodes' edges relax in parallel with an atomic min-CAS on dist.
//     Integer weights ≥ 1 mean every push targets a strictly later bucket,
//     so draining bucket d concurrently never misses a relaxation into d.
//
// Determinism: BFS levels and shortest-path distances are unique, so
// whichever worker wins a claim writes the same value — dist (and therefore
// farness, eccentricity, every accumulated integer) is bit-identical to the
// sequential kernels at every worker count. Only the *order* of nodes inside
// the next frontier depends on the race, and that order affects nothing but
// scan order. All cross-worker accesses inside a parallel sweep go through
// sync/atomic (the race detector requires it even where the winning value is
// unique); sweeps are separated by WaitGroup barriers, so the sequential
// small-frontier path may use plain loads and stores.

// frontierSeqEdges is the per-worker edge-mass threshold below which a push
// level runs sequentially: fanning out costs a goroutine spawn per worker
// (~1 µs), which only pays once each worker has a few thousand edge scans to
// amortise it over. BFS tails and narrow waves stay on the sequential path.
const frontierSeqEdges = 2048

// FrontierScratch bundles the reusable state of the frontier-parallel
// kernels: the two frontier buffers, the per-block claim buffers the
// compaction gathers, and the weighted kernel's bucket ring. A scratch grows
// lazily to the largest (graph, worker count) it has seen and must not be
// shared between concurrent traversals; drivers that loop over sources keep
// one and reuse it.
type FrontierScratch struct {
	frontier, next []graph.NodeID
	bufs           [][]graph.NodeID // per-block claim buffers
	counts         []int64          // per-block claim counts → prefix sum
	degs           []int64          // per-block out-edge sums (Beamer mf)
	// Weighted (parallel Dial) state, allocated on first weighted use.
	ring     [][]graph.NodeID // shared bucket ring, slot = distance mod len
	settled  []graph.NodeID   // current bucket after stale filtering
	pushBufs [][]wpush        // per-block relaxation output
}

// wpush is one successful relaxation: node v was improved to distance nd and
// must enter bucket nd.
type wpush struct {
	v  graph.NodeID
	nd int32
}

// NewFrontierScratch returns an empty scratch; every buffer grows on first
// use.
func NewFrontierScratch() *FrontierScratch { return &FrontierScratch{} }

// grow sizes the unweighted buffers for an n-node graph at the given worker
// count (block count never exceeds workers; see par.NumBlocks).
func (s *FrontierScratch) grow(n, workers int) {
	if cap(s.frontier) < n {
		s.frontier = make([]graph.NodeID, 0, n)
		s.next = make([]graph.NodeID, 0, n)
	}
	if len(s.bufs) < workers {
		s.bufs = append(s.bufs, make([][]graph.NodeID, workers-len(s.bufs))...)
		s.counts = make([]int64, workers)
		s.degs = make([]int64, workers)
	}
}

// growW additionally sizes the weighted kernel's bucket ring.
func (s *FrontierScratch) growW(n, workers, ring int) {
	s.grow(n, workers)
	if len(s.ring) < ring {
		s.ring = append(s.ring, make([][]graph.NodeID, ring-len(s.ring))...)
	}
	if len(s.pushBufs) < workers {
		s.pushBufs = append(s.pushBufs, make([][]wpush, workers-len(s.pushBufs))...)
	}
	if cap(s.settled) < n {
		s.settled = make([]graph.NodeID, 0, n)
	}
}

// FrontierDistances runs the frontier-parallel BFS from src, filling dist
// like Distances. fs may be nil (scratch is then allocated); drivers looping
// over sources pass a pooled FrontierScratch.
func FrontierDistances(g *graph.Graph, src graph.NodeID, dist []int32, workers int, fs *FrontierScratch) {
	offsets, adj := g.CSR()
	frontierDone(offsets, adj, src, dist, workers, fs, nil)
}

// FrontierDistancesCtx is FrontierDistances with cooperative cancellation,
// polled once per frontier level. A non-nil return means dist is partial and
// must be discarded.
func FrontierDistancesCtx(ctx context.Context, g *graph.Graph, src graph.NodeID, dist []int32, workers int, fs *FrontierScratch) error {
	if err := fault.Checkpoint(ctx, "bfs.frontier"); err != nil {
		return err
	}
	offsets, adj := g.CSR()
	frontierDone(offsets, adj, src, dist, workers, fs, ctx.Done())
	return par.CtxErr(ctx)
}

// WFrontierDistancesCtx is the weighted-graph entry point of the frontier
// engine: the level-synchronous edge-map when every weight is 1 (unweighted
// is the caller's cached g.Unweighted()), the parallel bucketed Dial
// otherwise. dist must have length g.NumNodes(). Cancellation is polled at
// level (BFS) or bucket (Dial) boundaries.
func WFrontierDistancesCtx(ctx context.Context, g *graph.WGraph, unweighted bool, src graph.NodeID, dist []int32, workers int, fs *FrontierScratch) error {
	if err := fault.Checkpoint(ctx, "bfs.frontier"); err != nil {
		return err
	}
	wFrontierAutoDone(g, unweighted, src, dist, workers, fs, ctx.Done())
	return par.CtxErr(ctx)
}

func wFrontierAutoDone(g *graph.WGraph, unweighted bool, src graph.NodeID, dist []int32, workers int, fs *FrontierScratch, done <-chan struct{}) {
	if unweighted {
		offsets, adj, _ := g.CSR()
		frontierDone(offsets, adj, src, dist, workers, fs, done)
		return
	}
	wFrontierDone(g, src, dist, workers, fs, done)
}

// frontierDone is the level-synchronous edge-map kernel over raw CSR arrays
// (shared by the simple-graph and all-weights-one contracted-graph entry
// points) with an optional interruption channel polled once per level.
func frontierDone(offsets []int64, adj []graph.NodeID, src graph.NodeID, dist []int32, workers int, fs *FrontierScratch, done <-chan struct{}) {
	n := len(offsets) - 1
	workers = par.Workers(workers)
	if fs == nil {
		fs = NewFrontierScratch()
	}
	fs.grow(n, workers)
	par.ForBlocks(n, workers, func(_, lo, hi int) { Fill(dist[lo:hi]) })
	dist[src] = 0
	frontier := append(fs.frontier[:0], src)
	next := fs.next[:0]
	mf := offsets[src+1] - offsets[src] // out-edges of the current frontier
	mu := int64(len(adj)) - mf          // directed edges not yet explored

	for level := int32(1); len(frontier) > 0; level++ {
		if par.Interrupted(done) {
			break
		}
		var nmf int64
		switch {
		case pullLevel(mf, mu, len(frontier), n):
			// Dense pull: split the node range; each block's owner is the
			// only writer of its nodes, so claims are contention-free. A
			// neighbour in the current frontier is recognised by
			// dist == level−1 — no bitset needed, and nodes claimed this
			// level carry `level`, never level−1, so concurrent claims can't
			// be mistaken for frontier members.
			nb := par.NumBlocks(n, workers)
			par.ForBlocks(n, workers, func(b, lo, hi int) {
				buf := fs.bufs[b][:0]
				var bmf int64
				for v := lo; v < hi; v++ {
					if dist[v] != Unreached { // plain read: only this block writes [lo, hi)
						continue
					}
					for _, w := range adj[offsets[v]:offsets[v+1]] {
						if atomic.LoadInt32(&dist[w]) == level-1 {
							atomic.StoreInt32(&dist[v], level)
							buf = append(buf, graph.NodeID(v))
							bmf += offsets[v+1] - offsets[v]
							break
						}
					}
				}
				fs.bufs[b] = buf
				fs.counts[b] = int64(len(buf))
				fs.degs[b] = bmf
			})
			next, nmf = fs.compact(next, nb, workers)
		case workers == 1 || mf < frontierSeqEdges*int64(workers):
			// Small frontier: a sequential sweep avoids the fan-out cost.
			// The preceding sweep's WaitGroup barrier makes plain accesses
			// race-free.
			next = next[:0]
			for _, u := range frontier {
				for _, w := range adj[offsets[u]:offsets[u+1]] {
					if dist[w] == Unreached {
						dist[w] = level
						next = append(next, w)
						nmf += offsets[w+1] - offsets[w]
					}
				}
			}
		default:
			// Sparse push: split the frontier; discoveries claim their node
			// with a CAS from Unreached to the (unique) level value, so
			// whichever worker wins writes the same distance.
			nb := par.NumBlocks(len(frontier), workers)
			par.ForBlocks(len(frontier), workers, func(b, lo, hi int) {
				buf := fs.bufs[b][:0]
				var bmf int64
				for _, u := range frontier[lo:hi] {
					for _, w := range adj[offsets[u]:offsets[u+1]] {
						if atomic.LoadInt32(&dist[w]) == Unreached &&
							atomic.CompareAndSwapInt32(&dist[w], Unreached, level) {
							buf = append(buf, w)
							bmf += offsets[w+1] - offsets[w]
						}
					}
				}
				fs.bufs[b] = buf
				fs.counts[b] = int64(len(buf))
				fs.degs[b] = bmf
			})
			next, nmf = fs.compact(next, nb, workers)
		}
		frontier, next = next, frontier
		mu -= mf
		mf = nmf
	}
	fs.frontier, fs.next = frontier[:0], next[:0]
}

// compact gathers the per-block claim buffers into one next-frontier slice:
// a parallel prefix sum over the block counts fixes each block's output
// offset, then the copies run in parallel. Returns the filled slice and the
// next frontier's total out-edge count. Block order is preserved, so a pull
// level's next frontier is sorted by node id.
func (s *FrontierScratch) compact(next []graph.NodeID, nb, workers int) ([]graph.NodeID, int64) {
	counts := s.counts[:nb]
	total := par.PrefixSum(counts, workers)
	next = next[:total]
	par.For(nb, workers, func(b int) {
		copy(next[counts[b]-int64(len(s.bufs[b])):counts[b]], s.bufs[b])
	})
	var nmf int64
	for _, d := range s.degs[:nb] {
		nmf += d
	}
	return next, nmf
}

// wFrontierDone is the parallel bucketed-Dial kernel: buckets are drained in
// increasing distance exactly like the sequential wDistancesDone, but one
// bucket's edge relaxations are split across workers, improving dist with an
// atomic min-CAS. Weights ≥ 1 guarantee every push lands in a strictly later
// bucket, so the bucket being drained never grows under its own relaxations
// and the sequential settle order — hence the unique final distances — is
// preserved at every worker count.
func wFrontierDone(g *graph.WGraph, src graph.NodeID, dist []int32, workers int, fs *FrontierScratch, done <-chan struct{}) {
	offsets, adj, wts := g.CSR()
	n := len(offsets) - 1
	workers = par.Workers(workers)
	if fs == nil {
		fs = NewFrontierScratch()
	}
	maxW := int(g.MaxWeight())
	if maxW < 1 {
		maxW = 1
	}
	ring := maxW + 1 // reachable targets span (d, d+maxW]: never the slot being drained
	fs.growW(n, workers, ring)
	par.ForBlocks(n, workers, func(_, lo, hi int) { Fill(dist[lo:hi]) })
	buckets := fs.ring[:ring]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	dist[src] = 0
	buckets[0] = append(buckets[0], src)
	pending := 1

	for d := int32(0); pending > 0; d++ {
		slot := int(d) % ring
		entries := buckets[slot]
		if len(entries) == 0 {
			continue
		}
		if par.Interrupted(done) {
			break
		}
		pending -= len(entries)
		// Settle: a node's entry for bucket d is final exactly when
		// dist == d (a later improvement leaves a stale entry behind; the
		// push that achieved the final value is unique, so each node settles
		// once). No relaxation is in flight here, so plain reads suffice.
		settled := fs.settled[:0]
		var mass int64
		for _, u := range entries {
			if dist[u] == d {
				settled = append(settled, u)
				mass += offsets[u+1] - offsets[u]
			}
		}
		buckets[slot] = entries[:0]
		if len(settled) == 0 {
			continue
		}
		if workers == 1 || mass < frontierSeqEdges*int64(workers) {
			// Sequential relax — same loop as the plain Dial kernel.
			for _, u := range settled {
				lo, hi := offsets[u], offsets[u+1]
				for i := lo; i < hi; i++ {
					w := adj[i]
					nd := d + wts[i]
					if dist[w] == Unreached || nd < dist[w] {
						dist[w] = nd
						buckets[int(nd)%ring] = append(buckets[int(nd)%ring], w)
						pending++
					}
				}
			}
			fs.settled = settled[:0]
			continue
		}
		nb := par.NumBlocks(len(settled), workers)
		par.ForBlocks(len(settled), workers, func(b, blo, bhi int) {
			buf := fs.pushBufs[b][:0]
			for _, u := range settled[blo:bhi] {
				lo, hi := offsets[u], offsets[u+1]
				for i := lo; i < hi; i++ {
					w := adj[i]
					nd := d + wts[i]
					// Min-CAS: improve dist[w] to nd unless an equal or
					// better value is already in place. The CAS that lands a
					// given value wins exactly once, so each improvement
					// enqueues w exactly once.
					for {
						cur := atomic.LoadInt32(&dist[w])
						if cur != Unreached && cur <= nd {
							break
						}
						if atomic.CompareAndSwapInt32(&dist[w], cur, nd) {
							buf = append(buf, wpush{w, nd})
							break
						}
					}
				}
			}
			fs.pushBufs[b] = buf
		})
		// Merge the per-block pushes into the shared ring sequentially (the
		// merge is O(pushes), the same work the sequential kernel spends on
		// its own enqueues). Merge order follows block order; bucket
		// contents may still differ from the sequential kernel's order, but
		// settle filtering keys on dist values, which are unique.
		for b := 0; b < nb; b++ {
			for _, p := range fs.pushBufs[b] {
				buckets[int(p.nd)%ring] = append(buckets[int(p.nd)%ring], p.v)
				pending++
			}
		}
		fs.settled = settled[:0]
	}
}
