package bfs

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// MSBFSWidth is the number of sources one multi-source sweep carries — one
// bit lane per source.
const MSBFSWidth = 64

// MSScratch bundles the reusable state of the multi-source kernels so that
// a traversal driver can run many sweeps without reallocating: the seen/cur/next
// lane-mask arrays and frontier buffers of the unweighted kernel, and the
// bucket ring of the weighted one. A scratch grows to the largest graph and
// weight it has swept and must not be shared between concurrent sweeps;
// drivers keep one per worker.
type MSScratch struct {
	seen, cur, next []uint64
	frontier        []graph.NodeID
	touched         []graph.NodeID
	// Weighted (masked-Dial) state; allocated lazily on first weighted use.
	buckets    [][]msEntry
	pend       []uint64
	levelNodes []graph.NodeID
	// done, when non-nil, interrupts sweeps at frontier-level boundaries;
	// see SetDone.
	done <-chan struct{}
}

// SetDone installs an interruption channel (typically a ctx.Done()) polled by
// every kernel using this scratch at each frontier level or bucket drain.
// When the channel fires a sweep returns early with partial output, which
// callers must discard — core's traversal driver delivers no further rows
// and returns par.ErrCanceled from the whole fan-out. A nil channel (the
// default) disables interruption.
func (s *MSScratch) SetDone(done <-chan struct{}) { s.done = done }

// msEntry is one pending bucket-queue item: the lanes in mask may reach v at
// the bucket's distance.
type msEntry struct {
	v    graph.NodeID
	mask uint64
}

// NewMSScratch allocates multi-source scratch for n-node graphs. The
// weighted kernels grow their state on first use.
func NewMSScratch(n int) *MSScratch {
	return &MSScratch{
		seen:     make([]uint64, n),
		cur:      make([]uint64, n),
		next:     make([]uint64, n),
		frontier: make([]graph.NodeID, 0, n),
		touched:  make([]graph.NodeID, 0, n),
	}
}

// reset clears the lane-mask arrays for a fresh sweep over n nodes, growing
// the scratch if the graph is larger than any seen before.
func (s *MSScratch) reset(n int) {
	if len(s.seen) < n {
		s.seen = make([]uint64, n)
		s.cur = make([]uint64, n)
		s.next = make([]uint64, n)
		return
	}
	clear(s.seen[:n])
	clear(s.cur[:n])
	clear(s.next[:n])
}

// MultiSourceMasksInto runs a bit-parallel breadth-first search from up to
// 64 sources simultaneously (the "more the merrier" technique: one uint64
// per node carries one lane per source, so a single edge scan advances all
// sources at once). visit is called with the set of lanes that reach v at
// hop distance d, packed as a bitmask; over the sweep every reached
// (source, node) pair, including (s, s, 0), is covered by exactly one call.
// When lane frontiers coincide — the whole point of proximity-clustered
// batching — one call replaces up to 64, which lets accumulating handlers
// add d·popcount(mask) instead of looping lanes.
//
// The kernel is sequential by design; callers parallelise across batches
// and keep one scratch per worker.
//
// The sweep is level-synchronous over the raw CSR arrays and counts hops,
// whatever the weights. Levels run top-down (push) until the frontier's
// out-edges outgrow the unexplored edges by the alpha heuristic, then flip
// to lane-masked bottom-up (pull) sweeps: every node missing at least one lane
// scans its own neighbours, ORing in their current frontier masks, with an
// early exit once all missing lanes are found. The per-(node, lane) visit
// set of a level is the union over frontier neighbours either way, so push
// and pull levels produce identical visits — only the scan order inside a
// level differs, which the accumulating callers are insensitive to.
//
// Two shared-frontier fast paths exploit overlapping lanes (clustered
// batches make overlap the common case, see core's clusterOrder):
//
//   - Saturated rows are skipped: a push edge whose head has already seen
//     every lane the tail carries is dropped before touching the next-mask
//     array, and pull rows with no missing lanes were always skipped. After
//     lanes merge, re-expansions of the already-covered region cost one seen
//     load per edge instead of a read-modify-write per edge.
//
//   - Once every lane travels in one shared frontier — every frontier mask
//     equals the full lane set and no node is partially seen — the sweep
//     drops the mask bookkeeping entirely and proceeds as a single BFS over
//     the unseen region (msMergedTail): each adjacency row is expanded once
//     and the full mask is handed to visit in one call per node, the "64
//     BFSes for the price of one" regime of Wang et al.'s cluster-BFS.
func MultiSourceMasksInto(g *graph.Graph, sources []graph.NodeID, s *MSScratch, visit func(v graph.NodeID, mask uint64, d int32)) {
	offsets, adj := g.CSR()
	if len(sources) == 0 {
		return
	}
	if len(sources) > MSBFSWidth {
		panic("bfs: a multi-source sweep supports at most 64 sources per batch")
	}
	n := len(offsets) - 1
	s.reset(n)
	seen, cur, next := s.seen, s.cur, s.next
	frontier := s.frontier[:0]
	var active uint64 // union of all source lanes: the "fully seen" mask
	var mf int64      // out-edges of the current frontier
	for lane, src := range sources {
		// Duplicate source nodes share one frontier slot (their lanes ride
		// the same mask) but each lane still gets its zero-distance visit.
		if seen[src] == 0 {
			frontier = append(frontier, src)
			mf += offsets[src+1] - offsets[src]
		}
		seen[src] |= uint64(1) << uint(lane)
		active |= uint64(1) << uint(lane)
	}
	// partial counts nodes seen by some but not all lanes; zero is one half
	// of the merged-frontier condition.
	partial := 0
	for _, src := range frontier {
		cur[src] = seen[src]
		visit(src, seen[src], 0)
		if seen[src] != active {
			partial++
		}
	}

	mu := int64(len(adj)) - mf
	touched := s.touched[:0]
	for d := int32(1); len(frontier) > 0; d++ {
		if par.Interrupted(s.done) {
			break
		}
		// The direction rule is pullLevel's; mf counts the union
		// frontier's out-edges, and one shared pull sweep serves all lanes.
		bottomUp := pullLevel(mf, mu, len(frontier), n)
		var nmf int64
		// fullDiff accumulates nw ^ active over the level's commits: zero
		// afterwards means every commit carried the full lane set — the
		// branch-avoiding form of the old per-commit allFull test.
		var fullDiff uint64
		if bottomUp {
			// Pull: nodes missing lanes gather them from their neighbours'
			// frontier masks. touched receives the new frontier so the two
			// buffers alternate.
			newFrontier := touched[:0]
			for v := 0; v < n; v++ {
				want := active &^ seen[v]
				if want == 0 {
					continue
				}
				var nw uint64
				for _, w := range adj[offsets[v]:offsets[v+1]] {
					if m := cur[w] & want; m != 0 {
						nw |= m
						if nw == want {
							break
						}
					}
				}
				if nw == 0 {
					continue
				}
				next[v] = nw
				newFrontier = append(newFrontier, graph.NodeID(v))
			}
			for _, u := range frontier {
				cur[u] = 0
			}
			for _, v := range newFrontier {
				nw := next[v]
				next[v] = 0
				old := seen[v]
				now := old | nw
				seen[v] = now
				cur[v] = nw
				nmf += offsets[v+1] - offsets[v]
				fullDiff |= nw ^ active
				// partial moves by +1 when a node is first seen but not yet
				// full, −1 when a previously partial node fills up —
				// computed with 0/1 arithmetic instead of nested branches.
				wasSeen := nzb(old)
				notFull := nzb(now ^ active)
				partial += int((wasSeen^1)&notFull) - int(wasSeen&(notFull^1))
				visit(v, nw, d)
			}
			frontier, touched = newFrontier, frontier
		} else {
			// Push: scan the frontier's out-edges, collecting touched nodes,
			// then commit lanes, visits and the next frontier. Heads that
			// already saw every lane the tail carries are skipped outright —
			// their commit delta would be zero.
			touched = touched[:0]
			for _, u := range frontier {
				m := cur[u]
				for _, w := range adj[offsets[u]:offsets[u+1]] {
					if m&^seen[w] == 0 {
						continue
					}
					// Branch-avoiding queue insert: append speculatively,
					// then retract by the already-queued bit — a
					// data-dependent length adjustment instead of an
					// unpredictable membership branch. (The saturation skip
					// above stays a branch: it prunes the next[w] load-store
					// entirely.)
					touched = append(touched, w)
					touched = touched[:len(touched)-int(nzb(next[w]))]
					next[w] |= m
				}
			}
			for _, u := range frontier {
				cur[u] = 0
			}
			newFrontier := frontier[:0]
			for _, w := range touched {
				nw := next[w] &^ seen[w]
				next[w] = 0
				if nw == 0 {
					continue
				}
				old := seen[w]
				now := old | nw
				seen[w] = now
				cur[w] = nw
				newFrontier = append(newFrontier, w)
				nmf += offsets[w+1] - offsets[w]
				fullDiff |= nw ^ active
				wasSeen := nzb(old)
				notFull := nzb(now ^ active)
				partial += int((wasSeen^1)&notFull) - int(wasSeen&(notFull^1))
				visit(w, nw, d)
			}
			frontier = newFrontier
		}
		mu -= mf
		mf = nmf
		if fullDiff == 0 && partial == 0 && len(frontier) > 0 {
			// Every lane now rides one shared frontier and no node awaits
			// stragglers: the rest of the sweep is a single BFS.
			frontier, touched = msMergedTail(offsets, adj, s, active, frontier, touched, d, mf, mu, visit)
			break
		}
	}
	s.frontier = frontier[:0]
	s.touched = touched[:0]
}

// msMergedTail finishes a multi-source sweep after all lanes have merged
// into one shared frontier: every frontier node carries the full lane mask
// and every reached node is either fully seen or unseen, so level expansion
// degenerates to a plain direction-optimised BFS (seen acts as the visited
// bit) and each newly reached node gets one full-mask visit. Returns the
// (emptied) frontier buffers so the caller can stash them back in the
// scratch.
func msMergedTail(offsets []int64, adj []graph.NodeID, s *MSScratch, active uint64,
	frontier, touched []graph.NodeID, dPrev int32, mf, mu int64,
	visit func(v graph.NodeID, mask uint64, d int32)) ([]graph.NodeID, []graph.NodeID) {
	n := len(offsets) - 1
	seen, cur, next := s.seen, s.cur, s.next
	for d := dPrev + 1; len(frontier) > 0; d++ {
		if par.Interrupted(s.done) {
			break
		}
		bottomUp := pullLevel(mf, mu, len(frontier), n)
		newFrontier := touched[:0]
		var nmf int64
		if bottomUp {
			for v := 0; v < n; v++ {
				if seen[v] != 0 {
					continue
				}
				for _, w := range adj[offsets[v]:offsets[v+1]] {
					if cur[w] != 0 {
						newFrontier = append(newFrontier, graph.NodeID(v))
						break
					}
				}
			}
		} else {
			for _, u := range frontier {
				for _, w := range adj[offsets[u]:offsets[u+1]] {
					if seen[w] == 0 && next[w] == 0 {
						next[w] = 1
						newFrontier = append(newFrontier, w)
					}
				}
			}
		}
		for _, u := range frontier {
			cur[u] = 0
		}
		for _, v := range newFrontier {
			next[v] = 0
			seen[v] = active
			cur[v] = active
			nmf += offsets[v+1] - offsets[v]
			visit(v, active, d)
		}
		frontier, touched = newFrontier, frontier
		mu -= mf
		mf = nmf
	}
	return frontier, touched
}
