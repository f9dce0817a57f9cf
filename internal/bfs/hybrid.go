package bfs

import (
	"context"

	"repro/internal/graph"
	"repro/internal/par"
)

// This file holds the direction-optimising (Beamer-style push/pull hybrid)
// per-source BFS. Top-down ("push") levels expand the frontier through its
// out-edges; once the frontier's out-edge count mf exceeds a fraction of the
// unexplored edges mu (the pullLevel rule, see tuning.go), the kernel
// flips to bottom-up ("pull") levels, where every unvisited node scans its
// own neighbours for a frontier member and stops at the first hit — on
// low-diameter graphs the one or two widest levels dominate the edge scans,
// and the pull sweep's early exit skips most of them. When the frontier
// shrinks below n/beta the kernel flips back.
//
// BFS levels are unique, so the hybrid produces exactly the distance array
// of the plain kernel at every switch point: callers may substitute it
// freely without breaking the repo's bit-identical-results contract. The
// kernel runs over the raw CSR arrays (graph.Graph.CSR) so one
// implementation serves both the simple and the all-weights-one contracted
// graphs.

// The push/pull switching rule and its alpha/beta/floor constants live in
// tuning.go (pullLevel), shared with the msbfs pull path.

// WHybridDistancesBFSCtx runs a direction-optimising BFS from src over a
// weighted graph whose weights are all 1, filling dist with hop counts
// (Unreached for unreachable nodes); callers guarantee the precondition
// (graph.WGraph.Unweighted). The caller picks the dist row (typically a
// prefix of pooled scratch sized to the traversal unit). Cancellation is
// polled at frontier-level boundaries; a non-nil return means dist is
// partial.
func WHybridDistancesBFSCtx(ctx context.Context, g *graph.WGraph, src graph.NodeID, dist []int32, s *Scratch) error {
	offsets, adj, _ := g.CSR()
	hybridDone(offsets, adj, src, dist, s, ctx.Done())
	return par.CtxErr(ctx)
}

// hybridDone is the direction-optimising kernel over raw CSR arrays with an
// optional interruption channel polled once per level (hybrid levels scan
// up to the whole graph, so per-pop budgets don't apply).
func hybridDone(offsets []int64, adj []graph.NodeID, src graph.NodeID, dist []int32, s *Scratch, done <-chan struct{}) {
	n := len(offsets) - 1
	Fill(dist)
	if s == nil {
		s = &Scratch{}
	}
	front, frontier, spare := s.hybridState(n)

	dist[src] = 0
	frontier = append(frontier, src)
	mf := offsets[src+1] - offsets[src] // out-edges of the current frontier
	mu := int64(len(adj)) - mf          // directed edges not yet explored
	bottomUp := false

	for d := int32(1); len(frontier) > 0; d++ {
		if par.Interrupted(done) {
			break
		}
		bottomUp = pullLevel(mf, mu, len(frontier), n)
		var nmf int64
		if bottomUp {
			// Pull: publish the frontier as a bitset, then let every
			// unvisited node claim its level from the first frontier
			// neighbour it sees.
			for _, u := range frontier {
				front[u>>6] |= 1 << uint(u&63)
			}
			next := spare[:0]
			for v := 0; v < n; v++ {
				if dist[v] != Unreached {
					continue
				}
				for _, w := range adj[offsets[v]:offsets[v+1]] {
					if front[w>>6]&(1<<uint(w&63)) != 0 {
						dist[v] = d
						next = append(next, graph.NodeID(v))
						nmf += offsets[v+1] - offsets[v]
						break
					}
				}
			}
			for _, u := range frontier {
				front[u>>6] = 0
			}
			frontier, spare = next, frontier
		} else {
			// Push: classic frontier expansion. spare receives the next
			// level so the two buffers alternate like in the pull branch.
			next := spare[:0]
			for _, u := range frontier {
				for _, w := range adj[offsets[u]:offsets[u+1]] {
					if dist[w] == Unreached {
						dist[w] = d
						next = append(next, w)
						nmf += offsets[w+1] - offsets[w]
					}
				}
			}
			frontier, spare = next, frontier
		}
		mu -= mf
		mf = nmf
	}
	s.frontier, s.spare = frontier[:0], spare[:0]
}
