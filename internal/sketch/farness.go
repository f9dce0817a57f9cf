package sketch

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// FarnessLowerBounds returns, for every vertex v, a proven lower bound on
// its farness Σ_u d(v, u): for any landmark s the triangle inequality gives
// d(v, u) ≥ |d(v, s) − d(u, s)|, so
//
//	far(v) ≥ max_s Σ_u |d(v, s) − d(u, s)|
//
// taking the cluster centers as landmarks. The inner sum is evaluated in
// O(1) per (vertex, center) from each center's distance histogram: with
// cnt≤(a) vertices at distance ≤ a and sum≤(a) their distance total,
// Σ_u |a − d(u, s)| = a·cnt≤(a) − sum≤(a) + (sumTot − sum≤(a)) − a·(reached − cnt≤(a)).
// Vertices unreachable from a center are excluded from that center's sum —
// farness in this repo sums within the component, so the bound stays valid
// on the component the center lives in and centers outside v's component
// contribute nothing.
//
// topk uses these bounds as a candidate filter: once k exact values are
// known, any candidate whose lower bound already meets the k-th best farness
// provably cannot improve the answer and its verification BFS is skipped.
// Total cost is O(k·(n + maxDist)) — about one BFS worth of work for the
// whole array. Deterministic at every worker count, so the bounds are
// computed once per sketch, by the first call with its workers, and every
// call returns the same slice, which callers must not modify.
func (s *Sketch) FarnessLowerBounds(workers int) []int64 {
	s.lbOnce.Do(func() { s.lb = s.farnessLowerBounds(workers) })
	return s.lb
}

func (s *Sketch) farnessLowerBounds(workers int) []int64 {
	workers = par.Workers(workers)
	lb := make([]int64, s.n)
	if s.k == 0 || s.n == 0 {
		return lb
	}
	// Decode the exact center distances once: centers are lane 0 of their
	// cluster, so d(v, center_c) = dist[v][c] + j for the offset j whose mask
	// carries bit 0.
	cd := make([]int32, s.n*s.k)
	par.ForBlocks(s.n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			for c := 0; c < s.k; c++ {
				cd[v*s.k+c] = s.seedDistance(graph.NodeID(v), c, 0)
			}
		}
	})
	for c := 0; c < s.k; c++ {
		// Histogram of d(·, center_c) over reached vertices, then prefix
		// counts and sums by distance value.
		maxD := int32(0)
		for v := 0; v < s.n; v++ {
			if d := cd[v*s.k+c]; d > maxD {
				maxD = d
			}
		}
		cnt := make([]int64, maxD+2)
		for v := 0; v < s.n; v++ {
			if d := cd[v*s.k+c]; d != Unreached {
				cnt[d]++
			}
		}
		cntLE := make([]int64, maxD+2) // vertices at distance ≤ a
		sumLE := make([]int64, maxD+2) // their distance total
		var runC, runS int64
		for a := int32(0); a <= maxD; a++ {
			runC += cnt[a]
			runS += int64(a) * cnt[a]
			cntLE[a] = runC
			sumLE[a] = runS
		}
		reached, sumTot := runC, runS
		par.ForBlocks(s.n, workers, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				a := cd[v*s.k+c]
				if a == Unreached {
					continue
				}
				aa := int64(a)
				bound := aa*cntLE[a] - sumLE[a] + (sumTot - sumLE[a]) - aa*(reached-cntLE[a])
				if bound > lb[v] {
					lb[v] = bound
				}
			}
		})
	}
	return lb
}
