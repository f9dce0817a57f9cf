// Package sketch implements cluster-BFS distance sketches: a compact
// per-vertex index that answers point-to-point distance queries with proven
// lower/upper bounds in O(k) time — no traversal — after a one-time build of
// k multi-source sweeps.
//
// The construction follows Wang, Blelloch, Gu and Sun's Parallel Cluster-BFS
// (see PAPERS.md): a *cluster* is a set of up to 64 nearby seed vertices (a
// high-degree center plus neighbours within radius r), and one pass of the
// repo's 64-lane bit-parallel engine (internal/bfs MultiSourceMasksInto)
// computes the distances from all of a cluster's seeds to every vertex
// simultaneously. Because the seeds lie within distance 2r of each other,
// the ≤64 distances from one cluster to a vertex v span the window
// [d, d+2r] where d = dist(v, cluster); the sketch therefore stores, per
// (vertex, cluster), one base distance plus 2r+1 lane bitmasks — which seeds
// sit at offset 0, 1, …, 2r — instead of 64 separate values.
//
// A query Bounds(u, v) scans the two vertices' cluster rows: every seed s
// reachable from both sides yields d(u,s)+d(s,v) as an upper bound and
// |d(u,s)−d(s,v)| as a lower bound (triangle inequality), and the bitmask
// intersection finds the best such seed per cluster in (2r+1)² word
// operations rather than 64 comparisons. Both bounds are proven, so callers
// that need exactness can detect lower == upper; Query falls back to an
// exact bidirectional BFS when the gap exceeds their tolerance.
package sketch

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/par"
)

// Unreached marks a (vertex, cluster) pair with no path, mirroring
// bfs.Unreached.
const Unreached = bfs.Unreached

// Options configures Build. The zero value selects the defaults.
type Options struct {
	// Clusters is the number of seed clusters k (default 16). Each cluster
	// contributes up to 64 landmark seeds and costs one 64-lane sweep to
	// build plus ~(4 + 8·(2·Radius+1)) bytes per vertex to store.
	Clusters int
	// Radius is the cluster growth radius r (default 1): seeds are the
	// center plus BFS-order neighbours within r hops, capped at 64.
	Radius int
	// Workers bounds the build parallelism (<1 = GOMAXPROCS). The sketch is
	// bit-identical at every worker count: clusters write disjoint stripes.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Clusters <= 0 {
		o.Clusters = 16
	}
	if o.Radius <= 0 {
		o.Radius = 1
	}
	return o
}

// Sketch is the built index. It is immutable after Build and safe for
// concurrent queries.
type Sketch struct {
	n, k, r int
	nm      int // masks per (vertex, cluster): 2r+1 distance offsets

	// dist[v*k + c] is the minimum distance from v to any seed of cluster c
	// (Unreached when no seed is reachable). masks[(v*k+c)*nm + j] holds the
	// lanes of cluster c's seeds at distance dist[v*k+c]+j from v. Rows of
	// one vertex are contiguous, so a query streams 2·k cache lines.
	dist  []int32
	masks []uint64

	centers []graph.NodeID
	seeds   [][]graph.NodeID // per cluster, lane order; seeds[c][0] == centers[c]

	lbOnce sync.Once
	lb     []int64 // FarnessLowerBounds, computed on first use
}

// Build constructs a sketch over g. Centers are chosen by descending degree
// (ties by id), skipping vertices already absorbed into an earlier cluster,
// so the clusters tile the high-degree core of the graph. Deterministic for
// every worker count.
func Build(g *graph.Graph, opts Options) *Sketch {
	s, _ := BuildContext(context.Background(), g, opts)
	return s
}

// BuildContext is Build with cooperative cancellation, polled between
// cluster sweeps and inside each sweep at frontier-level granularity. A
// canceled build returns a nil sketch and a par.ErrCanceled-wrapping error.
func BuildContext(ctx context.Context, g *graph.Graph, opts Options) (*Sketch, error) {
	opts = opts.withDefaults()
	n := g.NumNodes()
	workers := par.Workers(opts.Workers)
	s := &Sketch{n: n, r: opts.Radius, nm: 2*opts.Radius + 1}
	s.selectClusters(g, opts.Clusters)
	s.k = len(s.seeds)
	if n == 0 || s.k == 0 {
		return s, par.CtxErr(ctx)
	}

	s.dist = make([]int32, n*s.k)
	s.masks = make([]uint64, n*s.k*s.nm)
	par.ForBlocks(len(s.dist), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.dist[i] = Unreached
		}
	})

	// One 64-lane sweep per cluster, fanned out across the pool. Cluster c
	// writes only the c-th stripe of dist/masks, so the parallel build is
	// race-free and bit-identical to a sequential one.
	k, nm := s.k, s.nm
	done := ctx.Done()
	scratch := make([]*bfs.MSScratch, min(workers, k))
	for i := range scratch {
		scratch[i] = bfs.NewMSScratch(n)
		scratch[i].SetDone(done)
	}
	err := par.ForDynamicCtx(ctx, k, workers, 1, func(worker, c int) {
		dist, masks := s.dist, s.masks
		bfs.MultiSourceMasksInto(g, s.seeds[c], scratch[worker], func(v graph.NodeID, mask uint64, d int32) {
			base := int(v)*k + c
			if dist[base] == Unreached {
				dist[base] = d // visits arrive in increasing d: first is the minimum
			}
			if j := int(d - dist[base]); j < nm {
				masks[base*nm+j] |= mask
			}
			// j ≥ nm cannot happen for seeds within radius r of one center
			// (pairwise distance ≤ 2r bounds the offset window); the guard
			// keeps the bounds proven even if a caller hands Build a
			// malformed seed set.
		})
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// selectClusters picks centers by descending degree with ascending-id
// tie-breaks and grows each cluster by a radius-r BFS, claiming up to 64
// unclaimed seeds per cluster (center first, then neighbours in visit
// order). Claimed vertices are skipped as later centers and seeds, so the k
// clusters spread across the graph instead of piling onto one hub.
func (s *Sketch) selectClusters(g *graph.Graph, k int) {
	n := g.NumNodes()
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	claimed := make([]bool, n)
	var frontier, next []graph.NodeID
	for _, center := range order {
		if len(s.seeds) == k {
			break
		}
		if claimed[center] {
			continue
		}
		seeds := []graph.NodeID{center}
		claimed[center] = true
		frontier = append(frontier[:0], center)
		for hop := 0; hop < s.r && len(seeds) < bfs.MSBFSWidth; hop++ {
			next = next[:0]
			for _, u := range frontier {
				for _, w := range g.Neighbors(u) {
					if claimed[w] {
						continue
					}
					claimed[w] = true
					next = append(next, w)
					if seeds = append(seeds, w); len(seeds) == bfs.MSBFSWidth {
						break
					}
				}
				if len(seeds) == bfs.MSBFSWidth {
					break
				}
			}
			frontier, next = next, frontier
		}
		s.centers = append(s.centers, center)
		s.seeds = append(s.seeds, seeds)
	}
}

// Clusters returns the number of clusters actually built (≤ Options.Clusters
// on tiny graphs).
func (s *Sketch) Clusters() int { return s.k }

// Radius returns the cluster growth radius.
func (s *Sketch) Radius() int { return s.r }

// Seeds returns the total number of landmark seeds across all clusters.
func (s *Sketch) Seeds() int {
	total := 0
	for _, m := range s.seeds {
		total += len(m)
	}
	return total
}

// Bytes reports the memory footprint of the index arrays, counting the
// farness lower bounds (8 bytes per vertex) whether or not they have been
// asked for yet.
func (s *Sketch) Bytes() int64 {
	return int64(len(s.dist))*4 + int64(len(s.masks))*8 + int64(s.n)*8
}

// Bounds returns proven bounds lower ≤ d(u, v) ≤ upper from the sketch
// alone, in O(k·(2r+1)²) word operations. ok is false when no seed reaches
// both endpoints (different components, or an empty sketch) — upper is then
// meaningless and the caller must fall back to an exact traversal. When ok,
// both bounds hold with certainty; lower == upper proves the distance.
func (s *Sketch) Bounds(u, v graph.NodeID) (lower, upper int32, ok bool) {
	if u == v {
		return 0, 0, true
	}
	k, nm := s.k, s.nm
	lower, upper = 1, math.MaxInt32
	ub, vb := int(u)*k, int(v)*k
	for c := 0; c < k; c++ {
		du, dv := s.dist[ub+c], s.dist[vb+c]
		if du == Unreached || dv == Unreached {
			continue
		}
		mu := s.masks[(ub+c)*nm : (ub+c+1)*nm]
		mv := s.masks[(vb+c)*nm : (vb+c+1)*nm]
		for j1 := 0; j1 < nm; j1++ {
			if mu[j1] == 0 {
				continue
			}
			for j2 := 0; j2 < nm; j2++ {
				if mu[j1]&mv[j2] == 0 {
					continue
				}
				// A seed at distance du+j1 from u and dv+j2 from v: the
				// triangle inequality brackets d(u,v) by the sum and the
				// absolute difference.
				a, b := du+int32(j1), dv+int32(j2)
				if sum := a + b; sum < upper {
					upper = sum
				}
				diff := a - b
				if diff < 0 {
					diff = -diff
				}
				if diff > lower {
					lower = diff
				}
			}
		}
	}
	if upper == math.MaxInt32 {
		return 0, -1, false
	}
	return lower, upper, true
}

// Distance returns the sketch's distance estimate for (u, v): the proven
// upper bound, with exact reporting whether the bounds met (the estimate is
// then the true distance). ok is false when the sketch cannot bound the pair
// at all (see Bounds).
func (s *Sketch) Distance(u, v graph.NodeID) (d int32, exact, ok bool) {
	lo, hi, ok := s.Bounds(u, v)
	if !ok {
		return -1, false, false
	}
	return hi, lo == hi, true
}

// Query is the escape-hatch form: it answers from the sketch when the bound
// gap upper−lower is within tol, and falls back to an exact bidirectional
// BFS on g otherwise (or when the sketch cannot bound the pair). fromSketch
// reports which path answered. tol = 0 means only proven-exact sketch
// answers are returned without traversal. g must be the graph the sketch was
// built from.
func (s *Sketch) Query(ctx context.Context, g *graph.Graph, u, v graph.NodeID, tol int32) (d int32, fromSketch bool, err error) {
	lo, hi, ok := s.Bounds(u, v)
	if ok && hi-lo <= tol {
		return hi, true, nil
	}
	d, err = bfs.PointToPointCtx(ctx, g, u, v)
	return d, false, err
}

// seedDistance decodes the exact distance from v to cluster c's seed at the
// given lane, or Unreached.
func (s *Sketch) seedDistance(v graph.NodeID, c, lane int) int32 {
	base := int(v)*s.k + c
	d := s.dist[base]
	if d == Unreached {
		return Unreached
	}
	bit := uint64(1) << uint(lane)
	for j := 0; j < s.nm; j++ {
		if s.masks[base*s.nm+j]&bit != 0 {
			return d + int32(j)
		}
	}
	return Unreached
}

// String summarises the sketch for logs.
func (s *Sketch) String() string {
	return fmt.Sprintf("sketch{k=%d r=%d seeds=%d bytes=%d}", s.k, s.r, s.Seeds(), s.Bytes())
}
