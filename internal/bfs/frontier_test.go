package bfs

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queue"
)

// frontierWorkerSweep is the worker sweep of the frontier property tests; the
// engine must be bit-identical at every point of it. -short trims it to the
// endpoints (the sequential path and the most oversubscribed one).
func frontierWorkerSweep(t *testing.T) []int {
	if testing.Short() {
		return []int{1, 8}
	}
	return []int{1, 2, 4, 8}
}

var relabelModes = []graph.RelabelMode{graph.RelabelNone, graph.RelabelDegree, graph.RelabelBFS}

// TestFrontierMatchesDistancesOnFamilies cross-checks the frontier-parallel
// edge-map engine against sequential BFS on all four generator families,
// under every relabel mode and worker count: distances bit-identical per
// node, and therefore the farness sums too. The 5000-node road case drives
// long, thin frontiers through the sequential-fallback path; the social case
// drives the dense pull path.
func TestFrontierMatchesDistancesOnFamilies(t *testing.T) {
	workerSweep := frontierWorkerSweep(t)
	modes := relabelModes
	if testing.Short() {
		modes = relabelModes[:1]
	}
	for _, fam := range genFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			sizes := []int{60, 400, 5000}
			if testing.Short() {
				sizes = sizes[:2]
			}
			for _, size := range sizes {
				base := fam.build(size, int64(size))
				for _, mode := range modes {
					g, _ := graph.Relabel(base, mode, 2)
					n := g.NumNodes()
					fs := NewFrontierScratch()
					for trial := 0; trial < 4; trial++ {
						src := graph.NodeID(rng.Intn(n))
						label := fmt.Sprintf("%s n=%d relabel=%v", fam.name, n, mode)
						if !frontierAgrees(t, label, g, src, workerSweep, fs) {
							return
						}
					}
				}
			}
		})
	}
}

// TestParallelDistancesMatchesSequential: the frontier engine matches
// sequential BFS on small random connected graphs as a quick-check
// property, at workers {0,1,2,5} (0 means GOMAXPROCS).
func TestParallelDistancesMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 2
		g := randomConnected(rng, n)
		return frontierAgrees(t, fmt.Sprintf("seed=%d", seed), g, graph.NodeID(rng.Intn(n)), []int{0, 1, 2, 5}, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelDistancesLargeFrontier: a 5000-node star plus random chords,
// whose levels are far wider than 4×workers, drives the parallel branch of
// every level.
func TestParallelDistancesLargeFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(0, graph.NodeID(i))
	}
	for i := 0; i < 3*n; i++ {
		_ = b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	frontierAgrees(t, "broad", b.Build(), 17, []int{0, 4}, nil)
}

// TestParallelExactFarness: the farness of a few sources summed from
// frontier-parallel traversals equals the all-sources oracle.
func TestParallelExactFarness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnected(rng, 200)
	all := ExactFarness(g, 2)
	dist := make([]int32, g.NumNodes())
	for _, s := range []graph.NodeID{0, 50, 199} {
		FrontierDistances(g, s, dist, 3, nil)
		if got, _ := Sum(dist); float64(got) != all[s] {
			t.Fatalf("source %d: %d vs %v", s, got, all[s])
		}
	}
}

// frontierAgrees reports whether FrontierDistances from src matches
// sequential BFS node for node (and so in farness) at every worker count,
// failing t with the first difference otherwise.
func frontierAgrees(t *testing.T, label string, g *graph.Graph, src graph.NodeID, workers []int, fs *FrontierScratch) bool {
	t.Helper()
	n := g.NumNodes()
	want := make([]int32, n)
	got := make([]int32, n)
	Distances(g, src, want, nil)
	wantSum, _ := Sum(want)
	for _, w := range workers {
		FrontierDistances(g, src, got, w, fs)
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Errorf("%s workers=%d src=%d node %d: frontier %d, sequential %d", label, w, src, v, got[v], want[v])
				return false
			}
		}
		if gotSum, _ := Sum(got); gotSum != wantSum {
			t.Errorf("%s workers=%d: farness %d, want %d", label, w, gotSum, wantSum)
			return false
		}
	}
	return true
}

func BenchmarkFrontierVsSequentialBFS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 50000)
	dist := make([]int32, g.NumNodes())
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Distances(g, 0, dist, nil)
		}
	})
	b.Run("frontier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FrontierDistances(g, 0, dist, 0, nil)
		}
	})
}

// TestWFrontierMatchesWDistances cross-checks the parallel bucketed-Dial
// kernel against the sequential Dial on randomly weighted versions of the
// four families across the worker sweep, including the unit-weight range that
// routes through the unweighted edge-map over the WGraph CSR.
func TestWFrontierMatchesWDistances(t *testing.T) {
	workerSweep := frontierWorkerSweep(t)
	weightRanges := []struct {
		name   string
		lo, hi int32
	}{
		{"unit", 1, 1},
		{"small", 1, 7},
		{"wide", 1, 60},
	}
	for _, fam := range genFamilies {
		for _, wr := range weightRanges {
			t.Run(fam.name+"/"+wr.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(29))
				trials := 4
				if testing.Short() {
					trials = 2
				}
				fs := NewFrontierScratch()
				for trial := 0; trial < trials; trial++ {
					g := fam.build(rng.Intn(900)+80, int64(trial)+17)
					wg := reweight(g, wr.lo, wr.hi, rng)
					n := wg.NumNodes()
					unweighted := wg.Unweighted()
					want := make([]int32, n)
					got := make([]int32, n)
					bq := queue.NewBucket(wg.MaxWeight())
					src := graph.NodeID(rng.Intn(n))
					WDistances(wg, src, want, bq)
					for _, w := range workerSweep {
						if err := WFrontierDistancesCtx(context.Background(), wg, unweighted, src, got, w, fs); err != nil {
							t.Fatal(err)
						}
						for v := 0; v < n; v++ {
							if got[v] != want[v] {
								t.Fatalf("%s/%s workers=%d src=%d node %d: frontier %d, dial %d",
									fam.name, wr.name, w, src, v, got[v], want[v])
							}
						}
					}
				}
			})
		}
	}
}

// TestExactFarnessFrontierMatchesExactFarness checks the two all-sources
// oracles are interchangeable: same farness vector, bit for bit, at every
// worker count.
func TestExactFarnessFrontierMatchesExactFarness(t *testing.T) {
	g := gen.Social(700, 19)
	want := ExactFarness(g, 4)
	for _, w := range frontierWorkerSweep(t) {
		got := ExactFarnessFrontier(g, w)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("workers=%d node %d: frontier %v, per-source %v", w, v, got[v], want[v])
			}
		}
	}
}

// TestAllPairsFrontierMatchesAllPairs cross-checks the full distance matrix,
// row by row from the frontier engine, on a small community graph (dense
// enough to exercise the pull path).
func TestAllPairsFrontierMatchesAllPairs(t *testing.T) {
	g := gen.Community(300, 7)
	want := AllPairs(g)
	got := make([]int32, g.NumNodes())
	fs := NewFrontierScratch()
	for v := range want {
		FrontierDistances(g, graph.NodeID(v), got, 4, fs)
		for w := range want[v] {
			if got[w] != want[v][w] {
				t.Fatalf("d(%d,%d): frontier %d, sequential %d", v, w, got[w], want[v][w])
			}
		}
	}
}

// TestFrontierCtxCanceled: a pre-canceled context aborts both kernels with a
// context error instead of finishing the traversal.
func TestFrontierCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.Web(500, 3)
	dist := make([]int32, g.NumNodes())
	if err := FrontierDistancesCtx(ctx, g, 0, dist, 4, nil); err == nil {
		t.Fatal("FrontierDistancesCtx: expected a context error")
	}
	rng := rand.New(rand.NewSource(1))
	wg := reweight(g, 1, 9, rng)
	if err := WFrontierDistancesCtx(ctx, wg, false, 0, dist, 4, nil); err == nil {
		t.Fatal("WFrontierDistancesCtx: expected a context error")
	}
}

// TestAccumulateLanes compares the branch-avoiding lane accumulator against
// the obvious branchy loop on random masks, including lane counts below the
// full 64-bit width.
func TestAccumulateLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		lanes := rng.Intn(MSBFSWidth) + 1
		mask := rng.Uint64()
		if lanes < 64 {
			mask &= (1 << uint(lanes)) - 1
		}
		d := int64(rng.Intn(1000))
		got := make([]int64, lanes)
		want := make([]int64, lanes)
		for i := range want {
			want[i] = int64(rng.Intn(100))
			got[i] = want[i]
		}
		AccumulateLanes(got, mask, d)
		for lane := range want {
			if mask&(1<<uint(lane)) != 0 {
				want[lane] += d
			}
		}
		for lane := range want {
			if got[lane] != want[lane] {
				t.Fatalf("trial %d lane %d (mask %#x d %d): branchless %d, branchy %d",
					trial, lane, mask, d, got[lane], want[lane])
			}
		}
	}
}

// TestNzb pins the nonzero-bit helper the branch-avoiding rewrites lean on.
func TestNzb(t *testing.T) {
	cases := []struct {
		x    uint64
		want uint64
	}{
		{0, 0}, {1, 1}, {2, 1}, {1 << 63, 1}, {^uint64(0), 1}, {0xdeadbeef, 1},
	}
	for _, c := range cases {
		if got := nzb(c.x); got != c.want {
			t.Fatalf("nzb(%#x) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestBranchlessCommitMatchesBranchy property-checks the scalar update the
// multi-source commit loop performs per node against an if-based reference:
// the partial-lane counter delta and the full-saturation detector must agree
// for every (old, arriving, active) triple.
func TestBranchlessCommitMatchesBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 5000; trial++ {
		lanes := rng.Intn(MSBFSWidth) + 1
		var active uint64
		if lanes == 64 {
			active = ^uint64(0)
		} else {
			active = (1 << uint(lanes)) - 1
		}
		old := rng.Uint64() & active
		nw := rng.Uint64() & active &^ old
		now := old | nw

		// Branch-avoiding form (mirrors msbfs.go).
		wasSeen := nzb(old)
		notFull := nzb(now ^ active)
		deltaBranchless := int((wasSeen^1)&notFull) - int(wasSeen&(notFull^1))
		fullDiffContribution := nw ^ active

		// Branchy reference: the counter tracks nodes that are seen by some
		// lane but not yet all lanes.
		deltaBranchy := 0
		if old == 0 && now != active {
			deltaBranchy = 1
		} else if old != 0 && now == active {
			deltaBranchy = -1
		}
		if deltaBranchless != deltaBranchy {
			t.Fatalf("old=%#x nw=%#x active=%#x: branchless delta %d, branchy %d",
				old, nw, active, deltaBranchless, deltaBranchy)
		}
		// fullDiff accumulates nw^active; it is zero across a level exactly
		// when every commit arrived with the full mask.
		if (fullDiffContribution == 0) != (nw == active) {
			t.Fatalf("old=%#x nw=%#x active=%#x: fullDiff contribution inconsistent", old, nw, active)
		}
	}
}

// TestMultiSourceFarnessMatchesExact runs the branchless multi-source kernel
// end to end against per-source BFS sums on each family — the equivalence
// test for the branch-avoiding visit-loop rewrites.
func TestMultiSourceFarnessMatchesExact(t *testing.T) {
	for _, fam := range genFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			g := fam.build(600, 47)
			n := g.NumNodes()
			batch := randomBatch(rng, n)
			_, far := multiSourceFarness(g, batch)
			dist := make([]int32, n)
			for lane, src := range batch {
				Distances(g, src, dist, nil)
				sum, _ := Sum(dist)
				if far[lane] != sum {
					t.Fatalf("%s lane %d (src %d): batched farness %d, per-source %d",
						fam.name, lane, src, far[lane], sum)
				}
			}
		})
	}
}
