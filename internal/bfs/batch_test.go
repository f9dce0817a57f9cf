package bfs

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queue"
)

// genFamilies are the four generator families of the paper's evaluation;
// the multi-source kernels must agree with the per-source ones on each.
var genFamilies = []struct {
	name  string
	build func(n int, seed int64) *graph.Graph
}{
	{"web", gen.Web},
	{"social", gen.Social},
	{"community", gen.Community},
	{"road", gen.Road},
}

// randomBatch draws a batch of 1–64 sources, duplicates allowed (duplicate
// sampled sources cannot happen in the estimators, but the kernels document
// support for them).
func randomBatch(rng *rand.Rand, n int) []graph.NodeID {
	k := rng.Intn(MSBFSWidth) + 1
	batch := make([]graph.NodeID, k)
	for i := range batch {
		batch[i] = graph.NodeID(rng.Intn(n))
	}
	return batch
}

// reweight copies g into a weighted graph with random weights in [lo, hi].
func reweight(g *graph.Graph, lo, hi int32, rng *rand.Rand) *graph.WGraph {
	wb := graph.NewWBuilder(g.NumNodes())
	g.Edges(func(u, v graph.NodeID) {
		w := lo + rng.Int31n(hi-lo+1)
		if err := wb.AddEdge(u, v, w); err != nil {
			panic(err)
		}
	})
	return wb.Build()
}

// TestMultiSourceMatchesDistancesOnFamilies cross-checks the unweighted
// multi-source kernel against per-source BFS on all four generator
// families with random batch sizes.
func TestMultiSourceMatchesDistancesOnFamilies(t *testing.T) {
	for _, fam := range genFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 6; trial++ {
				n := rng.Intn(400) + 80
				g := fam.build(n, int64(trial)+11)
				n = g.NumNodes()
				batch := randomBatch(rng, n)
				rows := make([][]int32, len(batch))
				for i := range rows {
					rows[i] = make([]int32, n)
					Fill(rows[i])
				}
				multiSource(g, batch, func(v graph.NodeID, lane int, d int32) {
					if rows[lane][v] != Unreached {
						t.Fatalf("duplicate visit lane %d node %d", lane, v)
					}
					rows[lane][v] = d
				})
				want := make([]int32, n)
				for lane, s := range batch {
					Distances(g, s, want, nil)
					for v := 0; v < n; v++ {
						if rows[lane][v] != want[v] {
							t.Fatalf("%s n=%d lane=%d (src %d) node %d: batched %d, per-source %d",
								fam.name, n, lane, s, v, rows[lane][v], want[v])
						}
					}
				}
			}
		})
	}
}

// TestMultiSourceWMatchesWDistances cross-checks the lane-masked Dial
// kernel against per-source Dial on randomly weighted versions of the four
// families, including duplicate sources, plus the all-weights-one path via
// MultiSourceW. The "fallback" range (named after a retired per-source
// path) puts weights above 512 through the lane-masked Dial, whose ring
// spans any maximum weight.
func TestMultiSourceWMatchesWDistances(t *testing.T) {
	weightRanges := []struct {
		name   string
		lo, hi int32
	}{
		{"unit", 1, 1},
		{"small", 1, 7},
		{"wide", 1, 60},
		{"fallback", 512, 512 + 80},
	}
	for _, fam := range genFamilies {
		for _, wr := range weightRanges {
			t.Run(fam.name+"/"+wr.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(13))
				for trial := 0; trial < 4; trial++ {
					g := fam.build(rng.Intn(300)+60, int64(trial)+31)
					wg := reweight(g, wr.lo, wr.hi, rng)
					n := wg.NumNodes()
					batch := randomBatch(rng, n)
					batch[0] = batch[len(batch)-1] // ensure a duplicate source when len > 1
					rows := make([][]int32, len(batch))
					for i := range rows {
						rows[i] = make([]int32, n)
					}
					s := NewMSScratch(n)
					multiSourceWRows(wg, wg.Unweighted(), batch, s, rows)
					want := make([]int32, n)
					bq := queue.NewBucket(wg.MaxWeight())
					for lane, src := range batch {
						WDistances(wg, src, want, bq)
						for v := 0; v < n; v++ {
							if rows[lane][v] != want[v] {
								t.Fatalf("%s/%s lane=%d (src %d) node %d: batched %d, per-source %d",
									fam.name, wr.name, lane, src, v, rows[lane][v], want[v])
							}
						}
					}
				}
			})
		}
	}
}

// TestMultiSourceWVisitOnce checks the exactly-once visit contract of the
// masked-Dial kernel directly (multiSourceWRows would hide double visits).
func TestMultiSourceWVisitOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.Community(250, 9)
	wg := reweight(g, 1, 9, rng)
	batch := randomBatch(rng, wg.NumNodes())
	seen := make(map[[2]int32]bool)
	s := NewMSScratch(wg.NumNodes())
	MultiSourceWMasksInto(wg, batch, s, expandMask(func(v graph.NodeID, lane int, d int32) {
		key := [2]int32{int32(lane), v}
		if seen[key] {
			t.Fatalf("duplicate visit for lane %d node %d", lane, v)
		}
		seen[key] = true
	}))
	dist := make([]int32, wg.NumNodes())
	bq := queue.NewBucket(wg.MaxWeight())
	for lane, src := range batch {
		WDistances(wg, src, dist, bq)
		for v := 0; v < wg.NumNodes(); v++ {
			if want := dist[v] != Unreached; seen[[2]int32{int32(lane), int32(v)}] != want {
				t.Fatalf("lane %d node %d: visited=%v, reachable=%v", lane, v, !want, want)
			}
		}
	}
}

// multiSourceWRows is the row-space reference of MultiSourceW: it fills
// rows[lane][v] with the distance from batch[lane] to v (Unreached where
// unreachable) by scattering every visit.
func multiSourceWRows(g *graph.WGraph, unweighted bool, batch []graph.NodeID, s *MSScratch, rows [][]int32) {
	for lane := range batch {
		Fill(rows[lane])
	}
	MultiSourceW(g, unweighted, batch, s, expandMask(func(v graph.NodeID, lane int, d int32) {
		rows[lane][v] = d
	}))
}

// runBatches runs sources through multiSourceWRows in ≤64-wide batches on
// one reused scratch, the way each worker of core's traversal driver runs
// its batches, and returns every source's distance row.
func runBatches(g *graph.WGraph, sources []graph.NodeID, done <-chan struct{}) [][]int32 {
	n := g.NumNodes()
	s := NewMSScratch(n)
	s.SetDone(done)
	out := make([][]int32, len(sources))
	for i := range out {
		out[i] = make([]int32, n)
	}
	for base := 0; base < len(sources); base += MSBFSWidth {
		hi := min(base+MSBFSWidth, len(sources))
		multiSourceWRows(g, g.Unweighted(), sources[base:hi], s, out[base:hi])
	}
	return out
}

// TestRunBatchesMatchesPerSource runs many batches through one reused
// scratch and checks every row against per-source BFS.
func TestRunBatchesMatchesPerSource(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.Social(900, 3)
	n := g.NumNodes()
	sources := make([]graph.NodeID, 200) // 4 batches
	for i := range sources {
		sources[i] = graph.NodeID(rng.Intn(n))
	}
	got := runBatches(g.ToWeighted(), sources, nil)
	want := make([]int32, n)
	for i, s := range sources {
		Distances(g, s, want, nil)
		for v := 0; v < n; v++ {
			if got[i][v] != want[v] {
				t.Fatalf("source %d node %d: batched %d, per-source %d", i, v, got[i][v], want[v])
			}
		}
	}
}
