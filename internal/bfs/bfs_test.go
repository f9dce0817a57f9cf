package bfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		_ = b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func randomConnected(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(int32(rng.Intn(i)), int32(i)) // random spanning tree
	}
	extra := rng.Intn(2 * n)
	for i := 0; i < extra; i++ {
		_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func TestDistancesPath(t *testing.T) {
	g := path(6)
	dist := make([]int32, 6)
	Distances(g, 0, dist, nil)
	for i := int32(0); i < 6; i++ {
		if dist[i] != i {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
	Distances(g, 3, dist, nil)
	want := []int32{3, 2, 1, 0, 1, 2}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestDistancesUnreachable(t *testing.T) {
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {2, 3}})
	dist := make([]int32, 4)
	Distances(g, 0, dist, nil)
	if dist[2] != Unreached || dist[3] != Unreached {
		t.Error("nodes in other component should be Unreached")
	}
	sum, reached := Sum(dist)
	if sum != 1 || reached != 2 {
		t.Errorf("Sum = %d,%d want 1,2", sum, reached)
	}
}

func TestWDistancesWeightedPath(t *testing.T) {
	// 0 -5- 1 -1- 2, plus direct 0 -7- 2: shortest 0→2 is 6.
	g := graph.FromWeightedEdges(3, [][3]int32{{0, 1, 5}, {1, 2, 1}, {0, 2, 7}})
	dist := make([]int32, 3)
	WDistances(g, 0, dist, nil)
	if dist[0] != 0 || dist[1] != 5 || dist[2] != 6 {
		t.Fatalf("dist = %v, want [0 5 6]", dist)
	}
}

func TestWDistancesEqualsBFSOnUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(rng, 50)
	wg := g.ToWeighted()
	d1 := make([]int32, 50)
	d2 := make([]int32, 50)
	Distances(g, 13, d1, nil)
	WDistances(wg, 13, d2, nil)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("dist[%d]: BFS=%d Dial=%d", i, d1[i], d2[i])
		}
	}
	WDistancesBFS(wg, 13, d2, nil)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("WDistancesBFS dist[%d]: %d vs %d", i, d2[i], d1[i])
		}
	}
}

// Property: Dial distances satisfy the triangle condition over every edge
// and match a reference Bellman-Ford on random weighted graphs.
func TestWDistancesAgainstBellmanFord(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 2
		b := graph.NewWBuilder(n)
		for i := 1; i < n; i++ {
			_ = b.AddEdge(int32(rng.Intn(i)), int32(i), int32(rng.Intn(6)+1))
		}
		for i := 0; i < n; i++ {
			_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(6)+1))
		}
		g := b.Build()
		src := int32(rng.Intn(n))
		dist := make([]int32, n)
		WDistances(g, src, dist, nil)

		// Bellman-Ford reference.
		const inf = int32(1 << 30)
		ref := make([]int32, n)
		for i := range ref {
			ref[i] = inf
		}
		ref[src] = 0
		for it := 0; it < n; it++ {
			changed := false
			g.Edges(func(u, v int32, w int32) {
				if ref[u]+w < ref[v] {
					ref[v] = ref[u] + w
					changed = true
				}
				if ref[v]+w < ref[u] {
					ref[u] = ref[v] + w
					changed = true
				}
			})
			if !changed {
				break
			}
		}
		for i := range ref {
			want := ref[i]
			if want == inf {
				want = Unreached
			}
			if dist[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// oneLaneDistances runs the direction-optimising (push/pull) level-sync
// kernel as a one-lane sweep, the way core traverses a single source, and
// writes its row into dist.
func oneLaneDistances(g *graph.Graph, src graph.NodeID, dist []int32, s *MSScratch) {
	Fill(dist)
	MultiSourceMasksInto(g, []graph.NodeID{src}, s, func(v graph.NodeID, _ uint64, d int32) { dist[v] = d })
}

// Property: a one-lane push/pull sweep agrees with plain BFS, with the
// scratch reused across sweeps the way the traversal drivers reuse it.
func TestHybridDistancesMatchesBFS(t *testing.T) {
	s := new(MSScratch)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(120) + 2
		g := randomConnected(rng, n)
		src := int32(rng.Intn(n))
		d1 := make([]int32, n)
		d2 := make([]int32, n)
		Distances(g, src, d1, nil)
		oneLaneDistances(g, src, d2, s)
		for i := range d1 {
			if d1[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridDistancesDenseBottomUp(t *testing.T) {
	// A dense graph with a hub-heavy frontier drives mf past mu/alpha on the
	// first level, so the one-lane pull branch actually runs.
	rng := rand.New(rand.NewSource(3))
	n := 60
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(int32(rng.Intn(i)), int32(i))
	}
	for i := 0; i < 6*n; i++ {
		_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g := b.Build()
	d1 := make([]int32, n)
	d2 := make([]int32, n)
	Distances(g, 0, d1, nil)
	oneLaneDistances(g, 0, d2, new(MSScratch))
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("dist[%d]: BFS=%d sweep=%d", i, d1[i], d2[i])
		}
	}
}

// One-lane sweeps through MultiSourceW — the push/pull level-sync kernel on
// unit weights, the lane-masked Dial otherwise — match WDistancesAuto on
// both unweighted and weighted graphs.
func TestWHybridAutoMatchesWAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 90
	g := randomConnected(rng, n)
	for _, wg := range []*graph.WGraph{g.ToWeighted(), reweight(g, 1, 9, rng)} {
		unweighted := wg.Unweighted()
		s := NewScratch(n, wg.MaxWeight())
		ms := new(MSScratch)
		got := make([]int32, n)
		for src := int32(0); src < 10; src++ {
			WDistancesAuto(wg, unweighted, src, s)
			multiSourceWRows(wg, unweighted, []graph.NodeID{src}, ms, [][]int32{got})
			for i := range s.Dist {
				if s.Dist[i] != got[i] {
					t.Fatalf("unweighted=%v src %d dist[%d]: auto=%d sweep=%d", unweighted, src, i, s.Dist[i], got[i])
				}
			}
		}
	}
}

func TestExactFarnessPath(t *testing.T) {
	// Path 0-1-2-3: farness = [6,4,4,6].
	g := path(4)
	far := ExactFarness(g, 2)
	want := []float64{6, 4, 4, 6}
	for i := range want {
		if far[i] != want[i] {
			t.Errorf("farness[%d] = %v, want %v", i, far[i], want[i])
		}
	}
}

func TestExactFarnessWMatchesUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnected(rng, 40)
	f1 := ExactFarness(g, 3)
	f2 := ExactFarnessW(g.ToWeighted(), 3)
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("farness[%d]: %v vs %v", i, f1[i], f2[i])
		}
	}
}

func TestEccentricity(t *testing.T) {
	g := path(5)
	dist := make([]int32, 5)
	Distances(g, 0, dist, nil)
	if Eccentricity(dist) != 4 {
		t.Errorf("Eccentricity = %d, want 4", Eccentricity(dist))
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 30)
	ap := AllPairs(g)
	for u := 0; u < 30; u++ {
		for v := 0; v < 30; v++ {
			if ap[u][v] != ap[v][u] {
				t.Fatalf("asymmetric distances %d,%d", u, v)
			}
		}
		if ap[u][u] != 0 {
			t.Fatalf("d(%d,%d) != 0", u, u)
		}
	}
}

// TestParallelExactFarness: the all-sources oracle, parallel across sources,
// equals one plain BFS sum per source at every worker count.
func TestParallelExactFarness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnected(rng, 200)
	want := make([]float64, g.NumNodes())
	dist := make([]int32, g.NumNodes())
	for v := range want {
		Distances(g, graph.NodeID(v), dist, nil)
		sum, _ := Sum(dist)
		want[v] = float64(sum)
	}
	for _, w := range []int{1, 2, 3} {
		for v, got := range ExactFarness(g, w) {
			if got != want[v] {
				t.Fatalf("workers=%d node %d: %v, want %v", w, v, got, want[v])
			}
		}
	}
}
