package bfs

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestPointToPointBasics(t *testing.T) {
	g := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	cases := []struct {
		s, t graph.NodeID
		want int32
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 4}, {4, 0, 4}, {1, 3, 2},
		{0, 5, -1}, // node 5 isolated
	}
	for _, c := range cases {
		if got := PointToPoint(g, c.s, c.t); got != c.want {
			t.Errorf("d(%d,%d) = %d, want %d", c.s, c.t, got, c.want)
		}
	}
}

// Edge cases that must return without allocating the full n-sized scratch:
// src == dst (any graph), an isolated endpoint (the cheap disconnected
// case), and the single-node graph.
func TestPointToPointEdgeCasesAllocFree(t *testing.T) {
	g := graph.FromEdges(5, [][2]int32{{0, 1}, {1, 2}}) // nodes 3, 4 isolated
	single := graph.FromEdges(1, nil)
	cases := []struct {
		name string
		g    *graph.Graph
		s, t graph.NodeID
		want int32
	}{
		{"src==dst", g, 2, 2, 0},
		{"isolated src", g, 3, 0, Unreached},
		{"isolated dst", g, 0, 4, Unreached},
		{"both isolated", g, 3, 4, Unreached},
		{"single-node", single, 0, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := PointToPoint(c.g, c.s, c.t); got != c.want {
				t.Fatalf("d(%d,%d) = %d, want %d", c.s, c.t, got, c.want)
			}
			allocs := testing.AllocsPerRun(20, func() { PointToPoint(c.g, c.s, c.t) })
			if allocs != 0 {
				t.Fatalf("d(%d,%d) allocated %.0f objects, want 0", c.s, c.t, allocs)
			}
		})
	}
}

// Disconnected pairs with non-isolated endpoints still answer -1 (via the
// search), and the search stops after exploring the smaller component.
func TestPointToPointDisconnectedComponents(t *testing.T) {
	g := graph.FromEdges(7, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}})
	for _, c := range [][2]graph.NodeID{{0, 3}, {3, 0}, {2, 6}} {
		if got := PointToPoint(g, c[0], c[1]); got != Unreached {
			t.Fatalf("d(%d,%d) = %d, want %d", c[0], c[1], got, Unreached)
		}
	}
}

// Property: bidirectional distance equals BFS distance for random pairs on
// random graphs (including disconnected ones).
func TestPointToPointMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 2
		b := graph.NewBuilder(n)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		dist := make([]int32, n)
		for trial := 0; trial < 12; trial++ {
			s := graph.NodeID(rng.Intn(n))
			tt := graph.NodeID(rng.Intn(n))
			Distances(g, s, dist, nil)
			if got := PointToPoint(g, s, tt); got != dist[tt] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// p2pCase is a graph with BFS rows from a few sources, for checking
// PointToPoint against the plain BFS.
type p2pCase struct {
	name string
	g    *graph.Graph
	src  []graph.NodeID
	rows [][]int32
}

func p2pCases(rng *rand.Rand) []p2pCase {
	fams := []struct {
		name string
		g    *graph.Graph
	}{
		{"community", gen.Community(1200, 3)},
		{"web", gen.Web(700, 3)},
		{"social", gen.Social(1600, 3)},
		{"road", gen.Road(500, 3)},
	}
	var cases []p2pCase
	for _, f := range fams {
		c := p2pCase{name: f.name, g: f.g}
		for range 4 {
			s := graph.NodeID(rng.Intn(f.g.NumNodes()))
			row := make([]int32, f.g.NumNodes())
			Distances(f.g, s, row, nil)
			c.src, c.rows = append(c.src, s), append(c.rows, row)
		}
		cases = append(cases, c)
	}
	return cases
}

// TestPointToPointFamiliesMatchBFS: on the four generator families, of
// different sizes and queried round-robin so the pooled scratch keeps
// moving between graph sizes, every distance equals the plain BFS.
func TestPointToPointFamiliesMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := p2pCases(rng)
	for q := range 400 {
		c := cases[q%len(cases)]
		i := rng.Intn(len(c.src))
		tt := graph.NodeID(rng.Intn(c.g.NumNodes()))
		if got, want := PointToPoint(c.g, c.src[i], tt), c.rows[i][tt]; got != want {
			t.Fatalf("%s: d(%d,%d) = %d, BFS %d", c.name, c.src[i], tt, got, want)
		}
	}
}

// TestPointToPointConcurrent: concurrent searches over graphs of different
// sizes each get their own scratch (run under -race).
func TestPointToPointConcurrent(t *testing.T) {
	cases := p2pCases(rand.New(rand.NewSource(6)))
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for q := range 200 {
				c := cases[(q+w)%len(cases)]
				i := rng.Intn(len(c.src))
				tt := graph.NodeID(rng.Intn(c.g.NumNodes()))
				if got, want := PointToPoint(c.g, c.src[i], tt), c.rows[i][tt]; got != want {
					errs <- c.name
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Fatalf("%s: a concurrent search disagreed with the BFS", name)
	}
}

func BenchmarkPointToPointVsBFS(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 30000)
	n := g.NumNodes()
	dist := make([]int32, n)
	b.Run("bidirectional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PointToPoint(g, graph.NodeID(i%n), graph.NodeID((i*7919+13)%n))
		}
	})
	b.Run("full-bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Distances(g, graph.NodeID(i%n), dist, nil)
		}
	})
}

// TestP2PScratchEpochWrap: when the epoch counter wraps, begin clears the
// stamps, so no stamp from before the wrap reads as current.
func TestP2PScratchEpochWrap(t *testing.T) {
	var sc p2pScratch
	sc.begin(4)
	sc.epoch = ^uint32(0)
	sc.side[0][2] = p2pCell{1, 7}
	sc.side[1][3] = p2pCell{1, 9}
	sc.begin(4)
	if sc.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", sc.epoch)
	}
	for i := range sc.side {
		for v, c := range sc.side[i] {
			if c != (p2pCell{}) {
				t.Fatalf("side %d node %d kept %+v across the wrap", i, v, c)
			}
		}
	}
}
