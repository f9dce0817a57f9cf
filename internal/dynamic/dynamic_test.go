package dynamic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
)

func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		_ = b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Build()
}

func checkAgainstScratch(t *testing.T, ix *Index) {
	t.Helper()
	g := ix.Snapshot()
	want := bfs.ExactFarness(g, 1)
	for v := 0; v < g.NumNodes(); v++ {
		if ix.Farness(graph.NodeID(v)) != want[v] {
			t.Fatalf("node %d: index %v, scratch %v", v, ix.Farness(graph.NodeID(v)), want[v])
		}
	}
}

func TestNewMatchesExact(t *testing.T) {
	ix, err := New(ring(10), 2)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstScratch(t, ix)
	if ix.NumNodes() != 10 || ix.Degree(0) != 2 {
		t.Fatal("basic accessors broken")
	}
}

func TestNewRejectsDisconnected(t *testing.T) {
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {2, 3}})
	if _, err := New(g, 1); err == nil {
		t.Fatal("expected error for disconnected input")
	}
}

func TestAddEdgeChord(t *testing.T) {
	// Adding a chord across a ring shortens many distances.
	ix, err := New(ring(12), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AddEdge(0, 6); err != nil {
		t.Fatal(err)
	}
	if ix.UpdatedLast == 0 {
		t.Fatal("chord must affect some nodes")
	}
	if ix.UpdatedLast == ix.NumNodes() {
		t.Log("all nodes affected (acceptable for a diameter chord)")
	}
	checkAgainstScratch(t, ix)
	if !ix.HasEdge(0, 6) || !ix.HasEdge(6, 0) {
		t.Fatal("edge not recorded")
	}
}

func TestAddEdgeNoOpCases(t *testing.T) {
	ix, _ := New(ring(6), 1)
	if err := ix.AddEdge(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := ix.AddEdge(0, 1); err != nil { // already present
		t.Fatal(err)
	}
	if ix.UpdatedLast != 0 {
		t.Fatal("no-op should refresh nothing")
	}
	if err := ix.AddEdge(0, 99); err == nil {
		t.Fatal("out of range should error")
	}
	checkAgainstScratch(t, ix)
}

func TestAddEdgeTriangleFilter(t *testing.T) {
	// Closing a triangle over adjacent-distance endpoints changes nothing:
	// |d(x,u)-d(x,v)| <= 1 for all x when u,v share a neighbour at equal
	// distance... construct: path 0-1-2 plus 0-3, add edge {0,2}? d(x,0)
	// and d(x,2) differ by 2 for x=2... use equidistant endpoints instead.
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	ix, _ := New(g, 1)
	// 1 and 2 are equidistant from the *other* nodes (0 and 3), so only
	// the endpoints themselves — whose mutual distance drops 2 → 1 — are
	// affected.
	if err := ix.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if ix.UpdatedLast != 2 {
		t.Fatalf("square diagonal should affect exactly its endpoints, got %d", ix.UpdatedLast)
	}
	checkAgainstScratch(t, ix)
}

func TestRemoveEdge(t *testing.T) {
	ix, _ := New(ring(8), 1)
	if err := ix.AddEdge(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := ix.RemoveEdge(0, 4); err != nil {
		t.Fatal(err)
	}
	checkAgainstScratch(t, ix)
	if ix.HasEdge(0, 4) {
		t.Fatal("edge still present")
	}
}

func TestRemoveEdgeGuards(t *testing.T) {
	ix, _ := New(ring(6), 1)
	if err := ix.RemoveEdge(0, 3); err == nil {
		t.Fatal("absent edge should error")
	}
	// Removing a bridge must be refused.
	g := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	ix2, _ := New(g, 1)
	if err := ix2.RemoveEdge(0, 1); err == nil {
		t.Fatal("bridge removal should be refused")
	}
	if !ix2.HasEdge(0, 1) {
		t.Fatal("refused removal must restore the edge")
	}
	checkAgainstScratch(t, ix2)
}

func TestTopK(t *testing.T) {
	// Star: centre is the unique most central node.
	g := graph.FromEdges(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	ix, _ := New(g, 1)
	top := ix.TopK(1)
	if len(top) != 1 || top[0] != 0 {
		t.Fatalf("TopK = %v, want [0]", top)
	}
	if got := len(ix.TopK(99)); got != 5 {
		t.Fatalf("TopK clamp: %d", got)
	}
	if got := ix.TopK(-1); len(got) != 0 {
		t.Fatalf("TopK(-1) = %v, want none", got)
	}
}

// Property: a random sequence of insertions and (safe) deletions keeps the
// index equal to the from-scratch computation.
func TestRandomMutationSequence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 5
		// Start from a random tree (connected).
		b := graph.NewBuilder(n)
		for i := 1; i < n; i++ {
			_ = b.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i))
		}
		g := b.Build()
		ix, err := New(g, 2)
		if err != nil {
			return false
		}
		var added [][2]graph.NodeID
		for step := 0; step < 15; step++ {
			if len(added) > 0 && rng.Intn(3) == 0 {
				// Remove a previously added (non-tree) edge.
				i := rng.Intn(len(added))
				e := added[i]
				if ix.HasEdge(e[0], e[1]) {
					if err := ix.RemoveEdge(e[0], e[1]); err != nil {
						return false
					}
				}
				added = append(added[:i], added[i+1:]...)
			} else {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				if u == v || ix.HasEdge(u, v) {
					continue
				}
				if err := ix.AddEdge(u, v); err != nil {
					return false
				}
				added = append(added, [2]graph.NodeID{u, v})
			}
		}
		snap := ix.Snapshot()
		want := bfs.ExactFarness(snap, 1)
		for v := range want {
			if ix.Farness(graph.NodeID(v)) != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The point of the incremental index: on small-diameter graphs most node
// pairs are nearly equidistant to a new edge's endpoints, so few farness
// values need refreshing. (On a path the filter correctly marks nearly
// everyone — a chord really does change global distances there.)
func TestLocalityOfUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 300
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i))
	}
	for i := 0; i < 2500; i++ {
		_ = b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g := b.Build()
	ix, _ := New(g, 2)
	total := 0
	edges := 0
	for i := 0; i < 10; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v || ix.HasEdge(u, v) {
			continue
		}
		if err := ix.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		total += ix.UpdatedLast
		edges++
	}
	if edges == 0 {
		t.Skip("no insertions drawn")
	}
	avg := float64(total) / float64(edges)
	if avg > float64(n)/3 {
		t.Fatalf("avg affected = %.1f of %d nodes — filter not selective on a dense graph", avg, n)
	}
	checkAgainstScratch(t, ix)
}

// BenchmarkUpdateVsRecompute times one edge insert on the index against a
// full recompute (bfs.ExactFarness) and the index build, on a 3,000-node
// graph of each generator family with 2 workers. An update op is the same 20
// random inserts into a fresh index (the build is not timed), reported per
// insert as ms/update with the share of nodes the filter marked.
func BenchmarkUpdateVsRecompute(b *testing.B) {
	const workers, inserts = 2, 20
	families := []struct {
		name string
		gen  func(int, int64) *graph.Graph
	}{
		{"web", gen.Web}, {"social", gen.Social}, {"community", gen.Community}, {"road", gen.Road},
	}
	for _, fam := range families {
		g := fam.gen(3000, 1)
		rng := rand.New(rand.NewSource(1))
		var edges [][2]graph.NodeID
		for len(edges) < inserts {
			u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
			if u != v && !g.HasEdge(u, v) {
				edges = append(edges, [2]graph.NodeID{u, v})
			}
		}
		b.Run(fam.name+"/update", func(b *testing.B) {
			affected := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix, err := New(g, workers)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, e := range edges {
					if err := ix.AddEdge(e[0], e[1]); err != nil {
						b.Fatal(err)
					}
					affected += ix.UpdatedLast
				}
			}
			updates := float64(b.N * inserts)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/updates, "ms/update")
			b.ReportMetric(100*float64(affected)/updates/float64(g.NumNodes()), "affected%")
		})
		b.Run(fam.name+"/recompute", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bfs.ExactFarness(g, workers)
			}
		})
		b.Run(fam.name+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := New(g, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
