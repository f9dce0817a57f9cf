package bicc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// paperFig2 builds a graph shaped like the paper's Fig. 2 example: several
// blocks glued at cut vertices.
func paperFig2() *graph.Graph {
	// Triangle {0,1,2}; 2 is a cut to bridge 2-3; 3 is a cut to triangle
	// {3,4,5}; 5 is a cut to edge 5-6.
	return graph.FromWeightedEdges(7, [][3]int32{
		{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
		{2, 3, 1},
		{3, 4, 1}, {4, 5, 1}, {3, 5, 1},
		{5, 6, 1},
	})
}

func TestDecomposeFig2(t *testing.T) {
	g := paperFig2()
	d := Decompose(g)
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
	if d.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", d.NumBlocks())
	}
	wantCuts := map[graph.NodeID]bool{2: true, 3: true, 5: true}
	for v := 0; v < g.NumNodes(); v++ {
		if d.IsCut[v] != wantCuts[graph.NodeID(v)] {
			t.Errorf("IsCut[%d] = %v, want %v", v, d.IsCut[v], wantCuts[graph.NodeID(v)])
		}
	}
	s := d.Summarize()
	if s.Count != 4 || s.Max != 3 {
		t.Errorf("stats = %+v, want Count 4 Max 3", s)
	}
}

func TestDecomposeSingleBlock(t *testing.T) {
	// A cycle is one biconnected component, no cuts.
	g := graph.FromWeightedEdges(5, [][3]int32{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 0, 1}})
	d := Decompose(g)
	if d.NumBlocks() != 1 {
		t.Fatalf("blocks = %d, want 1", d.NumBlocks())
	}
	for v := 0; v < 5; v++ {
		if d.IsCut[v] {
			t.Errorf("cycle node %d must not be a cut", v)
		}
	}
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeTree(t *testing.T) {
	// A star: every edge its own block; centre is the only cut.
	g := graph.FromWeightedEdges(5, [][3]int32{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1}})
	d := Decompose(g)
	if d.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", d.NumBlocks())
	}
	if !d.IsCut[0] {
		t.Error("star centre must be a cut")
	}
	for v := 1; v < 5; v++ {
		if d.IsCut[v] {
			t.Errorf("leaf %d must not be a cut", v)
		}
	}
}

func TestCommonBlock(t *testing.T) {
	g := paperFig2()
	d := Decompose(g)
	if b := d.CommonBlock(0, 1); b < 0 {
		t.Error("0 and 1 share the triangle block")
	}
	if b := d.CommonBlock(0, 6); b >= 0 {
		t.Error("0 and 6 must not share a block")
	}
	if b := d.CommonBlock(2, 3); b < 0 {
		t.Error("2 and 3 share the bridge block")
	}
}

// bruteCuts recomputes articulation points by deleting each node and
// counting components.
func bruteCuts(g *graph.Graph) []bool {
	n := g.NumNodes()
	out := make([]bool, n)
	_, base := graph.Components(g)
	for v := 0; v < n; v++ {
		keep := make([]bool, n)
		for i := range keep {
			keep[i] = i != v
		}
		sub, _, _ := graph.Subgraph(g, keep)
		_, c := graph.Components(sub)
		// Removing an isolated-ish node must not be counted: compare
		// against base components minus the one the node may have formed.
		if c > base {
			out[v] = true
		}
	}
	return out
}

// blockSurvivesDeletion reports whether the edges of blk keep its nodes
// connected after node x and its edges are deleted.
func blockSurvivesDeletion(blk []Edge, nodes []graph.NodeID, x graph.NodeID) bool {
	parent := make(map[graph.NodeID]graph.NodeID, len(nodes))
	var find func(v graph.NodeID) graph.NodeID
	find = func(v graph.NodeID) graph.NodeID {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, v := range nodes {
		parent[v] = v
	}
	sets := len(nodes) - 1
	for _, e := range blk {
		if e.U == x || e.V == x {
			continue
		}
		if ru, rv := find(e.U), find(e.V); ru != rv {
			parent[ru] = rv
			sets--
		}
	}
	return sets == 1
}

// checkOracle decomposes g at one worker and checks the result against brute
// force: Validate (every edge in exactly one block, canonical order), cut
// flags equal to bruteCuts, and every block of three or more nodes staying
// connected when any one of its nodes is deleted. Together these pin the
// block partition: two blocks merged at a cut form a block the cut
// disconnects, and a block split in two puts a non-cut node in two blocks.
// Every further worker count must reproduce the decomposition bit for bit.
func checkOracle(g *graph.Graph, workers ...int) error {
	d := DecomposeWorkers(g, 1)
	if err := d.Validate(g); err != nil {
		return err
	}
	want := bruteCuts(g)
	for v := range want {
		if d.IsCut[v] != want[v] {
			return fmt.Errorf("IsCut[%d] = %v, brute force says %v", v, d.IsCut[v], want[v])
		}
	}
	for b, nodes := range d.BlockNodes {
		if len(nodes) < 3 {
			continue
		}
		for _, x := range nodes {
			if !blockSurvivesDeletion(d.BlockEdges[b], nodes, x) {
				return fmt.Errorf("block %d falls apart without node %d", b, x)
			}
		}
	}
	for _, w := range workers {
		if !reflect.DeepEqual(DecomposeWorkers(g, w), d) {
			return fmt.Errorf("workers=%d decomposition differs from workers=1", w)
		}
	}
	return nil
}

// oracleWorkers are the worker counts every oracle input is decomposed at
// beside one worker.
var oracleWorkers = []int{2, 4, 8}

// TestDecomposeMatchesBruteForce checks the decomposition against the
// brute-force oracle on random connected graphs and on random
// multi-component graphs with bridges, cycles and isolated nodes.
func TestDecomposeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(25) + 3
		b := graph.NewBuilder(n)
		for i := 1; i < n; i++ {
			_ = b.AddWeightedEdge(int32(rng.Intn(i)), int32(i), 1)
		}
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			_ = b.AddWeightedEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), 1)
		}
		if err := checkOracle(b.Build(), oracleWorkers...); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}

	t.Run("random-multi-component", func(t *testing.T) {
		rng := rand.New(rand.NewSource(97))
		for trial := 0; trial < 40; trial++ {
			n := 10 + rng.Intn(300)
			b := graph.NewBuilder(n)
			m := rng.Intn(3 * n)
			for i := 0; i < m; i++ {
				u := int32(rng.Intn(n))
				v := int32(rng.Intn(n))
				if u != v {
					_ = b.AddWeightedEdge(u, v, int32(1+rng.Intn(4)))
				}
			}
			if err := checkOracle(b.Build(), oracleWorkers...); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	})
}

// TestParallelMatchesSequentialDegenerate runs degenerate shapes (empty,
// isolated nodes, a single edge, a path, a bridges-only tree, Fig. 2, a
// disconnected mix) through the brute-force oracle and checks that several
// workers reproduce one worker bit for bit.
func TestParallelMatchesSequentialDegenerate(t *testing.T) {
	shapes := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"empty", func() *graph.Graph { return graph.NewBuilder(0).Build() }},
		{"isolated-nodes", func() *graph.Graph { return graph.NewBuilder(9).Build() }},
		{"single-edge", func() *graph.Graph {
			return graph.FromWeightedEdges(2, [][3]int32{{0, 1, 3}})
		}},
		{"single-edge-with-isolated", func() *graph.Graph {
			return graph.FromWeightedEdges(6, [][3]int32{{2, 4, 1}})
		}},
		{"path", func() *graph.Graph {
			b := graph.NewBuilder(64)
			for i := 1; i < 64; i++ {
				_ = b.AddWeightedEdge(int32(i-1), int32(i), 1)
			}
			return b.Build()
		}},
		{"bridges-only-tree", func() *graph.Graph {
			rng := rand.New(rand.NewSource(11))
			n := 600
			b := graph.NewBuilder(n)
			for i := 1; i < n; i++ {
				_ = b.AddWeightedEdge(int32(rng.Intn(i)), int32(i), int32(1+rng.Intn(5)))
			}
			return b.Build()
		}},
		{"fig2", paperFig2},
		{"disconnected-mixed", func() *graph.Graph {
			// Triangle, path, star and isolated nodes in one graph.
			return graph.FromWeightedEdges(14, [][3]int32{
				{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, // triangle
				{4, 5, 1}, {5, 6, 1}, // path
				{8, 9, 1}, {8, 10, 1}, {8, 11, 1}, // star
			})
		}},
	}
	for _, c := range shapes {
		t.Run(c.name, func(t *testing.T) {
			if err := checkOracle(c.build(), oracleWorkers...); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCutVertices(t *testing.T) {
	g := paperFig2()
	d := Decompose(g)
	cuts := d.CutVertices()
	want := []graph.NodeID{2, 3, 5}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %v, want %v", cuts, want)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", cuts, want)
		}
	}
}

func TestDeepGraphNoOverflow(t *testing.T) {
	// 200k-node path: a recursive DFS would overflow; the iterative one
	// must not.
	n := 200_000
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddWeightedEdge(int32(i-1), int32(i), 1)
	}
	g := b.Build()
	d := Decompose(g)
	if d.NumBlocks() != n-1 {
		t.Fatalf("blocks = %d, want %d", d.NumBlocks(), n-1)
	}
}

// TestParallelMatchesSequentialFamilies checks that the four generator
// families of Table I decompose validly and bit-identically for several
// worker counts, including counts beyond GOMAXPROCS.
func TestParallelMatchesSequentialFamilies(t *testing.T) {
	families := []struct {
		name  string
		build func(n int, seed int64) *graph.Graph
	}{
		{"web", gen.Web},
		{"social", gen.Social},
		{"community", gen.Community},
		{"road", gen.Road},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			g := f.build(4000, 7)
			base := DecomposeWorkers(g, 1)
			if err := base.Validate(g); err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4, 8} {
				if !reflect.DeepEqual(DecomposeWorkers(g, w), base) {
					t.Fatalf("workers=%d decomposition differs from workers=1", w)
				}
			}
		})
	}
}

// TestDecomposeWorkersDeterministic checks the DecomposeWorkers contract on
// multi-component random graphs: every worker count decomposes
// bit-identically to one worker.
func TestDecomposeWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(180)
		b := graph.NewBuilder(n)
		// Sparse random edges without connecting: several components with
		// bridges, cycles and isolated nodes.
		m := n + rng.Intn(2*n)
		for i := 0; i < m; i++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u != v {
				_ = b.AddWeightedEdge(u, v, int32(1+rng.Intn(4)))
			}
		}
		g := b.Build()
		base := DecomposeWorkers(g, 1)
		if err := base.Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, w := range []int{2, 3, 4, 8} {
			got := DecomposeWorkers(g, w)
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("trial %d: workers=%d decomposition differs from sequential", trial, w)
			}
		}
	}
}

// FuzzDecompose feeds arbitrary edge lists through the decomposition and
// checks it against the brute-force oracle, checks that four workers
// reproduce one worker bit for bit, and that nothing panics.
func FuzzDecompose(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 2, 0, 2, 2, 3})
	f.Add([]byte{3})
	f.Add([]byte{16, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0]%64)
		b := graph.NewBuilder(n)
		for i := 1; i+1 < len(data); i += 2 {
			u := int32(int(data[i]) % n)
			v := int32(int(data[i+1]) % n)
			if u != v {
				_ = b.AddWeightedEdge(u, v, int32(1+int(data[i])%3))
			}
		}
		if err := checkOracle(b.Build(), 4); err != nil {
			t.Fatal(err)
		}
	})
}
