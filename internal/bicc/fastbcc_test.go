package bicc

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// decomposeBoth runs both engines and fails the test unless the parallel
// decomposition at every requested worker count is bit-identical to the
// sequential one — the acceptance bar of the FAST-BCC engine.
func decomposeBoth(t *testing.T, name string, g *graph.WGraph, workerCounts []int) *Decomposition {
	t.Helper()
	seq := DecomposeAlgo(g, AlgoSequential, 1)
	if err := seq.Validate(g); err != nil {
		t.Fatalf("%s: sequential: %v", name, err)
	}
	for _, w := range workerCounts {
		par := DecomposeAlgo(g, AlgoParallel, w)
		if err := par.Validate(g); err != nil {
			t.Fatalf("%s: parallel workers=%d: %v", name, w, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: parallel workers=%d differs from sequential (seq %d blocks, par %d blocks)",
				name, w, seq.NumBlocks(), par.NumBlocks())
		}
	}
	return seq
}

var sweepWorkers = []int{1, 2, 4, 8}

// TestParallelMatchesSequentialFamilies pins the bit-identical contract on
// all four generator families of Table I, which carry the block structure
// the reduction pipeline actually sees (twins, chains, communities, grids).
func TestParallelMatchesSequentialFamilies(t *testing.T) {
	families := []struct {
		name  string
		build func(n int, seed int64) *graph.Graph
		n     int
	}{
		{"web", gen.Web, 4000},
		{"social", gen.Social, 4000},
		{"community", gen.Community, 4000},
		{"road", gen.Road, 4000},
	}
	for _, f := range families {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			g := f.build(f.n, 7).ToWeighted()
			decomposeBoth(t, f.name, g, sweepWorkers)
		})
	}
}

// TestParallelMatchesSequentialDegenerate covers the shapes where the
// fence/skeleton machinery has edge cases: disconnected graphs, trees
// (every edge a bridge, empty skeleton), a single edge, isolated nodes,
// and the empty graph.
func TestParallelMatchesSequentialDegenerate(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.WGraph
	}{
		{"empty", func() *graph.WGraph { return graph.NewWBuilder(0).Build() }},
		{"isolated-nodes", func() *graph.WGraph { return graph.NewWBuilder(9).Build() }},
		{"single-edge", func() *graph.WGraph {
			return graph.FromWeightedEdges(2, [][3]int32{{0, 1, 3}})
		}},
		{"single-edge-with-isolated", func() *graph.WGraph {
			return graph.FromWeightedEdges(6, [][3]int32{{2, 4, 1}})
		}},
		{"path", func() *graph.WGraph {
			b := graph.NewWBuilder(64)
			for i := 1; i < 64; i++ {
				_ = b.AddEdge(int32(i-1), int32(i), 1)
			}
			return b.Build()
		}},
		{"bridges-only-tree", func() *graph.WGraph {
			rng := rand.New(rand.NewSource(11))
			n := 600
			b := graph.NewWBuilder(n)
			for i := 1; i < n; i++ {
				_ = b.AddEdge(int32(rng.Intn(i)), int32(i), int32(1+rng.Intn(5)))
			}
			return b.Build()
		}},
		{"fig2", paperFig2},
		{"disconnected-mixed", func() *graph.WGraph {
			// Triangle, path, star and isolated nodes in one graph.
			return graph.FromWeightedEdges(14, [][3]int32{
				{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, // triangle
				{4, 5, 1}, {5, 6, 1}, // path
				{8, 9, 1}, {8, 10, 1}, {8, 11, 1}, // star
			})
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			decomposeBoth(t, c.name, c.build(), sweepWorkers)
		})
	}
}

// TestParallelMatchesSequentialRandom sweeps random multi-component graphs
// with bridges, cycles and isolated nodes through both engines.
func TestParallelMatchesSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(300)
		b := graph.NewWBuilder(n)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u != v {
				_ = b.AddEdge(u, v, int32(1+rng.Intn(4)))
			}
		}
		decomposeBoth(t, "random", b.Build(), []int{1, 2, 4, 8})
	}
}

// TestAutoPolicy checks the engine auto-selection: sequential below the
// edge threshold or at one worker, parallel above it with workers.
func TestAutoPolicy(t *testing.T) {
	small := paperFig2()
	if _, tm := DecomposeTimed(small, AlgoAuto, 8); tm.Algorithm != AlgoSequential.String() {
		t.Errorf("small graph at 8 workers ran %q, want sequential", tm.Algorithm)
	}
	big := gen.Social(6000, 3).ToWeighted()
	if big.NumEdges() < parallelMinEdges {
		t.Fatalf("test graph too small: %d edges", big.NumEdges())
	}
	if _, tm := DecomposeTimed(big, AlgoAuto, 1); tm.Algorithm != AlgoSequential.String() {
		t.Errorf("big graph at 1 worker ran %q, want sequential", tm.Algorithm)
	}
	if _, tm := DecomposeTimed(big, AlgoAuto, 4); tm.Algorithm != AlgoParallel.String() {
		t.Errorf("big graph at 4 workers ran %q, want parallel", tm.Algorithm)
	}
	if _, tm := DecomposeTimed(big, AlgoSequential, 4); tm.Algorithm != AlgoSequential.String() {
		t.Errorf("forced sequential ran %q", tm.Algorithm)
	}
	if _, tm := DecomposeTimed(small, AlgoParallel, 1); tm.Algorithm != AlgoParallel.String() {
		t.Errorf("forced parallel ran %q", tm.Algorithm)
	}
}

// TestAlgorithmNames pins the engine names RunStats.BiCC and the bicc layer
// study's rows report.
func TestAlgorithmNames(t *testing.T) {
	for a, want := range map[Algorithm]string{
		AlgoAuto: "auto", AlgoSequential: "hopcroft-tarjan", AlgoParallel: "fastbcc",
	} {
		if got := a.String(); got != want {
			t.Errorf("Algorithm(%d).String() = %q, want %q", a, got, want)
		}
	}
}

// FuzzDecompose feeds arbitrary edge lists through both engines and checks
// that the decomposition invariants hold, both engines agree bit-for-bit,
// and nothing panics.
func FuzzDecompose(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 2, 0, 2, 2, 3})
	f.Add([]byte{3})
	f.Add([]byte{16, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0]%64)
		b := graph.NewWBuilder(n)
		for i := 1; i+1 < len(data); i += 2 {
			u := int32(int(data[i]) % n)
			v := int32(int(data[i+1]) % n)
			if u != v {
				_ = b.AddEdge(u, v, int32(1+int(data[i])%3))
			}
		}
		g := b.Build()
		seq := DecomposeAlgo(g, AlgoSequential, 1)
		if err := seq.Validate(g); err != nil {
			t.Fatalf("sequential invariants: %v", err)
		}
		par := DecomposeAlgo(g, AlgoParallel, 4)
		if err := par.Validate(g); err != nil {
			t.Fatalf("parallel invariants: %v", err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatal("engines disagree")
		}
		for v := 0; v < n; v++ {
			if seq.IsCut[v] != (len(seq.BlocksOf[v]) >= 2) {
				t.Fatalf("cut flag of %d inconsistent with BlocksOf", v)
			}
		}
	})
}
