package sketch

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
)

// families builds one small connected graph per generator family.
func families(n int) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"web":       graph.Connect(gen.Web(n, 11)),
		"social":    graph.Connect(gen.Social(n, 22)),
		"community": graph.Connect(gen.Community(n, 33)),
		"road":      graph.Connect(gen.Road(n, 44)),
	}
}

// Property: the sketch's bounds bracket the true distance for random pairs
// on every generator family, and lower == upper implies equality.
func TestBoundsBracketExact(t *testing.T) {
	for name, g := range families(1500) {
		t.Run(name, func(t *testing.T) {
			n := g.NumNodes()
			sk := Build(g, Options{Clusters: 8, Workers: 4})
			rng := rand.New(rand.NewSource(7))
			dist := make([]int32, n)
			for trial := 0; trial < 40; trial++ {
				u := graph.NodeID(rng.Intn(n))
				bfs.Distances(g, u, dist, nil)
				for pair := 0; pair < 10; pair++ {
					v := graph.NodeID(rng.Intn(n))
					lo, hi, ok := sk.Bounds(u, v)
					if !ok {
						t.Fatalf("Bounds(%d,%d): no bound on a connected graph", u, v)
					}
					exact := dist[v]
					if lo > exact || exact > hi {
						t.Fatalf("Bounds(%d,%d) = [%d,%d], exact %d outside", u, v, lo, hi, exact)
					}
					if lo == hi && hi != exact {
						t.Fatalf("Bounds(%d,%d) claimed exact %d, want %d", u, v, hi, exact)
					}
				}
			}
		})
	}
}

// Property: the build is bit-identical at every worker count.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	for name, g := range families(1200) {
		t.Run(name, func(t *testing.T) {
			base := Build(g, Options{Clusters: 8, Workers: 1})
			for _, w := range []int{2, 4, 8} {
				sk := Build(g, Options{Clusters: 8, Workers: w})
				if sk.k != base.k || sk.r != base.r {
					t.Fatalf("workers=%d: shape (k=%d,r=%d) != (k=%d,r=%d)", w, sk.k, sk.r, base.k, base.r)
				}
				for i := range base.dist {
					if sk.dist[i] != base.dist[i] {
						t.Fatalf("workers=%d: dist[%d] = %d, want %d", w, i, sk.dist[i], base.dist[i])
					}
				}
				for i := range base.masks {
					if sk.masks[i] != base.masks[i] {
						t.Fatalf("workers=%d: masks[%d] = %#x, want %#x", w, i, sk.masks[i], base.masks[i])
					}
				}
			}
		})
	}
}

// Farness lower bounds must never exceed the exact farness. The sketch
// computes them once: a later call, at any worker count, returns the same
// slice, equal to a fresh computation at one worker.
func TestFarnessLowerBounds(t *testing.T) {
	for name, g := range families(800) {
		t.Run(name, func(t *testing.T) {
			sk := Build(g, Options{Clusters: 8, Workers: 4})
			lb := sk.FarnessLowerBounds(4)
			if again := sk.FarnessLowerBounds(1); &again[0] != &lb[0] {
				t.Fatal("a second call recomputed the bounds")
			}
			if !slices.Equal(lb, sk.farnessLowerBounds(1)) {
				t.Fatal("cached bounds differ from a fresh computation at one worker")
			}
			far := bfs.ExactFarness(g, 4)
			nonzero := 0
			for v := range lb {
				if float64(lb[v]) > far[v] {
					t.Fatalf("lb[%d] = %d exceeds exact farness %v", v, lb[v], far[v])
				}
				if lb[v] > 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Fatalf("all lower bounds are zero; the filter can never fire")
			}
		})
	}
}

// Query answers exactly regardless of which path (sketch or BFS fallback)
// served it, at every tolerance.
func TestQueryEscapeHatch(t *testing.T) {
	g := graph.Connect(gen.Social(1000, 5))
	n := g.NumNodes()
	sk := Build(g, Options{Clusters: 8})
	rng := rand.New(rand.NewSource(9))
	dist := make([]int32, n)
	sketchHits := 0
	for trial := 0; trial < 200; trial++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		bfs.Distances(g, u, dist, nil)
		d, fromSketch, err := sk.Query(context.Background(), g, u, v, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d != dist[v] {
			t.Fatalf("Query(%d,%d,tol=0) = %d, want %d (fromSketch=%v)", u, v, d, dist[v], fromSketch)
		}
		if fromSketch {
			sketchHits++
		}
		// At a loose tolerance the answer may be approximate but stays a
		// bounded overestimate.
		d2, _, err := sk.Query(context.Background(), g, u, v, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d2 < dist[v] || d2 > dist[v]+2 {
			t.Fatalf("Query(%d,%d,tol=2) = %d, want within [%d,%d]", u, v, d2, dist[v], dist[v]+2)
		}
	}
	if sketchHits == 0 {
		t.Fatal("tol=0 never answered from the sketch; exactness detection is broken")
	}
}

// Degenerate inputs: empty and single-node graphs, and a pair split across
// components (no common seed → ok=false).
func TestDegenerateGraphs(t *testing.T) {
	empty := graph.FromEdges(0, nil)
	sk := Build(empty, Options{})
	if sk.Clusters() != 0 || sk.Bytes() != 0 {
		t.Fatalf("empty graph: got %v", sk)
	}
	one := graph.FromEdges(1, nil)
	sk = Build(one, Options{})
	if lo, hi, ok := sk.Bounds(0, 0); !ok || lo != 0 || hi != 0 {
		t.Fatalf("single node self-pair: [%d,%d] ok=%v", lo, hi, ok)
	}
	// Two components: {0,1} and {2,3}. With clusters covering both sides, a
	// cross-component pair has no common seed.
	two := graph.FromEdges(4, [][2]int32{{0, 1}, {2, 3}})
	sk = Build(two, Options{Clusters: 4})
	if _, _, ok := sk.Bounds(0, 2); ok {
		t.Fatal("cross-component pair reported a bound")
	}
	if d, _, ok := sk.Distance(0, 2); ok || d != -1 {
		t.Fatalf("cross-component Distance = %d ok=%v, want -1 false", d, ok)
	}
	if d, fromSketch, err := sk.Query(context.Background(), two, 0, 2, 0); err != nil || fromSketch || d != -1 {
		t.Fatalf("cross-component Query = %d fromSketch=%v err=%v", d, fromSketch, err)
	}
}

// A canceled build returns an error, not a partial sketch.
func TestBuildCanceled(t *testing.T) {
	g := graph.Connect(gen.Web(2000, 3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sk, err := BuildContext(ctx, g, Options{Clusters: 8})
	if err == nil || sk != nil {
		t.Fatalf("pre-canceled build: sketch=%v err=%v", sk, err)
	}
}

func TestStringAndAccessors(t *testing.T) {
	g := graph.Connect(gen.Community(500, 1))
	sk := Build(g, Options{Clusters: 4, Radius: 2})
	if sk.Radius() != 2 || sk.Clusters() != 4 || sk.Seeds() == 0 || sk.Bytes() == 0 {
		t.Fatalf("accessors: %v", sk)
	}
	if !bytes.Contains([]byte(sk.String()), []byte("r=2")) {
		t.Fatalf("String: %s", sk)
	}
}
