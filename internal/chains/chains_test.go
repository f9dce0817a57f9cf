package chains

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/graph"
)

func TestFindDangling(t *testing.T) {
	// Hub 0 with a dangling tail 1-2-3; the stub triangle 0-4-5 is itself
	// a pendant cycle chain (4 and 5 have degree 2).
	g := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {0, 5}, {4, 5}})
	r := Find(g)
	if len(r.Chains) != 2 {
		t.Fatalf("chains = %d, want 2 (%+v)", len(r.Chains), r.Chains)
	}
	var c *Chain
	for i := range r.Chains {
		if r.Chains[i].Type == Dangling {
			c = &r.Chains[i]
		}
	}
	if c == nil || c.U != 0 || c.V != -1 {
		t.Fatalf("chains = %+v, want a dangling chain from 0", r.Chains)
	}
	want := []graph.NodeID{1, 2, 3}
	for i := range want {
		if c.Interior[i] != want[i] {
			t.Fatalf("interior = %v, want %v", c.Interior, want)
		}
	}
	if r.Removed != 5 {
		t.Errorf("Removed = %d, want 5", r.Removed)
	}
}

func TestFindSingleLeaf(t *testing.T) {
	// A single leaf off a triangle is a dangling chain of length 1; the
	// triangle's other two (degree-2) nodes form a pendant cycle.
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	r := Find(g)
	var leaf *Chain
	for i := range r.Chains {
		if r.Chains[i].Type == Dangling {
			leaf = &r.Chains[i]
		}
	}
	if leaf == nil || len(leaf.Interior) != 1 || leaf.Interior[0] != 3 {
		t.Fatalf("chains = %+v, want dangling [3]", r.Chains)
	}
}

func TestFindCycleChain(t *testing.T) {
	// Pendant cycle 0-1-2-3-0 where 0 also anchors a triangle 0-4-5.
	// Note the "anchor triangle" 0-4-5 is itself a second pendant cycle
	// (nodes 4 and 5 have degree 2).
	g := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {0, 5}, {4, 5}})
	r := Find(g)
	if len(r.Chains) != 2 {
		t.Fatalf("chains = %+v, want 2 cycle chains", r.Chains)
	}
	for _, c := range r.Chains {
		if c.Type != Cycle || c.U != 0 || c.V != 0 {
			t.Fatalf("chain = %+v", c)
		}
	}
	if len(r.Chains[0].Interior)+len(r.Chains[1].Interior) != 5 {
		t.Fatalf("interiors = %+v", r.Chains)
	}
}

func TestFindParallel(t *testing.T) {
	// Two anchors 0 and 4 (each with an extra triangle to be degree ≥3),
	// connected by chain 0-1-2-3-4 and chain 0-8-4.
	g := graph.FromEdges(11, [][2]int32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, // long chain, interior 1,2,3
		{0, 8}, {8, 4}, // short chain, interior 8
		{0, 5}, {0, 6}, {5, 6}, // triangle at 0
		{4, 7}, {4, 9}, {7, 9}, // triangle at 4
		{5, 10}, {6, 10}, // keep 5,6 at degree 3
	})
	r := Find(g)
	var between04 int
	for _, c := range r.Chains {
		if c.Type == Parallel && ((c.U == 0 && c.V == 4) || (c.U == 4 && c.V == 0)) {
			between04++
		}
	}
	// Node 10 forms a third parallel chain between 5 and 6; only the two
	// 0↔4 chains are asserted here.
	if between04 != 2 {
		t.Fatalf("parallel chains between 0 and 4 = %d, want 2 (%+v)", between04, r.Chains)
	}
}

func TestWholeGraphPathAndCycle(t *testing.T) {
	path := graph.FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if r := Find(path); !r.WholeGraph {
		t.Error("path graph should be flagged WholeGraph")
	}
	cycle := graph.FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	if r := Find(cycle); !r.WholeGraph {
		t.Error("cycle graph should be flagged WholeGraph")
	}
}

func TestInteriorDistanceAgainstBFS(t *testing.T) {
	// Graph: anchors 0 and 4 connected by interior chain 1-2-3 and by a
	// direct edge; plus stubs to give anchors degree ≥ 3.
	g := graph.FromEdges(9, [][2]int32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4},
		{0, 4},
		{0, 5}, {5, 6}, {6, 0}, // triangle at 0 (nodes 5,6 degree 2 -> also chains, ignore)
		{4, 7}, {7, 8}, {8, 4},
	})
	r := Find(g)
	var chain *Chain
	for i := range r.Chains {
		if r.Chains[i].Type == Parallel {
			chain = &r.Chains[i]
		}
	}
	if chain == nil {
		t.Fatalf("no parallel chain found: %+v", r.Chains)
	}
	dist := make([]int32, g.NumNodes())
	for src := int32(0); src < int32(g.NumNodes()); src++ {
		interiorSet := map[graph.NodeID]bool{}
		for _, x := range chain.Interior {
			interiorSet[x] = true
		}
		if interiorSet[src] {
			continue // formula applies to sources outside the chain
		}
		bfs.Distances(g, src, dist, nil)
		for i, x := range chain.Interior {
			got := chain.InteriorDistance(dist[chain.U], dist[chain.V], i)
			if got != dist[x] {
				t.Errorf("src %d interior %d: formula %d, BFS %d", src, x, got, dist[x])
			}
		}
	}
}

// Property: on random "caterpillar" constructions every chain's formulas
// agree with BFS for all outside sources and the discovered interiors are
// disjoint.
func TestChainsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Core: random connected graph with min degree 3-ish.
		nc := rng.Intn(6) + 4
		b := graph.NewGrowingBuilder()
		for i := 1; i < nc; i++ {
			_ = b.AddEdge(int32(rng.Intn(i)), int32(i))
		}
		for i := 0; i < 3*nc; i++ {
			_ = b.AddEdge(int32(rng.Intn(nc)), int32(rng.Intn(nc)))
		}
		next := int32(nc)
		// Attach random chains: dangling, cycles, parallels.
		for c := 0; c < rng.Intn(5)+1; c++ {
			l := rng.Intn(4) + 1
			u := int32(rng.Intn(nc))
			prev := u
			for j := 0; j < l; j++ {
				_ = b.AddEdge(prev, next)
				prev = next
				next++
			}
			switch rng.Intn(3) {
			case 0: // dangling: leave it
			case 1: // cycle: close back to u
				_ = b.AddEdge(prev, u)
			case 2: // parallel: close to another core node
				v := int32(rng.Intn(nc))
				if v != u {
					_ = b.AddEdge(prev, v)
				}
			}
		}
		g := b.Build()
		r := Find(g)
		if r.WholeGraph {
			return true // degenerate accept
		}
		seen := map[graph.NodeID]bool{}
		for _, c := range r.Chains {
			for _, x := range c.Interior {
				if seen[x] {
					return false // overlapping interiors
				}
				seen[x] = true
				if g.Degree(x) > 2 {
					return false
				}
			}
		}
		// Distance formulas.
		dist := make([]int32, g.NumNodes())
		for src := int32(0); src < int32(g.NumNodes()); src++ {
			if seen[src] {
				continue
			}
			bfs.Distances(g, src, dist, nil)
			for ci := range r.Chains {
				c := &r.Chains[ci]
				var dv int32
				if c.V >= 0 {
					dv = dist[c.V]
				}
				for i, x := range c.Interior {
					if got := c.InteriorDistance(dist[c.U], dv, i); got != dist[x] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeString(t *testing.T) {
	for _, c := range []struct {
		tp   Type
		want string
	}{{Dangling, "dangling(type-1)"}, {Cycle, "cycle(type-2)"}, {Parallel, "parallel(type-3/4)"}, {Type(0), "invalid"}} {
		if c.tp.String() != c.want {
			t.Errorf("String(%d) = %q, want %q", c.tp, c.tp.String(), c.want)
		}
	}
}
