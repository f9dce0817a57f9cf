package redundant

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/graph"
)

func TestDegree3Triangle(t *testing.T) {
	// Node 0 with neighbours {1,2,3} mutually adjacent (paper Fig. 1(e)),
	// plus extra structure so the neighbours stay.
	g := graph.FromWeightedEdges(6, [][3]int32{
		{0, 1, 1}, {0, 2, 1}, {0, 3, 1},
		{1, 2, 1}, {1, 3, 1}, {2, 3, 1},
		{1, 4, 1}, {2, 5, 1},
	})
	r := Find(g, nil)
	found := false
	for _, n := range r.Nodes {
		if n.V == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("node 0 should be redundant; got %+v", r.Nodes)
	}
}

func TestDegree4CycleNeighbourhood(t *testing.T) {
	// Node 0 adjacent to 4-cycle 1-2-3-4 (paper Fig. 1(f)): each
	// neighbour adjacent to exactly two other neighbours.
	g := graph.FromWeightedEdges(7, [][3]int32{
		{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1},
		{1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 1, 1},
		{1, 5, 1}, {3, 6, 1},
	})
	r := Find(g, nil)
	found := false
	for _, n := range r.Nodes {
		if n.V == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("node 0 should be redundant; got %+v", r.Nodes)
	}
}

func TestNotRedundantOnPath(t *testing.T) {
	// Star centre: no neighbour interconnection → not redundant.
	g := graph.FromWeightedEdges(4, [][3]int32{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}})
	r := Find(g, nil)
	if len(r.Nodes) != 0 {
		t.Fatalf("star centre must not be redundant: %+v", r.Nodes)
	}
}

func TestWeightedDetour(t *testing.T) {
	// Triangle neighbours but the detour edges are heavy: 0-x edges weight
	// 1, x-y edges weight 5 > 1+1 → 0 is NOT redundant.
	g := graph.FromWeightedEdges(5, [][3]int32{
		{0, 1, 1}, {0, 2, 1}, {0, 3, 1},
		{1, 2, 5}, {1, 3, 5}, {2, 3, 5},
		{1, 4, 1},
	})
	r := Find(g, nil)
	for _, nd := range r.Nodes {
		// Node 0's neighbour pairs need detours of length 5 > 1+1.
		// (Node 2 is legitimately redundant: its heavy v-edges make even
		// the weight-5 detours acceptable.)
		if nd.V == 0 {
			t.Fatalf("heavy detours must block redundancy of node 0: %+v", r.Nodes)
		}
	}
	// With detour weight exactly 2 the condition holds with equality.
	g2 := graph.FromWeightedEdges(5, [][3]int32{
		{0, 1, 1}, {0, 2, 1}, {0, 3, 1},
		{1, 2, 2}, {1, 3, 2}, {2, 3, 2},
		{1, 4, 1},
	})
	r2 := Find(g2, nil)
	if len(r2.Nodes) != 1 || r2.Nodes[0].V != 0 {
		t.Fatalf("equality detours should allow redundancy: %+v", r2.Nodes)
	}
}

func TestIndependence(t *testing.T) {
	// Two adjacent redundant candidates inside K5: only an independent
	// subset may be marked.
	b := graph.NewBuilder(5)
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			_ = b.AddWeightedEdge(i, j, 1)
		}
	}
	g := b.Build()
	r := Find(g, nil)
	for _, n := range r.Nodes {
		for _, x := range n.Nbrs {
			if r.Marked[x] {
				t.Fatalf("adjacent nodes %d and %d both marked", n.V, x)
			}
		}
	}
}

func TestProtected(t *testing.T) {
	g := graph.FromWeightedEdges(6, [][3]int32{
		{0, 1, 1}, {0, 2, 1}, {0, 3, 1},
		{1, 2, 1}, {1, 3, 1}, {2, 3, 1},
		{1, 4, 1}, {2, 5, 1},
	})
	prot := make([]bool, 6)
	prot[0] = true
	r := Find(g, prot)
	for _, n := range r.Nodes {
		if n.V == 0 {
			t.Fatal("protected node was marked")
		}
	}
}

// Property: removing the marked nodes never changes distances between the
// remaining nodes, and Algorithm 3's recovery is exact.
func TestRemovalPreservesDistances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 5
		b := graph.NewBuilder(n)
		for i := 1; i < n; i++ {
			_ = b.AddWeightedEdge(int32(rng.Intn(i)), int32(i), int32(rng.Intn(3)+1))
		}
		for i := 0; i < 3*n; i++ {
			_ = b.AddWeightedEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(3)+1))
		}
		g := b.Build()
		r := Find(g, nil)
		if len(r.Nodes) == 0 {
			return true
		}
		keep := make([]bool, n)
		for i := range keep {
			keep[i] = !r.Marked[i]
		}
		sub, toOld, toNew := graph.Subgraph(g, keep)
		apFull := bfs.AllPairs(g)
		apSub := bfs.AllPairs(sub)
		for u := 0; u < sub.NumNodes(); u++ {
			for v := 0; v < sub.NumNodes(); v++ {
				if apSub[u][v] != apFull[toOld[u]][toOld[v]] {
					return false
				}
			}
		}
		// Recovery: for every kept source, the redundant nodes' distances
		// follow from neighbours.
		for srcSub := 0; srcSub < sub.NumNodes(); srcSub++ {
			src := toOld[srcSub]
			distFull := make([]int32, n)
			for v := 0; v < n; v++ {
				distFull[v] = -1
			}
			for v := 0; v < sub.NumNodes(); v++ {
				distFull[toOld[v]] = apSub[srcSub][v]
			}
			for i := range r.Nodes {
				nd := &r.Nodes[i]
				if got := nd.Distance(distFull); got != apFull[src][nd.V] {
					return false
				}
			}
			_ = toNew
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
