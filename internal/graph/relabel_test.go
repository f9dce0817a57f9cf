package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomGraph builds a random simple graph with n nodes and ~3n edge
// attempts.
func randomGraph(rng *rand.Rand, n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		_ = b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func randomWeighted(rng *rand.Rand, n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		_ = b.AddWeightedEdge(u, v, int32(rng.Intn(7)+1))
	}
	return b.Build()
}

// degreePerm numbers nodes by descending degree, ties by ascending id.
func degreePerm(g *Graph) []NodeID {
	n := g.NumNodes()
	byDeg := make([]NodeID, n)
	for i := range byDeg {
		byDeg[i] = NodeID(i)
	}
	sort.SliceStable(byDeg, func(i, j int) bool { return g.Degree(byDeg[i]) > g.Degree(byDeg[j]) })
	perm := make([]NodeID, n)
	for p, v := range byDeg {
		perm[v] = NodeID(p)
	}
	return perm
}

// checkPermutation asserts perm is a permutation of [0, n).
func checkPermutation(t *testing.T, perm []NodeID, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("permutation length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for v, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			t.Fatalf("perm[%d] = %d is out of range or repeated", v, p)
		}
		seen[p] = true
	}
}

// Property: BFSOrder and a degree ordering are permutations, and Permute
// under either one preserves the edge set (and passes Validate) on random
// graphs.
func TestRelabelPreservesGraph(t *testing.T) {
	for _, mode := range []struct {
		name  string
		order func(*Graph) []NodeID
	}{
		{"degree", degreePerm},
		{"bfs", func(g *Graph) []NodeID { return BFSOrder(g, 4) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				n := rng.Intn(60) + 2
				g := randomGraph(rng, n)
				perm := mode.order(g)
				checkPermutation(t, perm, n)
				g2 := Permute(g, perm)
				if err := g2.Validate(); err != nil {
					t.Fatalf("permuted graph invalid: %v", err)
				}
				if g2.NumNodes() != n || g2.NumEdges() != g.NumEdges() {
					return false
				}
				ok := true
				g.Edges(func(u, v NodeID) {
					if !g2.HasEdge(perm[u], perm[v]) {
						ok = false
					}
				})
				return ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The BFS ordering starts at the min-degree node (lowest id on ties); on a
// path graph it yields a bandwidth-1 numbering (every edge connects
// consecutive new ids at most 2 apart, exactly the CM property).
func TestBFSOrderOnPath(t *testing.T) {
	g := pathGraph(10)
	pos := BFSOrder(g, 1)
	if pos[0] != 0 && pos[9] != 0 {
		t.Fatalf("BFS positions %v, want an endpoint of the path first", pos)
	}
	Permute(g, pos).Edges(func(u, v NodeID) {
		d := int(v - u)
		if d < 0 {
			d = -d
		}
		if d > 2 {
			t.Fatalf("path relabeling has bandwidth %d edge {%d,%d}", d, u, v)
		}
	})
}

// Property: BFSOrder is bit-identical at every worker count, and it ignores
// edge weights — a weighted graph orders exactly like its unit-weight copy.
func TestRelabelWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 300)
	wg := randomWeighted(rng, 300)
	b := NewBuilder(wg.NumNodes())
	wg.Edges(func(u, v NodeID) { _ = b.AddEdge(u, v) })
	unit := b.Build()
	for _, in := range []*Graph{g, wg} {
		ref := BFSOrder(in, 1)
		for _, workers := range []int{2, 3, 4, 7, 8} {
			got := BFSOrder(in, workers)
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("workers %d: pos[%d] = %d, want %d", workers, v, got[v], ref[v])
				}
			}
		}
	}
	ref, got := BFSOrder(unit, 1), BFSOrder(wg, 1)
	for v := range ref {
		if got[v] != ref[v] {
			t.Fatalf("weighted pos[%d] = %d, unit-weight copy %d", v, got[v], ref[v])
		}
	}
}
