package graph

import (
	"math/rand"
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

func randomWGraph(rng *rand.Rand, n int) *WGraph {
	b := NewWBuilder(n)
	for i := 0; i < 3*n; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		_ = b.AddEdge(u, v, int32(rng.Intn(7)+1))
	}
	return b.Build()
}

// checkPermutation asserts Perm and Inv are inverse permutations of [0, n).
func checkPermutation(t *testing.T, r *Relabeling, n int) {
	t.Helper()
	if len(r.Perm) != n || len(r.Inv) != n {
		t.Fatalf("permutation lengths (%d, %d), want %d", len(r.Perm), len(r.Inv), n)
	}
	for v := 0; v < n; v++ {
		p := r.Perm[v]
		if p < 0 || int(p) >= n {
			t.Fatalf("Perm[%d] = %d out of range", v, p)
		}
		if r.Inv[p] != NodeID(v) {
			t.Fatalf("Inv[Perm[%d]] = %d, want %d", v, r.Inv[p], v)
		}
	}
}

// Property: relabeling under either mode is a permutation round trip that
// preserves the edge set (and passes Validate) on random graphs.
func TestRelabelPreservesGraph(t *testing.T) {
	for _, mode := range []RelabelMode{RelabelDegree, RelabelBFS} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				n := rng.Intn(60) + 2
				g := randomGraph(rng, n)
				g2, r := Relabel(g, mode, 4)
				checkPermutation(t, r, n)
				if err := g2.Validate(); err != nil {
					t.Fatalf("relabeled graph invalid: %v", err)
				}
				if g2.NumEdges() != g.NumEdges() {
					return false
				}
				ok := true
				g.Edges(func(u, v NodeID) {
					if !g2.HasEdge(r.Perm[u], r.Perm[v]) {
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

// Property: weighted relabeling carries each edge's weight through the
// renumbering.
func TestRelabelWPreservesWeights(t *testing.T) {
	for _, mode := range []RelabelMode{RelabelDegree, RelabelBFS} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				n := rng.Intn(50) + 2
				g := randomWGraph(rng, n)
				g2, r := RelabelW(g, mode, 3)
				checkPermutation(t, r, n)
				if err := g2.Validate(); err != nil {
					t.Fatalf("relabeled wgraph invalid: %v", err)
				}
				ok := true
				g.Edges(func(u, v NodeID, w int32) {
					got, has := g2.EdgeWeight(r.Perm[u], r.Perm[v])
					if !has || got != w {
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

// RelabelNone is the identity and allocates nothing.
func TestRelabelNoneIsIdentity(t *testing.T) {
	g := pathGraph(5)
	g2, r := Relabel(g, RelabelNone, 2)
	if g2 != g || r != nil {
		t.Fatalf("RelabelNone returned (%p, %v), want the input graph and nil", g2, r)
	}
	wg := g.ToWeighted()
	wg2, wr := RelabelW(wg, RelabelNone, 2)
	if wg2 != wg || wr != nil {
		t.Fatalf("RelabelW none returned (%p, %v), want the input graph and nil", wg2, wr)
	}
}

// The degree ordering sorts new ids by descending degree with ascending
// old-id tie-breaks.
func TestDegreeOrderSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 80)
	g2, r := Relabel(g, RelabelDegree, 4)
	for nv := 1; nv < g2.NumNodes(); nv++ {
		dPrev, d := g2.Degree(NodeID(nv-1)), g2.Degree(NodeID(nv))
		if dPrev < d {
			t.Fatalf("degree order violated at new id %d: deg %d before %d", nv, dPrev, d)
		}
		if dPrev == d && r.Inv[nv-1] >= r.Inv[nv] {
			t.Fatalf("tie-break violated at new id %d: old %d before %d", nv, r.Inv[nv-1], r.Inv[nv])
		}
	}
}

// The BFS ordering starts at the min-degree node (lowest id on ties); on a
// path graph it yields a bandwidth-1 numbering (every edge connects
// consecutive new ids at most 2 apart, exactly the CM property).
func TestBFSOrderOnPath(t *testing.T) {
	g := pathGraph(10)
	g2, r := Relabel(g, RelabelBFS, 1)
	if r.Inv[0] != 0 && r.Inv[0] != 9 {
		t.Fatalf("BFS root = %d, want an endpoint of the path", r.Inv[0])
	}
	g2.Edges(func(u, v NodeID) {
		d := int(v - u)
		if d < 0 {
			d = -d
		}
		if d > 2 {
			t.Fatalf("path relabeling has bandwidth %d edge {%d,%d}", d, u, v)
		}
	})
}

// Property: the permutation and the rebuilt CSR are bit-identical at every
// worker count.
func TestRelabelWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 300)
	wg := randomWGraph(rng, 300)
	for _, mode := range []RelabelMode{RelabelDegree, RelabelBFS} {
		ref, rRef := Relabel(g, mode, 1)
		wRef, _ := RelabelW(wg, mode, 1)
		for _, workers := range []int{2, 3, 4, 7, 8} {
			got, r := Relabel(g, mode, workers)
			for v := range rRef.Perm {
				if r.Perm[v] != rRef.Perm[v] {
					t.Fatalf("mode %v workers %d: Perm[%d] = %d, want %d", mode, workers, v, r.Perm[v], rRef.Perm[v])
				}
			}
			for v := 0; v < ref.NumNodes(); v++ {
				a, b := ref.Neighbors(NodeID(v)), got.Neighbors(NodeID(v))
				if len(a) != len(b) {
					t.Fatalf("mode %v workers %d: node %d degree differs", mode, workers, v)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("mode %v workers %d: adjacency of %d differs", mode, workers, v)
					}
				}
			}
			wGot, _ := RelabelW(wg, mode, workers)
			for v := 0; v < wRef.NumNodes(); v++ {
				a, b := wGot.Neighbors(NodeID(v)), wRef.Neighbors(NodeID(v))
				wa, wb := wGot.Weights(NodeID(v)), wRef.Weights(NodeID(v))
				for i := range a {
					if a[i] != b[i] || wa[i] != wb[i] {
						t.Fatalf("mode %v workers %d: weighted adjacency of %d differs", mode, workers, v)
					}
				}
			}
		}
	}
}
