package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(NodeID(i), NodeID(i+1)); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := FromEdges(4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []NodeID{0, 1, 2, 3} {
		if g.Degree(v) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
}

func TestBuilderDropsSelfLoopsAndDuplicates(t *testing.T) {
	b := NewBuilder(3)
	for _, e := range [][2]NodeID{{0, 1}, {1, 0}, {0, 1}, {1, 1}, {2, 2}, {1, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (self loops and duplicates dropped)", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 2); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Fatal("expected error for negative endpoint")
	}
}

func TestGrowingBuilder(t *testing.T) {
	b := NewGrowingBuilder()
	if err := b.AddEdge(5, 9); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestHasEdge(t *testing.T) {
	g := FromEdges(5, [][2]NodeID{{0, 1}, {1, 2}, {3, 4}})
	cases := []struct {
		u, v NodeID
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 2, true}, {3, 4, true},
		{0, 2, false}, {2, 3, false}, {0, 4, false}, {0, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEdgesIteration(t *testing.T) {
	g := FromEdges(4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}})
	var got [][2]NodeID
	g.Edges(func(u, v NodeID) { got = append(got, [2]NodeID{u, v}) })
	want := [][2]NodeID{{0, 1}, {1, 2}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestClone(t *testing.T) {
	g := pathGraph(5)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone size mismatch")
	}
	c.adj[0] = 99 // mutate clone
	if g.adj[0] == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestComponents(t *testing.T) {
	g := FromEdges(6, [][2]NodeID{{0, 1}, {1, 2}, {3, 4}})
	labels, count := Components(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("nodes 0,1,2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Error("nodes 3,4 should share a component")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Error("node 5 should be alone")
	}
}

func TestConnect(t *testing.T) {
	g := FromEdges(6, [][2]NodeID{{0, 1}, {2, 3}, {4, 5}})
	c := Connect(g)
	if !IsConnected(c) {
		t.Fatal("Connect result is not connected")
	}
	if c.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5 (3 original + 2 bridges)", c.NumEdges())
	}
	// Already-connected graphs are returned untouched.
	p := pathGraph(4)
	if Connect(p) != p {
		t.Error("Connect should return connected input unchanged")
	}
}

func TestIsConnectedTrivial(t *testing.T) {
	if !IsConnected(FromEdges(0, nil)) {
		t.Error("empty graph should count as connected")
	}
	if !IsConnected(FromEdges(1, nil)) {
		t.Error("single node should count as connected")
	}
	if IsConnected(FromEdges(2, nil)) {
		t.Error("two isolated nodes are disconnected")
	}
}

func TestSubgraph(t *testing.T) {
	g := FromEdges(5, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	keep := []bool{true, false, true, true, true}
	sub, toOld, toNew := Subgraph(g, keep)
	if sub.NumNodes() != 4 {
		t.Fatalf("sub nodes = %d, want 4", sub.NumNodes())
	}
	// Edges 2-3, 3-4, 4-0 survive; 0-1 and 1-2 die with node 1.
	if sub.NumEdges() != 3 {
		t.Fatalf("sub edges = %d, want 3", sub.NumEdges())
	}
	if toNew[1] != -1 {
		t.Error("removed node should map to -1")
	}
	for newID, oldID := range toOld {
		if toNew[oldID] != NodeID(newID) {
			t.Errorf("mapping mismatch: toOld[%d]=%d but toNew[%d]=%d", newID, oldID, oldID, toNew[oldID])
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDegrees(t *testing.T) {
	// Star with 4 leaves: hub degree 4, leaves degree 1.
	g := FromEdges(5, [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	s := Degrees(g)
	if s.Min != 1 || s.Max != 4 {
		t.Errorf("min/max = %d/%d, want 1/4", s.Min, s.Max)
	}
	if s.CountDeg1 != 4 {
		t.Errorf("CountDeg1 = %d, want 4", s.CountDeg1)
	}
	if s.CountDeg34 != 1 {
		t.Errorf("CountDeg34 = %d, want 1", s.CountDeg34)
	}
	if s.Mean != 8.0/5.0 {
		t.Errorf("Mean = %v, want 1.6", s.Mean)
	}
}

func TestBuilderParallelEdgesKeepMin(t *testing.T) {
	g := FromWeightedEdges(2, [][3]int32{{0, 1, 5}, {0, 1, 2}, {1, 0, 7}})
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 2 {
		t.Fatalf("EdgeWeight = %d,%v, want 2,true", w, ok)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRejectsBadWeight(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddWeightedEdge(0, 1, 0); err == nil {
		t.Fatal("expected error for zero weight")
	}
	if err := b.AddWeightedEdge(0, 1, -3); err == nil {
		t.Fatal("expected error for negative weight")
	}
}

// A graph whose every edge weighs 1 carries no weight array, however it
// was built: weight accessors then read 1 and Validate accepts it.
func TestUnitWeightsAreUnweighted(t *testing.T) {
	g := FromWeightedEdges(4, [][3]int32{{0, 1, 1}, {1, 2, 1}, {2, 3, 3}, {2, 3, 1}})
	if g.Weighted() {
		t.Fatal("all-ones weights kept a weight array")
	}
	if g.Weights(1) != nil || g.Weight(1, 0) != 1 || g.MaxWeight() != 1 {
		t.Fatalf("Weights %v, Weight %d, MaxWeight %d; want nil, 1, 1", g.Weights(1), g.Weight(1, 0), g.MaxWeight())
	}
	if w, ok := g.EdgeWeight(3, 2); !ok || w != 1 {
		t.Fatalf("EdgeWeight(3,2) = %d,%v, want 1,true", w, ok)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if FromEdges(3, nil).MaxWeight() != 0 {
		t.Fatal("edgeless graph has a positive MaxWeight")
	}
}

// Property: any random edge list builds a graph that passes Validate, and
// node/edge counts match the deduplicated input.
func TestBuilderValidatesRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 2
		b := NewBuilder(n)
		seen := map[[2]NodeID]bool{}
		for i := 0; i < rng.Intn(120); i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if err := b.AddEdge(u, v); err != nil {
				return false
			}
			if u != v {
				if u > v {
					u, v = v, u
				}
				seen[[2]NodeID{u, v}] = true
			}
		}
		g := b.Build()
		return g.Validate() == nil && g.NumEdges() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Subgraph preserves exactly the induced edges.
func TestSubgraphInducedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		b := NewBuilder(n)
		maxW := int32(rng.Intn(3) + 1) // 1: an unweighted graph
		for i := 0; i < 3*n; i++ {
			_ = b.AddWeightedEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), rng.Int31n(maxW)+1)
		}
		g := b.Build()
		keep := make([]bool, n)
		for i := range keep {
			keep[i] = rng.Intn(2) == 0
		}
		sub, toOld, _ := Subgraph(g, keep)
		// Every subgraph edge must exist in g between the mapped originals,
		// with its weight.
		ok := sub.Validate() == nil
		sub.Edges(func(u, v NodeID) {
			w, found := g.EdgeWeight(toOld[u], toOld[v])
			sw, _ := sub.EdgeWeight(u, v)
			if !found || w != sw {
				ok = false
			}
		})
		// The parallel builder and a contraction without contracted edges
		// produce the same arrays at any worker count.
		contracted := ContractInto(g, keep, make([]NodeID, n), nil, 3)
		if par := SubgraphInto(g, keep, make([]NodeID, n), 3); !reflect.DeepEqual(par, sub) || !reflect.DeepEqual(contracted, sub) {
			ok = false
		}
		// Count induced edges of g and compare.
		want := 0
		g.Edges(func(u, v NodeID) {
			if keep[u] && keep[v] {
				want++
			}
		})
		return ok && sub.NumEdges() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: WithEdge and WithoutEdge produce, array for array, the graph the
// Builder makes from the edited edge set, over random sequences of inserts
// and deletions.
func TestWithEdgeWithoutEdgeMatchBuilder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		edges := map[[2]NodeID]bool{}
		g := FromEdges(n, nil)
		for step := 0; step < 60; step++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			key := [2]NodeID{min(u, v), max(u, v)}
			if edges[key] {
				g = g.WithoutEdge(u, v)
				delete(edges, key)
			} else {
				g = g.WithEdge(u, v)
				edges[key] = true
			}
			var list [][2]NodeID
			for e := range edges {
				list = append(list, e)
			}
			want := FromEdges(n, list)
			if g.Validate() != nil || !slices.Equal(g.offsets, want.offsets) || !slices.Equal(g.adj, want.adj) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
