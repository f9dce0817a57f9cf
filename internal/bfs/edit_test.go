package bfs

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// TestEditEdgeNoOpsAndErrors: a self loop or an existing edge is a no-op
// insert that returns g itself and nothing affected; an out-of-range node, a
// missing edge's removal and a bridge's removal are errors with the texts
// the server answers with.
func TestEditEdgeNoOpsAndErrors(t *testing.T) {
	// A triangle 0-1-2 with a pendant 3 on node 2: {2,3} is a bridge.
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	cases := []struct {
		name string
		u, v graph.NodeID
		add  bool
		err  string // "" for a no-op
	}{
		{"self loop", 1, 1, true, ""},
		{"existing edge", 0, 1, true, ""},
		{"existing edge reversed", 1, 0, true, ""},
		{"insert out of range", 0, 4, true, "dynamic: edge {0,4} out of range"},
		{"remove out of range", -1, 2, false, "dynamic: edge {-1,2} out of range"},
		{"missing edge", 0, 3, false, "dynamic: edge {0,3} not present"},
		{"self loop removal", 2, 2, false, "dynamic: edge {2,2} not present"},
		{"bridge", 3, 2, false, "dynamic: removing {3,2} would disconnect the graph"},
	}
	for _, c := range cases {
		next, affected, err := EditEdge(g, c.u, c.v, c.add)
		switch {
		case c.err == "" && (err != nil || next != g || len(affected) != 0):
			t.Errorf("%s: got (%p, %v, %v), want the no-op (%p, [], nil)", c.name, next, affected, err, g)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err) || next != nil || affected != nil):
			t.Errorf("%s: got (%p, %v, %v), want the error %q", c.name, next, affected, err, c.err)
		}
	}
	if err := g.Validate(); err != nil || g.NumEdges() != 4 {
		t.Fatalf("the input graph changed: %v, %d edges", err, g.NumEdges())
	}
}

// TestEditEdgeClaim: over random connected graphs and a mix of inserts and
// removals, every accepted edit returns a valid graph with the edge added or
// removed, and every node outside the affected set keeps its exact farness.
func TestEditEdgeClaim(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, rng.Intn(40)+2)
		n := g.NumNodes()
		far := ExactFarness(g, 1)
		for step := 0; step < 12; step++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			add := rng.Intn(2) == 0
			if !add { // remove a real edge, bridges included
				nb := g.Neighbors(u)
				v = nb[rng.Intn(len(nb))]
			}
			next, affected, err := EditEdge(g, u, v, add)
			if err != nil {
				if add || PointToPoint(g.WithoutEdge(u, v), u, v) != Unreached {
					t.Logf("seed %d step %d: %v", seed, step, err)
					return false
				}
				continue // a refused bridge
			}
			if err := next.Validate(); err != nil || next.HasEdge(u, v) != (add && u != v) ||
				!slices.IsSorted(affected) {
				t.Logf("seed %d step %d: edit {%d,%d} add=%v: %v", seed, step, u, v, add, err)
				return false
			}
			nextFar := ExactFarness(next, 1)
			for x := range nextFar {
				if nextFar[x] != far[x] && !slices.Contains(affected, graph.NodeID(x)) {
					t.Logf("seed %d step %d: node %d changed %v -> %v outside %v", seed, step, x, far[x], nextFar[x], affected)
					return false
				}
			}
			g, far = next, nextFar
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
