package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/bicc"
	"repro/internal/bincsr"
	"repro/internal/graph"
)

// heavy reports whether some edge of g weighs more than 1, read edge by edge
// off the CSR: the rule by which a traversal unit takes Dial instead of BFS.
func heavy(g *graph.Graph) bool {
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for i := range g.Neighbors(v) {
			if g.Weight(v, i) != 1 {
				return true
			}
		}
	}
	return false
}

// TestWeightedIffHeavyEdge checks every graph constructor against the
// routing invariant: Weighted() holds exactly when some edge weighs more than
// 1, so a graph whose weights are all 1 carries no weight array and takes
// the BFS kernels.
func TestWeightedIffHeavyEdge(t *testing.T) {
	// A triangle 0-1-2 hanging off a weighted path 2-3-4.
	tri := graph.FromWeightedEdges(5, [][3]int32{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {2, 3, 4}, {3, 4, 2}})
	keepAll := []bool{true, true, true, true, true}
	contract := func(g *graph.Graph, keep []bool, extra []graph.WEdge) *graph.Graph {
		return graph.ContractInto(g, keep, make([]graph.NodeID, g.NumNodes()), extra, 2)
	}
	subgraph := func(g *graph.Graph, keep []bool) *graph.Graph {
		return graph.SubgraphInto(g, keep, make([]graph.NodeID, g.NumNodes()), 2)
	}
	fromCSR := func(weights []int32) *graph.Graph {
		g, err := graph.FromCSR([]int64{0, 1, 3, 4}, []graph.NodeID{1, 0, 2, 1}, weights)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	d := bicc.Decompose(tri)
	block := func(want bool) *graph.Graph {
		for b := range d.BlockEdges {
			if g := buildBlockGraph(d, int32(b)); g.Weighted() == want {
				return g
			}
		}
		t.Fatalf("no block with Weighted() = %v", want)
		return nil
	}
	dir := t.TempDir()
	artifacts := 0
	artifact := func(g *graph.Graph) string {
		artifacts++
		path := filepath.Join(dir, fmt.Sprintf("g%d.bricsbin", artifacts))
		if err := bincsr.WriteFile(path, g, 0); err != nil {
			t.Fatal(err)
		}
		return path
	}
	read := func(g *graph.Graph) *bincsr.Artifact {
		var buf bytes.Buffer
		if err := bincsr.Write(&buf, g, 0); err != nil {
			t.Fatal(err)
		}
		art, err := bincsr.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	mapped := func(g *graph.Graph) *bincsr.Artifact {
		m, err := bincsr.OpenMapped(artifact(g), bincsr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return &m.Artifact
	}
	viewOf := func(art *bincsr.Artifact) *graph.Graph {
		if art.W != nil {
			return art.W
		}
		return art.G
	}
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"builder/unweighted", graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}}), false},
		{"builder/unit-weights", graph.FromWeightedEdges(3, [][3]int32{{0, 1, 1}, {1, 2, 1}}), false},
		{"builder/lighter-parallel", graph.FromWeightedEdges(2, [][3]int32{{0, 1, 3}, {1, 0, 1}}), false},
		{"builder/weighted", tri, true},
		{"FromCSR/nil", fromCSR(nil), false},
		{"FromCSR/ones", fromCSR([]int32{1, 1, 1, 1}), false},
		{"FromCSR/weighted", fromCSR([]int32{1, 1, 2, 2}), true},
		{"ContractInto/no-extra", contract(graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}}), []bool{true, true, true}, nil), false},
		{"ContractInto/chain", contract(graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}}), []bool{true, false, false, true},
			[]graph.WEdge{{U: 0, V: 3, W: 3}}), true},
		{"ContractInto/shortcut-loses", contract(graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}}), []bool{true, true, true},
			[]graph.WEdge{{U: 0, V: 1, W: 2}}), false},
		{"SubgraphInto/keeps-heavy", subgraph(tri, keepAll), true},
		{"SubgraphInto/drops-heavy", subgraph(tri, []bool{true, true, true, false, false}), false},
		{"block/unweighted", block(false), false},
		{"block/weighted", block(true), true},
		{"bincsr-read/unweighted", viewOf(read(graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}}))), false},
		{"bincsr-read/weighted", viewOf(read(tri)), true},
		{"bincsr-read/unweighted-view", read(tri).G, false},
		{"bincsr-mmap/unweighted", viewOf(mapped(graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}}))), false},
		{"bincsr-mmap/weighted", viewOf(mapped(tri)), true},
		{"bincsr-mmap/unweighted-view", mapped(tri).G, false},
	}
	for _, c := range cases {
		if got := c.g.Weighted(); got != c.want || got != heavy(c.g) {
			t.Errorf("%s: Weighted() = %v, heavy edge %v, want %v", c.name, got, heavy(c.g), c.want)
		}
		if err := c.g.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestPlanUnitsRouteByWeight checks that every traversal unit of every plan,
// over the golden lattice's inputs and all sixteen technique masks, takes
// the kernel its CSR calls for: the masked Dial exactly when some edge
// weighs more than 1. A mask without C weighs no edge, so every unit of it
// takes the level-synchronous BFS.
func TestPlanUnitsRouteByWeight(t *testing.T) {
	for _, fam := range relabelFamilies() {
		g := graph.Connect(fam.gen(1500, 1))
		for m := Technique(0); m <= TechCumulative; m++ {
			p, err := Prepare(context.Background(), g, m, 2)
			if err != nil {
				t.Fatalf("%s/%v: %v", fam.name, m, err)
			}
			if p.cum == nil {
				continue
			}
			for b, u := range p.cum.units {
				if u.g.Weighted() != heavy(u.g) || m&TechChains == 0 && u.g.Weighted() {
					t.Fatalf("%s/%v unit %d: Weighted() = %v, heavy edge %v", fam.name, m, b, u.g.Weighted(), heavy(u.g))
				}
			}
		}
	}
}
