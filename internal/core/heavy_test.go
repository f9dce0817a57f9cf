package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// heavyChainGraph builds two random 40-node communities joined by a
// 600-node path and by a 100-node path, plus a third community hanging off
// the first at one cut vertex. Chain contraction turns the paths into edges
// of weight 601 and 101, so a sweep's bucket ring needs over 512 slots, and
// one that wrapped early would settle the far community via the heavy edge
// before the light one.
func heavyChainGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(5))
	b := graph.NewGrowingBuilder()
	next := graph.NodeID(0)
	community := func() graph.NodeID {
		base := next
		next += 40
		for i := graph.NodeID(1); i < 40; i++ {
			_ = b.AddEdge(base+graph.NodeID(rng.Intn(int(i))), base+i)
		}
		for i := 0; i < 60; i++ {
			_ = b.AddEdge(base+graph.NodeID(rng.Intn(40)), base+graph.NodeID(rng.Intn(40)))
		}
		return base
	}
	path := func(u, v graph.NodeID, interior int) {
		prev := u
		for i := 0; i < interior; i++ {
			_ = b.AddEdge(prev, next)
			prev = next
			next++
		}
		_ = b.AddEdge(prev, v)
	}
	a, c := community(), community()
	path(a, c, 600)
	path(a+1, c+1, 100)
	d := community()
	_ = b.AddEdge(a+2, d)
	return b.Build()
}

// TestHeavyChainWeights runs the global and cumulative estimators on a graph
// whose reduced graph carries an edge weight above 512, so every sweep over
// it is a lane-masked Dial with a ring of over 512 buckets. At fraction 1
// every value flagged exact, every kept node's among them, must equal the
// exact oracle; at fraction 0.2 64-lane sweeps at
// workers {1, 2} must equal 1-lane sweeps at one worker bit for bit.
func TestHeavyChainWeights(t *testing.T) {
	g := heavyChainGraph()
	exact := bfs.ExactFarness(g, 2)
	for _, tech := range []Technique{TechICR, TechCumulative} {
		p, err := Prepare(context.Background(), g, tech, 1)
		if err != nil {
			t.Fatal(err)
		}
		if w := p.red.G.MaxWeight(); w <= 512 {
			t.Fatalf("%v: reduced graph's max weight %d, want above 512", tech, w)
		}
		if tech == TechCumulative && len(p.cum.tree.Cuts) == 0 {
			t.Fatalf("%v: want a multi-block plan", tech)
		}
		full, err := Estimate(g, Options{Techniques: tech, SampleFraction: 1, Seed: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for v, x := range exact {
			if !full.Exact[v] {
				continue // a removed redundant node keeps an estimate
			}
			checked++
			if full.Farness[v] != x {
				t.Fatalf("%v fraction 1: node %d farness %v, exact %v", tech, v, full.Farness[v], x)
			}
		}
		if kept := p.red.G.NumNodes(); checked < kept {
			t.Fatalf("%v fraction 1: %d exact values, want at least the %d kept nodes", tech, checked, kept)
		}
		est := func(workers int) *Result {
			res, err := Estimate(g, Options{Techniques: tech, SampleFraction: 0.2, Seed: 3, Workers: workers, ComputeStdErr: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		pinSweepWidth(t, 1, nil)
		want := est(1)
		pinSweepWidth(t, bfs.MSBFSWidth, nil)
		for _, workers := range []int{1, 2} {
			got := est(workers)
			assertSameResult(t, fmt.Sprintf("%v workers=%d", tech, workers), want, got)
			for v := range want.StdErr {
				if got.StdErr[v] != want.StdErr[v] {
					t.Fatalf("%v workers=%d: stderr[%d] %v, want %v", tech, workers, v, got.StdErr[v], want.StdErr[v])
				}
			}
		}
	}
}
