package core

import (
	"fmt"
	"testing"

	"repro/internal/bct"
	"repro/internal/bicc"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// TestAssignEventsHomesEveryNode checks the event→block phase on its own, on
// the four generator families: every original node is homed in exactly one
// block's assigned list, every removal event's anchors lie in the event's
// block, and no event needs the fallback heuristic. At least two families
// must decompose into several blocks.
func TestAssignEventsHomesEveryNode(t *testing.T) {
	ropts := reduce.Options{Twins: true, Chains: true, Redundant: true, Workers: 2}
	multiBlock := 0
	for _, fam := range relabelFamilies() {
		g := fam.gen(1500, 9)
		t.Run(fam.name, func(t *testing.T) {
			red, err := reduce.Run(g, ropts)
			if err != nil {
				t.Fatal(err)
			}
			d := bicc.DecomposeWorkers(red.G, 2)
			if d.NumBlocks() > 1 {
				multiBlock++
			}
			a := assignEvents(red, d, bct.NewTree(d, largestBlock(d)))
			homes := make([]int, g.NumNodes())
			for b, assigned := range a.assigned {
				for _, o := range assigned {
					homes[o]++
					if a.blockOf(o) != int32(b) {
						t.Fatalf("node %d listed in block %d, homed in %d", o, b, a.blockOf(o))
					}
				}
			}
			for o, h := range homes {
				if h != 1 {
					t.Fatalf("node %d homed %d times", o, h)
				}
			}
			for i, e := range red.Events {
				for _, anchor := range e.Anchors() {
					if !a.inBlock(a.eventBlock[i], anchor) {
						t.Fatalf("event %d (%T): anchor %d not in its block %d", i, e, anchor, a.eventBlock[i])
					}
				}
			}
			if a.fallbacks != 0 {
				t.Fatalf("%d fallback assignments", a.fallbacks)
			}
		})
	}
	if multiBlock < 2 {
		t.Fatalf("only %d case(s) decomposed into several blocks", multiBlock)
	}
}

// TestCumulativeTraversesEachBlockOnce runs the cumulative estimator on
// multi-block web and road stand-ins with ComputeStdErr and counts the
// traversal units through the decision hook: every block of a multi-block
// decomposition holds at least one cut vertex, which is always sampled, so
// the run must ask for exactly one sweep width per block. Farness, Exact and
// StdErr at workers 2 and 4 must equal workers 1 bit for bit.
func TestCumulativeTraversesEachBlockOnce(t *testing.T) {
	run := func(t *testing.T, g *graph.Graph, workers int) (res *Result, units int) {
		t.Helper()
		old := sweepWidth
		sweepWidth = func(k int) int {
			units++
			return old(k)
		}
		defer func() { sweepWidth = old }()
		res, err := Estimate(g, Options{Techniques: TechCumulative, SampleFraction: 0.2,
			Workers: workers, Seed: 11, ComputeStdErr: true})
		if err != nil {
			t.Fatal(err)
		}
		return res, units
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"web", gen.Web(2000, 3)}, {"road", gen.Road(2000, 3)}}
	for _, tc := range graphs {
		ref, _ := run(t, tc.g, 1)
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				res, units := run(t, tc.g, workers)
				if blocks := res.Stats.Blocks.Count; blocks < 2 || units != blocks {
					t.Fatalf("%d traversal units over %d blocks: want one per block of a multi-block stand-in", units, blocks)
				}
				assertSameResult(t, fmt.Sprintf("workers=%d vs 1", workers), ref, res)
				for v := range ref.StdErr {
					if ref.StdErr[v] != res.StdErr[v] {
						t.Fatalf("stderr[%d]: workers=1 %v, workers=%d %v", v, ref.StdErr[v], workers, res.StdErr[v])
					}
				}
			})
		}
	}
}
