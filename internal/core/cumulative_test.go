package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bct"
	"repro/internal/bicc"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// TestAssignEventsHomesEveryNode checks the event→block phase on its own, on
// the four generator families with and without iterated reductions: every
// original node is homed in exactly one block's assigned list, every
// removal event's anchors lie in the event's block, and no event needs the
// fallback heuristic. Most families reduce to a single block; web and road
// without iteration decompose into several.
func TestAssignEventsHomesEveryNode(t *testing.T) {
	ropts := reduce.Options{Twins: true, Chains: true, Redundant: true, Workers: 2}
	multiBlock := 0
	for _, fam := range relabelFamilies() {
		g := fam.gen(1500, 9)
		for _, iterate := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/iterate=%v", fam.name, iterate), func(t *testing.T) {
				var red *reduce.Reduction
				var err error
				if iterate {
					red, err = reduce.RunIterativeContext(context.Background(), g, ropts, 0)
				} else {
					red, err = reduce.RunContext(context.Background(), g, ropts)
				}
				if err != nil {
					t.Fatal(err)
				}
				d := bicc.DecomposeAlgo(red.G, bicc.AlgoAuto, 2)
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
	}
	if multiBlock < 2 {
		t.Fatalf("only %d case(s) decomposed into several blocks", multiBlock)
	}
}

// TestCumulativePass2CacheIdentical forces pass 2 off the cut-row cache and
// onto re-traversal (a budget no run fits) and requires Farness, Exact and
// StdErr to equal the cached run bit for bit, on multi-block web and road
// stand-ins at workers {1,2,4}. The decision hook counts traversal units,
// proving the forced run traversed the blocks a second time.
func TestCumulativePass2CacheIdentical(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"web", gen.Web(2000, 3)}, {"road", gen.Road(2000, 3)}}
	for _, tc := range graphs {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				run := func(budget int64) (*Result, int) {
					t.Helper()
					units := 0
					old := cutCacheBudget
					cutCacheBudget = budget
					chooseEngine = func(k int) engine {
						units++
						return engineFor(k)
					}
					defer func() { cutCacheBudget, chooseEngine = old, engineFor }()
					res, err := Estimate(tc.g, Options{Techniques: TechCumulative, SampleFraction: 0.2,
						Workers: workers, Seed: 11, ComputeStdErr: true})
					if err != nil {
						t.Fatal(err)
					}
					return res, units
				}
				cached, cachedUnits := run(cutCacheBudget)
				forced, forcedUnits := run(-1)
				if cached.Stats.Blocks.Count < 2 {
					t.Fatalf("%d block(s): need a multi-block stand-in", cached.Stats.Blocks.Count)
				}
				if forcedUnits <= cachedUnits {
					t.Fatalf("forced run traversed %d units, cached %d: pass 2 did not re-traverse", forcedUnits, cachedUnits)
				}
				assertSameResult(t, "re-traversed pass 2", cached, forced)
				for v := range cached.StdErr {
					if cached.StdErr[v] != forced.StdErr[v] {
						t.Fatalf("stderr[%d]: cached %v, re-traversed %v", v, cached.StdErr[v], forced.StdErr[v])
					}
				}
			})
		}
	}
}
