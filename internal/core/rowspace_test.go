package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bct"
	"repro/internal/bfs"
	"repro/internal/bicc"
	"repro/internal/chains"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queue"
	"repro/internal/reduce"
)

// The tests in this file check the estimator's accumulators against a
// row-space reference: a sequential replay of the per-source accumulation
// that scatters every traversal row to original ids, extends it over the
// removal log (reduce.Reduction.Extend, or the block's events) and adds
// every original node's distance. The
// estimators never build those rows; they sum the kept nodes per source and
// give the removed nodes their sums once per run from the anchor rows.
// Integer sums must agree bit for bit.

// rowspaceGraph is one test input with the reduction features it must show.
type rowspaceGraph struct {
	name string
	g    *graph.Graph
	want func(red *reduce.Reduction) bool // nil: a generator family, no requirement
}

// withCube returns the graph of edges on n nodes plus a cube graph
// (3-regular and triangle-free, so no reduction touches it) that shares
// node at and adds seven new nodes. The shared node becomes a cut vertex,
// so the cumulative estimator sees at least two blocks.
func withCube(edges [][2]graph.NodeID, n int, at graph.NodeID) *graph.Graph {
	id := func(c int) graph.NodeID {
		if c == 0 {
			return at
		}
		return graph.NodeID(n + c - 1)
	}
	out := append([][2]graph.NodeID(nil), edges...)
	for c := 0; c < 8; c++ {
		for bit := 1; bit < 8; bit <<= 1 {
			if c&bit == 0 {
				out = append(out, [2]graph.NodeID{id(c), id(c | bit)})
			}
		}
	}
	return graph.FromEdges(n+7, out)
}

// rowspaceGraphs returns the four generator families and hand-built graphs
// that hold a dangling chain, a pendant cycle, a chain anchored on a twin
// representative and a redundant node next to a chain anchor. Every
// hand-built graph carries a cube block, so it decomposes into several
// blocks.
func rowspaceGraphs() []rowspaceGraph {
	var out []rowspaceGraph
	// Road needs 2000 nodes to keep several blocks after the reduction;
	// social and community stand-ins of test size are one block.
	for _, fam := range relabelFamilies() {
		n := 700
		if fam.name == "road" {
			n = 2000
		}
		out = append(out, rowspaceGraph{name: fam.name, g: graph.Connect(fam.gen(n, 3))})
	}
	// A wheel (hub 0, rim 1..6) with a dangling tail 1-7-8-9 and a pendant
	// cycle 2-10-11-12-13-2.
	wheel := [][2]graph.NodeID{{1, 7}, {7, 8}, {8, 9}, {2, 10}, {10, 11}, {11, 12}, {12, 13}, {13, 2}}
	for i := graph.NodeID(1); i <= 6; i++ {
		wheel = append(wheel, [2]graph.NodeID{0, i}, [2]graph.NodeID{i, i%6 + 1})
	}
	wheelG := withCube(wheel, 14, 0)
	out = append(out, rowspaceGraph{"dangling-chain-and-pendant-cycle", wheelG, func(red *reduce.Reduction) bool {
		return hasChain(chains.Dangling)(red) && hasChain(chains.Cycle)(red)
	}})
	// Open twins 0 and 1 (both adjacent to 2, 3, 4). Once 1 is removed, 4
	// has degree two, so 0-4-5-6 is a dangling chain anchored on the twin
	// representative 0. Nodes 2 and 3 hang off the core 7..10.
	twinChain := [][2]graph.NodeID{
		{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {4, 5}, {5, 6},
		{2, 7}, {2, 9}, {3, 8}, {3, 10},
		{7, 8}, {7, 9}, {7, 10}, {8, 9}, {8, 10}, {9, 10}, {9, 11}, {10, 11}, {11, 12}, {12, 7},
	}
	twinG := withCube(twinChain, 13, 11)
	out = append(out, rowspaceGraph{"chain-on-twin-rep", twinG, func(red *reduce.Reduction) bool {
		reps := map[graph.NodeID]bool{}
		for _, e := range red.Events {
			if te, ok := e.(*reduce.TwinEvent); ok {
				reps[te.Rep] = true
			}
		}
		for _, e := range red.Events {
			if ce, ok := e.(*reduce.ChainEvent); ok && (reps[ce.U] || reps[ce.V]) {
				return true
			}
		}
		return false
	}})
	// Node 4 is redundant (its neighbours 0, 1, 2 form a triangle); 0 also
	// anchors the chain 0-5-6-3 to the core node 3.
	redundantChain := [][2]graph.NodeID{
		{0, 1}, {1, 2}, {2, 0}, {4, 0}, {4, 1}, {4, 2},
		{0, 5}, {5, 6}, {6, 3},
		{3, 7}, {3, 8}, {7, 8}, {7, 1}, {8, 2}, {7, 9}, {8, 9}, {9, 10}, {10, 1}, {10, 11}, {11, 2},
	}
	redG := withCube(redundantChain, 12, 9)
	out = append(out, rowspaceGraph{"redundant-by-chain-anchor", redG, func(red *reduce.Reduction) bool {
		anchors := map[graph.NodeID]bool{}
		for _, e := range red.Events {
			if ce, ok := e.(*reduce.ChainEvent); ok {
				for _, a := range ce.Anchors() {
					anchors[a] = true
				}
			}
		}
		for _, e := range red.Events {
			if re, ok := e.(*reduce.RedundantEvent); ok {
				for _, x := range re.Nbrs {
					if anchors[x] {
						return true
					}
				}
			}
		}
		return false
	}})
	return out
}

func hasChain(kind chains.Type) func(*reduce.Reduction) bool {
	return func(red *reduce.Reduction) bool {
		for _, e := range red.Events {
			if ce, ok := e.(*reduce.ChainEvent); ok && ce.Kind == kind {
				return true
			}
		}
		return false
	}
}

// TestGlobalAccumulatorsMatchRowSpace runs the one-block plan, the whole
// reduced graph as one traversal unit (every plan without TechBiCC, or
// whose reduced graph is one block), and requires its drawn-source sums,
// square sums, exact farness and calibration sums to equal the whole-graph
// row-space replay, which extends every row over the full removal log, at
// workers 1, 2 and 4.
func TestGlobalAccumulatorsMatchRowSpace(t *testing.T) {
	for _, tc := range rowspaceGraphs() {
		red, err := reduce.Run(tc.g, reduce.All())
		if err != nil {
			t.Fatal(err)
		}
		if tc.want != nil && !tc.want(red) {
			t.Fatalf("%s: the reduction lacks the feature the graph was built for", tc.name)
		}
		for _, fraction := range []float64{0.3, 1} {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/f=%g/workers=%d", tc.name, fraction, workers), func(t *testing.T) {
					c := runPass1(t, red, oneBlock(red.G.NumNodes()), fraction, workers)
					want := refGlobal(red, c.sources[0])
					got := c.collect()
					sameInts(t, "acc", want.acc, got.sumRand)
					sameInts(t, "sumSq", want.sumSq, got.sumSqA)
					sameInts(t, "exactFar", want.exactFar, c.exactIn)
					sameInts(t, "s2s/s2n", []int64{want.s2s, want.s2n}, []int64{got.aS2S[0], got.aS2N[0]})
				})
			}
		}
	}
}

// TestCumulativeAccumulatorsMatchRowSpace runs the cumulative estimator's
// plan, traversal pass and collection, and requires every in-block
// accumulator, per-source sum and cut row to equal the row-space replay of
// the same plan, at workers 1, 2 and 4. Every input runs on its own
// decomposition; the hand-built ones, whose cube makes several blocks, also
// run as one-block plans.
func TestCumulativeAccumulatorsMatchRowSpace(t *testing.T) {
	for _, tc := range rowspaceGraphs() {
		red, err := reduce.Run(tc.g, reduce.All())
		if err != nil {
			t.Fatal(err)
		}
		plans := []struct {
			name string
			d    *bicc.Decomposition
		}{{tc.name, bicc.Decompose(red.G)}}
		if tc.want != nil {
			if plans[0].d.NumBlocks() <= 1 {
				t.Fatalf("%s: one block; the cube should make several", tc.name)
			}
			plans = append(plans, struct {
				name string
				d    *bicc.Decomposition
			}{tc.name + "/one-block", oneBlock(red.G.NumNodes())})
		}
		for _, plan := range plans {
			for _, fraction := range []float64{0.3, 1} {
				for _, workers := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("%s/f=%g/workers=%d", plan.name, fraction, workers), func(t *testing.T) {
						c := runPass1(t, red, plan.d, fraction, workers)
						got := c.collect()
						want := refCumulative(c)
						sumAll := make([]int64, c.n)
						for o := range sumAll {
							sumAll[o] = got.sumRand[o] + got.sumCut[o]
						}
						sameInts(t, "sumAll", want.sumAll, sumAll)
						sameInts(t, "sumRand", want.sumRand, got.sumRand)
						sameInts(t, "sumAssigned", want.sumAssigned, got.sumAssigned)
						sameInts(t, "sumSqA", want.sumSqA, got.sumSqA)
						sameInts(t, "crossAcc", want.crossAcc, got.crossAcc)
						sameInts(t, "exactIn", want.exactIn, c.exactIn)
						sameInts(t, "aS2S", want.aS2S, got.aS2S)
						sameInts(t, "aS2N", want.aS2N, got.aS2N)
						for b := range want.sumDist {
							sameInts(t, fmt.Sprintf("sumDist[%d]", b), want.sumDist[b], c.sumDist[b])
							for li := range want.cutDist[b] {
								for lj, x := range want.cutDist[b][li] {
									if c.cutDist[b][li][lj] != x {
										t.Fatalf("cutDist[%d][%d][%d]: want %d, got %d", b, li, lj, x, c.cutDist[b][li][lj])
									}
								}
							}
						}
					})
				}
			}
		}
	}
}

// runPass1 builds the plan of red over d and runs one estimation's sampling
// and traversal pass on it, with standard errors, seed 5.
func runPass1(t *testing.T, red *reduce.Reduction, d *bicc.Decomposition, fraction float64, workers int) *cumulative {
	t.Helper()
	ctx := context.Background()
	cp, err := newCumPlan(ctx, red, d, workers)
	if err != nil {
		t.Fatal(err)
	}
	c := &cumulative{
		cumPlan: cp,
		opts:    &Options{SampleFraction: fraction, Workers: workers, Seed: 5, ComputeStdErr: true},
		workers: workers,
	}
	c.sample()
	if err := c.pass1(ctx); err != nil {
		t.Fatal(err)
	}
	return c
}

func sameInts(t *testing.T, name string, want, got []int64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s[%d]: got %d, want %d", name, i, got[i], want[i])
		}
	}
}

// refGlobalSums are a one-block run's accumulators over the whole graph.
type refGlobalSums struct {
	acc, sumSq, exactFar []int64
	s2s, s2n             int64
}

// refGlobal replays a one-block run from the reduced-graph sources srcs in
// row space: every row is scattered and extended to all original nodes.
func refGlobal(red *reduce.Reduction, srcs []graph.NodeID) refGlobalSums {
	n := red.Orig.NumNodes()
	ref := refGlobalSums{acc: make([]int64, n), sumSq: make([]int64, n), exactFar: make([]int64, n)}
	samples := make([]graph.NodeID, 0, len(srcs))
	for _, sR := range srcs {
		samples = append(samples, red.ToOld[sR])
	}
	dist, row := make([]int32, red.G.NumNodes()), make([]int32, n)
	for _, sR := range srcs {
		bfs.WDistances(red.G, sR, dist, queue.NewBucket(red.G.MaxWeight()))
		red.Scatter(dist, row)
		red.Extend(row)
		var own, toSamples int64
		for v, d := range row {
			own += int64(d)
			ref.acc[v] += int64(d)
			ref.sumSq[v] += int64(d) * int64(d)
		}
		for _, s := range samples {
			toSamples += int64(row[s])
		}
		ref.exactFar[red.ToOld[sR]] = own
		ref.s2s += toSamples
		ref.s2n += own - toSamples
	}
	return ref
}

// refCumulativeSums are the cumulative estimator's pass-1 accumulators.
type refCumulativeSums struct {
	sumAll, sumAssigned, sumRand, exactIn, sumSqA, crossAcc []int64
	aS2S, aS2N                                              []int64
	sumDist                                                 [][]int64
	cutDist                                                 [][][]int32
}

// refCumulative replays the cumulative accumulation of c's plan in row
// space: every block-local row is scattered to original ids and extended
// over the block's removal events, then added over the block's assigned
// population.
func refCumulative(c *cumulative) refCumulativeSums {
	n, nb := c.n, c.d.NumBlocks()
	ref := refCumulativeSums{
		sumAll: make([]int64, n), sumAssigned: make([]int64, n), sumRand: make([]int64, n),
		exactIn: make([]int64, n), sumSqA: make([]int64, n), crossAcc: make([]int64, n),
		aS2S: make([]int64, nb), aS2N: make([]int64, nb),
		sumDist: make([][]int64, nb), cutDist: make([][][]int32, nb),
	}
	distOrig := make([]int32, n)
	for b := range nb {
		members, cuts := c.d.BlockNodes[b], c.tree.BlockCuts[b]
		ref.sumDist[b] = make([]int64, len(cuts))
		ref.cutDist[b] = make([][]int32, len(cuts))
		lg := c.units[b].g
		for i, src := range c.sources[b] {
			dist := make([]int32, lg.NumNodes())
			bfs.WDistances(lg, src, dist, queue.NewBucket(lg.MaxWeight()))
			for j, m := range members {
				distOrig[c.red.ToOld[m]] = dist[j]
			}
			evs := c.blockEvents[b]
			for e := len(evs) - 1; e >= 0; e-- {
				c.red.Events[evs[e]].Extend(distOrig)
			}
			rid := members[src]
			srcAssigned := c.homeOf[rid] == int32(b)
			cut := i < len(cuts)
			var inSum, toSamples int64
			for _, o := range c.assigned[b] {
				dd := int64(distOrig[o])
				inSum += dd
				if c.isSample[o] {
					toSamples += dd
				}
				ref.sumAll[o] += dd
				if cut {
					ref.crossAcc[o] += c.wout[b][i] * dd
				} else {
					ref.sumRand[o] += dd
				}
				if srcAssigned {
					ref.sumAssigned[o] += dd
					ref.sumSqA[o] += dd * dd
				}
			}
			if srcAssigned {
				ref.exactIn[c.red.ToOld[rid]] = inSum
				ref.aS2S[b] += toSamples
				ref.aS2N[b] += inSum - toSamples
			}
			if cut {
				ref.sumDist[b][i] = inSum
				ref.cutDist[b][i] = make([]int32, len(cuts))
				for lj := range cuts {
					ref.cutDist[b][i][lj] = dist[c.sources[b][lj]]
				}
			}
		}
	}
	return ref
}

// TestCumulativeAnytimeAfterCutTraversals cancels a cumulative anytime run
// as soon as every (block, cut) traversal has been accumulated, the
// earliest point at which the run may degrade, and requires the partial
// result to bracket the exact farness of every node. 1-lane sweeps and one
// worker make the cut traversals the first units to complete.
func TestCumulativeAnytimeAfterCutTraversals(t *testing.T) {
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{{"web", graph.Connect(gen.Web(1500, 2))}, {"road", graph.Connect(gen.Road(1500, 2))}} {
		t.Run(fam.name, func(t *testing.T) {
			pinSweepWidth(t, 1, nil)
			red, err := reduce.Run(fam.g, reduce.All())
			if err != nil {
				t.Fatal(err)
			}
			d := bicc.Decompose(red.G)
			tree := bct.NewTree(d, largestBlock(d))
			cutUnits := 0
			for _, cuts := range tree.BlockCuts {
				cutUnits += len(cuts)
			}
			if d.NumBlocks() < 2 || cutUnits == 0 {
				t.Fatalf("%s: want a multi-block stand-in, got %d blocks", fam.name, d.NumBlocks())
			}
			exact := ExactFarness(fam.g, 2)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			prog := &Progress{OnAdvance: func(completed, _ int64) {
				if completed == int64(cutUnits) {
					cancel()
				}
			}}
			res, err := EstimateContext(ctx, fam.g, Options{Techniques: TechCumulative, SampleFraction: 0.5,
				Seed: 3, Workers: 1, Anytime: true, Progress: prog})
			if err != nil {
				t.Fatalf("want a partial result, got %v", err)
			}
			if !res.Partial || res.Completed != cutUnits {
				t.Fatalf("partial %v after %d of %d units, want a partial after the %d cut units",
					res.Partial, res.Completed, res.Planned, cutUnits)
			}
			const eps = 1e-9
			for v, x := range exact {
				if res.Low[v] > x+eps || res.High[v] < x-eps {
					t.Fatalf("node %d: exact farness %v outside [%v, %v]", v, x, res.Low[v], res.High[v])
				}
			}
		})
	}
}

// TestCumulativeBatchedCutSweepsFirst: a block's cut sources form 64-lane
// sweeps of their own, which run before any drawn source. With
// one worker, an anytime run canceled as soon as every cut row is in must
// therefore degrade to a partial over exactly the cut rows, not fail with
// ErrCanceled. At fraction 0.2 block 0 of this input carries 19 sources,
// one of them a cut.
func TestCumulativeBatchedCutSweepsFirst(t *testing.T) {
	g := gen.Web(400, 5)
	ctx := context.Background()
	p, err := Prepare(ctx, g, TechCumulative, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.cum.tree.Cuts) == 0 {
		t.Fatal("want a multi-block plan")
	}
	cutUnits := 0
	for _, cuts := range p.cum.tree.BlockCuts {
		cutUnits += len(cuts)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	prog := &Progress{OnAdvance: func(completed, _ int64) {
		if completed == int64(cutUnits) {
			cancel()
		}
	}}
	res, err := p.Estimate(ctx, Options{Techniques: TechCumulative, SampleFraction: 0.2,
		Seed: 510, Workers: 1, Anytime: true, Progress: prog})
	if err != nil {
		t.Fatalf("want a partial result after the %d cut rows, got %v", cutUnits, err)
	}
	if !res.Partial || res.Completed != cutUnits || res.Planned <= cutUnits {
		t.Fatalf("partial %v after %d of %d units, want a partial after the %d cut units",
			res.Partial, res.Completed, res.Planned, cutUnits)
	}
}

// TestCumulativeInterruptedSweepLandsNothing: a 64-lane sweep canceled
// half-way must leave no trace in the run's sums. With one worker, a run
// canceled 3 ms into block 0's first drawn sweep (after every cut row) must
// return the same partial, bit for bit, as a run canceled before that sweep
// starts. If the sweep outruns the timer the comparison cannot be made.
func TestCumulativeInterruptedSweepLandsNothing(t *testing.T) {
	g := gen.Road(24000, 1)
	p, err := Prepare(context.Background(), g, TechCumulative, 1)
	if err != nil {
		t.Fatal(err)
	}
	cutUnits := 0
	for _, cuts := range p.cum.tree.BlockCuts {
		cutUnits += len(cuts)
	}
	run := func(after time.Duration) *Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		prog := &Progress{OnAdvance: func(completed, _ int64) {
			if completed == int64(cutUnits) {
				if after == 0 {
					cancel()
				} else {
					time.AfterFunc(after, cancel)
				}
			}
		}}
		res, err := p.Estimate(ctx, Options{Techniques: TechCumulative, SampleFraction: 0.02,
			Seed: 4, Workers: 1, Anytime: true, Progress: prog})
		if err != nil {
			t.Fatalf("want a partial result, got %v", err)
		}
		return res
	}
	want, got := run(0), run(3*time.Millisecond)
	if want.Completed != cutUnits {
		t.Fatalf("canceled before the drawn sweeps: %d of %d units done, want the %d cut units", want.Completed, want.Planned, cutUnits)
	}
	if got.Completed != cutUnits {
		t.Skipf("the drawn sweep finished within 3 ms (%d units done)", got.Completed)
	}
	assertSameResult(t, "interrupted sweep", want, got)
	for v := range want.Low {
		if want.Low[v] != got.Low[v] || want.High[v] != got.High[v] {
			t.Fatalf("node %d: bounds [%v, %v], want [%v, %v]", v, got.Low[v], got.High[v], want.Low[v], want.High[v])
		}
	}
}
