// Road-network scenario (paper Section IV-C2d): road graphs are 70–85%
// degree-1/2 nodes, so the chain contraction does almost all the work and
// the biconnected decomposition is cheap but unnecessary. This example
// generates a road-like graph, runs the chain-only configuration (the
// paper's recommendation for this class), and reports speedup and quality
// against both the exact oracle and the random-sampling baseline — e.g.
// for picking depot locations with the best average drive distance.
//
//	go run ./examples/roadnetwork
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	brics "repro"
)

func main() {
	const n = 20000
	g := brics.GenerateRoad(n, 7)
	fmt.Printf("road network: %d junctions+segments, %d edges\n", g.NumNodes(), g.NumEdges())

	// Ground truth (expensive: one BFS per node).
	start := time.Now()
	exact := brics.ExactFarness(g, 0)
	exactTime := time.Since(start)

	// Baseline: uniform sampling at 30%.
	start = time.Now()
	baseline, err := brics.RandomSampling(g, 0.3, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	baselineTime := time.Since(start)

	// BRICS, chain-contraction only (CS), 30% of the *reduced* graph.
	start = time.Now()
	res, err := brics.Estimate(g, brics.Options{
		Techniques:     brics.TechChains,
		SampleFraction: 0.3,
		Seed:           1,
	})
	if err != nil {
		log.Fatal(err)
	}
	bricsTime := time.Since(start)

	fmt.Printf("exact:    %v\n", exactTime.Round(time.Millisecond))
	fmt.Printf("random:   %v  quality %.4f\n", baselineTime.Round(time.Millisecond), quality(baseline.Farness, exact))
	fmt.Printf("BRICS CS: %v  quality %.4f  speedup over random %.2fx\n",
		bricsTime.Round(time.Millisecond), quality(res.Farness, exact),
		float64(baselineTime)/float64(bricsTime))
	fmt.Printf("reduction: %d -> %d nodes (%d chain nodes contracted)\n",
		g.NumNodes(), res.Stats.ReducedNodes, res.Stats.Reduction.ChainNodes)

	// Depot placement: the 5 most central locations.
	type depot struct {
		node brics.NodeID
		far  float64
	}
	var ds []depot
	for v, f := range res.Farness {
		ds = append(ds, depot{brics.NodeID(v), f})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].far < ds[j].far })
	fmt.Println("best depot candidates (lowest average distance):")
	for _, d := range ds[:5] {
		fmt.Printf("  junction %6d  avg distance %.1f\n", d.node, d.far/float64(g.NumNodes()-1))
	}
}

func quality(est, actual []float64) float64 {
	var s float64
	for i := range est {
		s += est[i] / actual[i]
	}
	return s / float64(len(est))
}
