// Web-graph scenario (paper Section IV-C2a): compare every BRICS
// configuration on a web-like graph — the class where all four reductions
// bite (44% identical nodes, 54% chain nodes, 2.4% redundant nodes) and
// where the paper observes that adding the BiCC decomposition *costs* a
// little speed for a little quality. This is the Fig. 6 ablation as a
// runnable program.
//
//	go run ./examples/webgraph
package main

import (
	"fmt"
	"log"
	"time"

	brics "repro"
)

func main() {
	const n = 24000
	g := brics.GenerateWeb(n, 5)
	fmt.Printf("web graph: %d pages, %d links\n", g.NumNodes(), g.NumEdges())

	exact := brics.ExactFarness(g, 0)

	start := time.Now()
	baseline, err := brics.RandomSampling(g, 0.4, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	baseTime := time.Since(start)
	fmt.Printf("%-22s %10v  quality %.4f  speedup  1.00x\n",
		"random sampling", baseTime.Round(time.Millisecond), quality(baseline.Farness, exact))

	configs := []struct {
		name string
		tech brics.Technique
	}{
		{"C+R (chains+redundant)", brics.TechCR},
		{"I+C+R (+identical)", brics.TechICR},
		{"Cumulative (BRICS)", brics.TechCumulative},
	}
	for _, c := range configs {
		start = time.Now()
		res, err := brics.Estimate(g, brics.Options{
			Techniques:     c.tech,
			SampleFraction: 0.4,
			Seed:           1,
		})
		if err != nil {
			log.Fatal(err)
		}
		dur := time.Since(start)
		fmt.Printf("%-22s %10v  quality %.4f  speedup %5.2fx  (reduced to %d nodes, %d blocks)\n",
			c.name, dur.Round(time.Millisecond), quality(res.Farness, exact),
			float64(baseTime)/float64(dur), res.Stats.ReducedNodes, res.Stats.Blocks.Count)
	}

	// The two estimator variants (ablation beyond the paper).
	for _, kind := range []struct {
		name string
		k    brics.EstimatorKind
	}{{"estimator=weighted", brics.EstimatorWeighted}, {"estimator=paper", brics.EstimatorPaper}} {
		res, err := brics.Estimate(g, brics.Options{
			Techniques:     brics.TechCumulative,
			SampleFraction: 0.2,
			Seed:           1,
			Estimator:      kind.k,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s @20%%           quality %.4f\n", kind.name, quality(res.Farness, exact))
	}
}

func quality(est, actual []float64) float64 {
	var s float64
	for i := range est {
		s += est[i] / actual[i]
	}
	return s / float64(len(est))
}
