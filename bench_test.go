// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (run them all with `go test -bench=. -benchmem`), plus
// ablation benchmarks for the design choices DESIGN.md calls out.
//
// The figure benchmarks report the paper's metrics as custom units:
// quality (mean approximation ratio, paper hovers in [0.9, 1.1]) and
// speedup over random sampling (paper: web ≈2.7×, social ≈2.0×,
// community ≈1.4×, road ≈2.0×). Dataset sizes are scaled down via
// benchScale so a full run stays in CPU-minutes; raise it to stress.
package brics_test

import (
	"testing"

	brics "repro"
	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queue"
	"repro/internal/reduce"
	"repro/internal/stats"
)

// benchScale shrinks the Table I stand-ins for benchmarking (1.0 = the
// cmd/experiments default sizes).
const benchScale = 0.25

func benchConfig() experiments.Config {
	return experiments.Config{Scale: benchScale, Seed: 1}
}

// BenchmarkTableI regenerates Table I: the reduction pipeline plus
// biconnected decomposition over all twelve datasets.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableI(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func benchFig4(b *testing.B, cumFrac, randFrac float64) {
	b.Helper()
	var rows []experiments.CompareRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig4(benchConfig(), cumFrac, randFrac)
		if err != nil {
			b.Fatal(err)
		}
	}
	var q, sp float64
	for _, r := range rows {
		q += r.CumQuality
		sp += r.Speedup
	}
	b.ReportMetric(q/float64(len(rows)), "quality")
	b.ReportMetric(sp/float64(len(rows)), "speedup")
}

// BenchmarkFig4a: Cumulative vs Random, both at 40% sampling.
func BenchmarkFig4a(b *testing.B) { benchFig4(b, 0.4, 0.4) }

// BenchmarkFig4b: Cumulative at 20% vs Random at 30%.
func BenchmarkFig4b(b *testing.B) { benchFig4(b, 0.2, 0.3) }

// BenchmarkFig5 regenerates the per-node AR comparison on the social graph.
func BenchmarkFig5(b *testing.B) {
	var res *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig5(benchConfig(), 0.3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.BiCCSumm.Mean, "bicc-quality")
	b.ReportMetric(res.RandomSumm.Mean, "random-quality")
}

func benchFigClass(b *testing.B, class gen.Class) {
	b.Helper()
	var rows []experiments.ConfigResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.FigClass(benchConfig(), class, 0.4)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the cumulative (last configuration) averages.
	var q, sp float64
	n := 0
	for _, r := range rows {
		if r.Config != 0 && r.Config&core.TechBiCC != 0 {
			q += r.Quality
			sp += r.Speedup
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(q/float64(n), "quality")
		b.ReportMetric(sp/float64(n), "speedup")
	}
}

// BenchmarkFig6: web-graph ablation (C+R, I+C+R, Cumulative).
func BenchmarkFig6(b *testing.B) { benchFigClass(b, gen.ClassWeb) }

// BenchmarkFig7: social-graph ablation (C, I+C, B+I+C).
func BenchmarkFig7(b *testing.B) { benchFigClass(b, gen.ClassSocial) }

// BenchmarkFig8: community-network ablation (C+R, I+C+R, Cumulative).
func BenchmarkFig8(b *testing.B) { benchFigClass(b, gen.ClassCommunity) }

// BenchmarkFig9: road-network ablation (C, B+C).
func BenchmarkFig9(b *testing.B) { benchFigClass(b, gen.ClassRoad) }

// ---- ablation benchmarks beyond the paper's figures ----

func webGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return gen.Web(6000, 1)
}

// BenchmarkEstimator compares the two extrapolation rules at equal cost
// (same traversals, different assembly); quality is the interesting metric.
func BenchmarkEstimator(b *testing.B) {
	g := webGraph(b)
	actual := core.ExactFarness(g, 0)
	for _, kind := range []struct {
		name string
		k    core.EstimatorKind
	}{{"weighted", core.EstimatorWeighted}, {"paper", core.EstimatorPaper}} {
		b.Run(kind.name, func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				res, err := core.Estimate(g, core.Options{
					Techniques:     core.TechCumulative,
					SampleFraction: 0.2,
					Seed:           1,
					Estimator:      kind.k,
				})
				if err != nil {
					b.Fatal(err)
				}
				q = stats.Quality(res.Farness, actual)
			}
			b.ReportMetric(q, "quality")
		})
	}
}

// BenchmarkExactPropagation measures the cumulative estimator's quality
// with the closed-form propagation (Facts III.3/III.4 generalised) that
// every estimate applies to twins, dangling chains and pendant cycles.
func BenchmarkExactPropagation(b *testing.B) {
	g := webGraph(b)
	actual := core.ExactFarness(g, 0)
	var q float64
	for i := 0; i < b.N; i++ {
		res, err := core.Estimate(g, core.Options{
			Techniques:     core.TechCumulative,
			SampleFraction: 0.2,
			Seed:           1,
		})
		if err != nil {
			b.Fatal(err)
		}
		q = stats.Quality(res.Farness, actual)
	}
	b.ReportMetric(q, "quality")
}

// BenchmarkReductionStages times each reduction stage in isolation.
func BenchmarkReductionStages(b *testing.B) {
	g := webGraph(b)
	for _, c := range []struct {
		name string
		opts reduce.Options
	}{
		{"I", reduce.Options{Twins: true}},
		{"C", reduce.Options{Chains: true}},
		{"R", reduce.Options{Redundant: true}},
		{"ICR", reduce.All()},
	} {
		b.Run(c.name, func(b *testing.B) {
			var removed int
			for i := 0; i < b.N; i++ {
				red, err := reduce.Run(g, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				removed = red.NumRemoved()
			}
			b.ReportMetric(float64(removed), "removed")
		})
	}
}

// BenchmarkTraversalKernels compares plain BFS and Dial's algorithm on the
// same (unweighted) graph.
func BenchmarkTraversalKernels(b *testing.B) {
	g := gen.Social(20000, 2)
	wg := g.ToWeighted()
	n := g.NumNodes()
	dist := make([]int32, n)
	q := queue.NewFIFO(n)
	bq := queue.NewBucket(1)
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bfs.Distances(g, graph.NodeID(i%n), dist, q)
		}
	})
	b.Run("dial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bfs.WDistances(wg, graph.NodeID(i%n), dist, bq)
		}
	})
}

// BenchmarkEndToEnd is the headline number: full BRICS vs the baseline on a
// mid-size web graph at the paper's recommended operating point
// (cumulative @ 20% vs random @ 30%, Fig. 4(b)).
func BenchmarkEndToEnd(b *testing.B) {
	g := webGraph(b)
	b.Run("random30", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := brics.RandomSampling(g, 0.3, 0, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brics20", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := brics.Estimate(g, brics.Options{
				Techniques:     brics.TechCumulative,
				SampleFraction: 0.2,
				Seed:           1,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
