package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

// TestDegenerateReductionsFloor covers the inputs that reduce so hard that
// the sampling fraction asks for fewer than 4 sources: four generator
// families at 12 to 90 nodes, seeds 1–12, masks none, CR and ICR, fractions
// 0.05 and 0.2, kept where samplesFor(nR, fraction) < 4. Every such run must
// draw at least min(4, n) sources. The mean error against the exact oracle
// must stay at or below the mean the retired global estimator reached on
// the same cells, when it drew its extra sources from the original graph:
// 12.06 % over all of them, and 10.99 % over the 96 cells whose reduced
// graph has fewer than 4 nodes, the only ones where a run draws removed
// nodes as sources.
func TestDegenerateReductionsFloor(t *testing.T) {
	masks := []Technique{0, TechCR, TechICR}
	var sum, smallSum float64
	cells, small := 0, 0
	for _, fam := range relabelFamilies() {
		for _, n := range []int{12, 20, 30, 45, 60, 90} {
			for seed := int64(1); seed <= 12; seed++ {
				g := graph.Connect(fam.gen(n, seed))
				exact := ExactFarness(g, 1)
				for _, mask := range masks {
					p, err := Prepare(context.Background(), g, mask, 1)
					if err != nil {
						t.Fatal(err)
					}
					if p.red == nil {
						continue // answered in closed form
					}
					nR := p.red.G.NumNodes()
					for _, fraction := range []float64{0.05, 0.2} {
						if samplesFor(nR, fraction) >= 4 {
							continue
						}
						name := fmt.Sprintf("%s/n=%d/seed=%d/%v/f=%g", fam.name, n, seed, mask, fraction)
						res, err := p.Estimate(context.Background(), Options{Techniques: mask, SampleFraction: fraction, Seed: seed, Workers: 1})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if want := min(minSamples, g.NumNodes()); res.Stats.Samples < want {
							t.Fatalf("%s: %d samples of %d nodes (%d reduced), want at least %d", name, res.Stats.Samples, g.NumNodes(), nR, want)
						}
						e := stats.AvgErrorPercent(res.Farness, exact)
						sum += e
						cells++
						if nR < minSamples {
							smallSum += e
							small++
						}
					}
				}
			}
		}
	}
	if cells == 0 || small == 0 {
		t.Fatalf("%d degenerate cells, %d of them below %d reduced nodes", cells, small, minSamples)
	}
	mean, smallMean := sum/float64(cells), smallSum/float64(small)
	t.Logf("%d degenerate cells, mean error %.2f %%; %d below %d reduced nodes, mean error %.2f %%", cells, mean, small, minSamples, smallMean)
	if mean > 12.06 {
		t.Errorf("mean error %.2f %% over %d degenerate cells, want at most 12.06 %%", mean, cells)
	}
	if smallMean > 10.99 {
		t.Errorf("mean error %.2f %% over the %d cells below %d reduced nodes, want at most 10.99 %%", smallMean, small, minSamples)
	}
}

// TestDegenerateReductionsPartial interrupts full-BRICS anytime runs on
// inputs that reduce to fewer than 4 nodes, one-block and multi-block
// plans, after every completed source: the removed sources land before the
// sweeps, and every partial result must bracket the exact farness, flag
// only exact values, and count the removed sources among its completed
// ones.
func TestDegenerateReductionsPartial(t *testing.T) {
	pinSweepWidth(t, 1, nil) // one row per advance: the cancel lands exactly
	var oneBlock, multiBlock int
	for seed := int64(0); (oneBlock < 8 || multiBlock < 4) && seed < 5000; seed++ {
		g := randomMixed(rand.New(rand.NewSource(seed)), 15)
		p, err := Prepare(context.Background(), g, TechCumulative, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.red == nil || p.red.G.NumNodes() >= minSamples {
			continue
		}
		if len(p.cum.tree.Cuts) == 0 {
			if oneBlock++; oneBlock > 8 {
				continue
			}
		} else if multiBlock++; multiBlock > 4 {
			continue
		}
		exact := ExactFarness(g, 1)
		opts := Options{Techniques: TechCumulative, SampleFraction: 1, Seed: seed, Workers: 1, Anytime: true}
		whole, err := p.Estimate(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < whole.Stats.Samples; k++ {
			name := fmt.Sprintf("seed=%d/k=%d", seed, k)
			ctx, cancel := context.WithCancel(context.Background())
			opts.Progress = cancelAt(cancel, int64(k))
			res, err := p.Estimate(ctx, opts)
			cancel()
			if err != nil {
				if len(p.cum.tree.Cuts) > 0 {
					continue // the cut rows had not all landed
				}
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Partial || res.Completed < k || res.Planned != whole.Stats.Samples {
				t.Fatalf("%s: Partial %v, %d of %d completed", name, res.Partial, res.Completed, res.Planned)
			}
			for v := range exact {
				if res.Low[v] > exact[v]+1e-9 || res.High[v] < exact[v]-1e-9 {
					t.Fatalf("%s: node %d exact farness %v outside [%v, %v]", name, v, exact[v], res.Low[v], res.High[v])
				}
				if res.Exact[v] && math.Abs(res.Farness[v]-exact[v]) > 1e-9 {
					t.Fatalf("%s: node %d flagged exact with %v, want %v", name, v, res.Farness[v], exact[v])
				}
			}
		}
	}
	if oneBlock < 8 || multiBlock < 4 {
		t.Fatalf("%d one-block and %d multi-block inputs reduce to fewer than 4 nodes, want 8 and 4", oneBlock, multiBlock)
	}
}
