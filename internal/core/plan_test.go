package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

// assertBitIdentical fails unless got equals want bit for bit in Farness,
// Exact and StdErr, and in the run statistics a plan must keep reporting.
func assertBitIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	assertSameResult(t, label, want, got)
	if len(want.StdErr) != len(got.StdErr) {
		t.Fatalf("%s: StdErr length: want %d, got %d", label, len(want.StdErr), len(got.StdErr))
	}
	for v := range want.StdErr {
		if math.Float64bits(want.StdErr[v]) != math.Float64bits(got.StdErr[v]) {
			t.Fatalf("%s: StdErr[%d] differs: want %v, got %v", label, v, want.StdErr[v], got.StdErr[v])
		}
	}
	ws, gs := want.Stats, got.Stats
	if ws.Reduction != gs.Reduction || ws.ReducedNodes != gs.ReducedNodes || ws.ReducedEdges != gs.ReducedEdges ||
		ws.Blocks != gs.Blocks || ws.FallbackAssignments != gs.FallbackAssignments || ws.ClosedForm != gs.ClosedForm {
		t.Fatalf("%s: run stats differ:\nwant %+v\ngot  %+v", label, ws, gs)
	}
	if (ws.BiCC.Total == 0) != (gs.BiCC.Total == 0) {
		t.Fatalf("%s: BiCC timing reported by one run only: want %v, got %v", label, ws.BiCC, gs.BiCC)
	}
}

// TestPlanEstimateMatchesEstimate: on the four families, for every mask,
// fraction and worker count, one plan serves two seeds with Anytime off and
// on, and every run equals EstimateContext with the same options bit for
// bit.
func TestPlanEstimateMatchesEstimate(t *testing.T) {
	ctx := context.Background()
	for _, fam := range relabelFamilies() {
		g := graph.Connect(fam.gen(700, 3))
		for _, tech := range []Technique{0, TechCR, TechICR, TechCumulative} {
			for _, workers := range []int{1, 2} {
				plan, err := Prepare(ctx, g, tech, workers)
				if err != nil {
					t.Fatalf("%s/%v: %v", fam.name, tech, err)
				}
				for _, fraction := range []float64{0.05, 0.2, 1} {
					for _, seed := range []int64{7, 8} {
						for _, anytime := range []bool{false, true} {
							label := fmt.Sprintf("%s/%v/w%d/f%g/seed%d/anytime=%v", fam.name, tech, workers, fraction, seed, anytime)
							opts := Options{Techniques: tech, SampleFraction: fraction, Workers: workers, Seed: seed,
								ComputeStdErr: true, Anytime: anytime}
							want, err := EstimateContext(ctx, g, opts)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							got, err := plan.Estimate(ctx, opts)
							if err != nil {
								t.Fatalf("%s: plan: %v", label, err)
							}
							assertBitIdentical(t, label, want, got)
						}
					}
				}
			}
		}
	}
}

// TestPlanConcurrentEstimates: four goroutines with distinct seeds share one
// plan, at a fraction that clusters the sources (so the first runs race to
// fill in the BFS positions); each result equals the same run made alone.
// Run it under -race.
func TestPlanConcurrentEstimates(t *testing.T) {
	ctx := context.Background()
	for name, tc := range map[string]struct {
		g    *graph.Graph
		tech Technique
	}{
		"web/BRICS":  {graph.Connect(gen.Web(1500, 2)), TechCumulative},
		"social/ICR": {graph.Connect(gen.Social(1500, 2)), TechICR},
	} {
		opts := func(seed int64) Options {
			return Options{Techniques: tc.tech, SampleFraction: 0.5, Workers: 2, Seed: seed, ComputeStdErr: true}
		}
		shared, err := Prepare(ctx, tc.g, tc.tech, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*Result, 4)
		errs := make([]error, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = shared.Estimate(ctx, opts(int64(30+i)))
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s seed %d: %v", name, 30+i, errs[i])
			}
			want, err := EstimateContext(ctx, tc.g, opts(int64(30+i)))
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s/seed%d", name, 30+i), want, got[i])
		}
	}
}

// TestPlanClosedAndMismatch: a closed-form plan hands every run its own
// copy, and a run asking for another mask than the plan's is refused.
func TestPlanClosedAndMismatch(t *testing.T) {
	ctx := context.Background()
	path := graph.FromEdges(5, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	plan, err := Prepare(ctx, path, TechCumulative, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.Estimate(ctx, Options{Techniques: TechCumulative})
	if err != nil {
		t.Fatal(err)
	}
	a.Farness[0] = -1
	b, err := plan.Estimate(ctx, Options{Techniques: TechCumulative})
	if err != nil {
		t.Fatal(err)
	}
	if b.Farness[0] != 10 || !b.Stats.ClosedForm {
		t.Fatalf("second closed-form run saw %v (closed form %v), want farness 10", b.Farness[0], b.Stats.ClosedForm)
	}
	if _, err := plan.Estimate(ctx, Options{Techniques: TechICR}); err == nil {
		t.Fatal("a run with another mask than the plan's was accepted")
	}
}

// TestAdaptivePreparesOnce: an adaptive call builds one plan for all its
// rounds ("core.reduce" fires once per Prepare), and its final round equals
// EstimateContext at that round's fraction and seed.
func TestAdaptivePreparesOnce(t *testing.T) {
	g := graph.Connect(gen.Web(900, 5))
	var prepares atomic.Int64
	restore := fault.Set("core.reduce", func(context.Context) error {
		prepares.Add(1)
		return nil
	})
	base := Options{Techniques: TechCumulative, Seed: 11, Workers: 2, ComputeStdErr: true}
	res, err := EstimateAdaptive(g, AdaptiveOptions{Base: base, TargetError: 1e-12, MaxFraction: 0.4})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 3 {
		t.Fatalf("only %d rounds; the test wants several on one plan", len(res.Rounds))
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("%d plans built for one adaptive call of %d rounds, want 1", n, len(res.Rounds))
	}
	last := len(res.Rounds) - 1
	o := base
	o.SampleFraction, o.Seed = res.Rounds[last], base.Seed+int64(last)
	want, err := Estimate(g, o)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "last round", want, &res.Result)
}
