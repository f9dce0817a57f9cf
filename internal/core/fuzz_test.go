package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// FuzzEstimatePipeline: any connected graph decoded from fuzz bytes must
// run the full cumulative pipeline without panicking, with exact-flagged
// values matching the oracle; one Prepare must serve two seeds bit-identical
// to EstimateContext; and the random-sampling baseline (no technique, the
// paper's estimator) at fraction 1 samples every node, so every one of its
// values must be exact and equal the oracle.
func FuzzEstimatePipeline(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4, 0, 5, 0})
	f.Add([]byte{0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 5, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 240 {
			return
		}
		// Decode pairs of bytes as edges over at most 32 nodes.
		b := graph.NewGrowingBuilder()
		for i := 0; i+1 < len(data); i += 2 {
			_ = b.AddEdge(graph.NodeID(data[i]%32), graph.NodeID(data[i+1]%32))
		}
		g := graph.Connect(b.Build())
		if g.NumNodes() < 2 {
			return
		}
		res, err := Estimate(g, Options{
			Techniques:     TechCumulative,
			SampleFraction: 1.0,
			Seed:           1,
		})
		if err != nil {
			t.Fatalf("estimate: %v", err)
		}
		want := ExactFarness(g, 1)
		for v := range want {
			if res.Exact[v] && res.Farness[v] != want[v] {
				t.Fatalf("node %d: exact-flagged %v != oracle %v", v, res.Farness[v], want[v])
			}
			if res.Farness[v] < 0 {
				t.Fatalf("node %d: negative farness %v", v, res.Farness[v])
			}
		}
		plan, err := Prepare(context.Background(), g, TechCumulative, 1)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		for _, seed := range []int64{1, 2} {
			opts := Options{Techniques: TechCumulative, SampleFraction: 0.5, Seed: seed, ComputeStdErr: true}
			want, err := EstimateContext(context.Background(), g, opts)
			if err != nil {
				t.Fatalf("estimate seed %d: %v", seed, err)
			}
			got, err := plan.Estimate(context.Background(), opts)
			if err != nil {
				t.Fatalf("plan seed %d: %v", seed, err)
			}
			assertBitIdentical(t, fmt.Sprintf("plan seed %d", seed), want, got)
		}
		rnd, err := Estimate(g, Options{SampleFraction: 1.0, Seed: 1, Estimator: EstimatorPaper})
		if err != nil {
			t.Fatalf("random sampling: %v", err)
		}
		for v := range want {
			if !rnd.Exact[v] || rnd.Farness[v] != want[v] {
				t.Fatalf("node %d: random sampling at fraction 1 gave %v (exact %v), oracle %v",
					v, rnd.Farness[v], rnd.Exact[v], want[v])
			}
		}
	})
}
