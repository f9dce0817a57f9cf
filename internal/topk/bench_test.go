package topk

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sketch"
)

// BenchmarkClosenessVerify times the verification half of a top-10 search
// on a 6000-node web graph, the shape a server's /v1/topk request has: the
// candidate estimate (BRICS, fraction 0.2, two workers) is made once and
// passed as Options.Candidates, so one op is the prefetch sweeps, single
// BFSes and stopping rule only. The sketch case also runs the lower-bound
// filter, whose bounds the sketch computes on the first op and keeps.
func BenchmarkClosenessVerify(b *testing.B) {
	g := graph.Connect(gen.Web(6000, 1))
	eopts := core.Options{Techniques: core.TechCumulative, SampleFraction: 0.2, Seed: 1, Workers: 2}
	est, err := core.Estimate(g, eopts)
	if err != nil {
		b.Fatal(err)
	}
	sk := sketch.Build(g, sketch.Options{Workers: 2})
	for _, tc := range []struct {
		name string
		sk   *sketch.Sketch
	}{{"plain", nil}, {"sketch", sk}} {
		b.Run(tc.name, func(b *testing.B) {
			opts := Options{Estimate: eopts, Candidates: est, Sketch: tc.sk}
			for i := 0; i < b.N; i++ {
				if _, err := Closeness(g, 10, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
