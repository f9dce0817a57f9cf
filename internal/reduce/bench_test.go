package reduce

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// BenchmarkReductionPipeline measures the pipeline's time and allocations
// per generator family and worker count — the preprocessing cost the
// paper's Table II amortises over the sampled traversals. Single-core
// hosts still run the >1-worker cases (goroutines interleave); the speedup
// columns are only meaningful with real cores.
func BenchmarkReductionPipeline(b *testing.B) {
	for _, fam := range generatorFamilies() {
		g := graph.Connect(fam.gen(20000, 42))
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", fam.name, w), func(b *testing.B) {
				b.ReportAllocs()
				opts := Options{Twins: true, Chains: true, Redundant: true, Workers: w}
				for i := 0; i < b.N; i++ {
					if _, err := Run(g, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
