package bfs

import (
	"context"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkEngineOrderingMatrix runs the three unweighted traversal kernels
// on the four generator families. One op is a fixed batch of 64
// traversals, so per-source, hybrid and the 64-lane batched engine are
// directly comparable. The CSR-ordering axis it once crossed them with is
// frozen in EXPERIMENTS.md.
func BenchmarkEngineOrderingMatrix(b *testing.B) {
	families := []struct {
		name string
		make func(n int, seed int64) *graph.Graph
	}{
		{"web", gen.Web},
		{"social", gen.Social},
		{"community", gen.Community},
		{"road", gen.Road},
	}
	const n = 20000
	for _, fam := range families {
		g := graph.Connect(fam.make(n, 1))
		sources := make([]graph.NodeID, MSBFSWidth)
		for i := range sources {
			sources[i] = graph.NodeID((i * 131) % n)
		}
		name := func(engine string) string {
			return fmt.Sprintf("%s/%s", fam.name, engine)
		}
		b.Run(name("per-source"), func(b *testing.B) {
			s := NewScratch(g.NumNodes(), 0)
			for i := 0; i < b.N; i++ {
				for _, src := range sources {
					Distances(g, src, s.Dist, s.Q)
				}
			}
		})
		b.Run(name("hybrid"), func(b *testing.B) {
			s := NewScratch(g.NumNodes(), 0)
			wg := g.ToWeighted()
			for i := 0; i < b.N; i++ {
				for _, src := range sources {
					_ = WHybridDistancesBFSCtx(context.Background(), wg, src, s.Dist, s)
				}
			}
		})
		b.Run(name("batched"), func(b *testing.B) {
			s := NewMSScratch(g.NumNodes())
			var sink int64
			for i := 0; i < b.N; i++ {
				MultiSourceMasksInto(g, sources, s, func(v graph.NodeID, mask uint64, d int32) {
					sink += int64(d) * int64(bits.OnesCount64(mask))
				})
			}
			_ = sink
		})
	}
}
