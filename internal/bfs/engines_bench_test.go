package bfs

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkEngineOrderingMatrix runs the unweighted traversal kernel, one
// 64-lane sweep per op, on the four generator families. EXPERIMENTS.md
// keeps its earlier engine × ordering numbers.
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
