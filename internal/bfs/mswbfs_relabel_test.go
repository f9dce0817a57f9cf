package bfs

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/queue"
)

// These tests run the weighted 64-lane engine on a renumbered copy of the
// graph (sources map through the permutation on the way in, rows map back
// through it on the way out) and pin that the vertex layout changes no
// distance. Three weight regimes cover both kernels behind MultiSourceW:
// all-ones (level-synchronous sweep), small weights (lane-masked Dial), and
// weights above 512 (the "fallback" regime, named after a retired
// per-source path: the lane-masked Dial with a ring of over 512 buckets).

func relabelWeightRegimes() []struct {
	name   string
	lo, hi int32
} {
	return []struct {
		name   string
		lo, hi int32
	}{
		{"unit", 1, 1},
		{"bucketable", 1, 9},
		{"fallback", 512 + 1, 512 + 64},
	}
}

// permuteW renumbers a weighted graph so that node v becomes perm[v];
// weights travel with their edges.
func permuteW(g *graph.WGraph, perm []graph.NodeID) *graph.WGraph {
	var edges [][3]int32
	g.Edges(func(u, v graph.NodeID, w int32) { edges = append(edges, [3]int32{perm[u], perm[v], w}) })
	return graph.FromWeightedEdges(g.NumNodes(), edges)
}

// TestMultiSourceWRowsUnderRelabeling: rows computed on the renumbered
// graph, read back through the permutation, equal per-source Dial rows on
// the original graph — for every family, weight regime and layout.
func TestMultiSourceWRowsUnderRelabeling(t *testing.T) {
	for _, fam := range genFamilies {
		for _, reg := range relabelWeightRegimes() {
			rng := rand.New(rand.NewSource(29))
			g := graph.Connect(fam.build(rng.Intn(300)+100, 17))
			for _, mode := range layouts(g, 29)[1:] {
				wg := reweight(g, reg.lo, reg.hi, rng)
				rg := permuteW(wg, mode.perm)
				n := wg.NumNodes()
				batch := randomBatch(rng, n)
				batchR := make([]graph.NodeID, len(batch))
				for i, s := range batch {
					batchR[i] = mode.perm[s]
				}
				rows := make([][]int32, len(batch))
				for i := range rows {
					rows[i] = make([]int32, n)
				}
				s := NewMSScratch(n)
				multiSourceWRows(rg, rg.Unweighted(), batchR, s, rows)

				want := make([]int32, n)
				b := queue.NewBucket(wg.MaxWeight())
				for lane, src := range batch {
					WDistances(wg, src, want, b)
					for v := 0; v < n; v++ {
						if got := rows[lane][mode.perm[v]]; got != want[v] {
							t.Fatalf("%s/%s/%s lane %d node %d: got %d, want %d",
								fam.name, reg.name, mode.name, lane, v, got, want[v])
						}
					}
				}
			}
		}
	}
}

// TestMultiSourceWMasksUnderRelabeling pins the mask-granularity contract on
// a renumbered graph: masks may split one (node, distance) pair across calls,
// but unioned over the sweep every (source, node) pair is covered exactly
// once, at the per-source distance.
func TestMultiSourceWMasksUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := graph.Connect(genFamilies[3].build(220, 13)) // road: long chains stress bucket reuse
	wg := reweight(g, 1, 7, rng)
	perm := graph.BFSOrder(wg, 1)
	rg := permuteW(wg, perm)
	n := wg.NumNodes()
	batch := randomBatch(rng, n)
	batchR := make([]graph.NodeID, len(batch))
	for i, s := range batch {
		batchR[i] = perm[s]
	}
	seen := make([][]int32, len(batch))
	for i := range seen {
		seen[i] = make([]int32, n)
		Fill(seen[i])
	}
	MultiSourceWMasksInto(rg, batchR, NewMSScratch(n), func(v graph.NodeID, mask uint64, d int32) {
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			if seen[lane][v] != Unreached {
				t.Fatalf("lane %d node %d settled twice (d=%d then d=%d)", lane, v, seen[lane][v], d)
			}
			seen[lane][v] = d
		}
	})
	want := make([]int32, n)
	b := queue.NewBucket(wg.MaxWeight())
	for lane, src := range batch {
		WDistances(wg, src, want, b)
		for v := 0; v < n; v++ {
			if got := seen[lane][perm[v]]; got != want[v] {
				t.Fatalf("lane %d node %d: got %d, want %d", lane, v, got, want[v])
			}
		}
	}
}
