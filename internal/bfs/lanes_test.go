package bfs

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// naiveLaneAdd is the per-lane loop LaneAcc replaces.
func naiveLaneAdd(sums []int64, mask uint64, d int32) {
	for m := mask; m != 0; m &= m - 1 {
		sums[bits.TrailingZeros64(m)] += int64(d)
	}
}

// checkLaneAcc adds every (mask, d) pair to a LaneAcc of k lanes and to the
// naive loop, and requires equal totals for every lane.
func checkLaneAcc(t *testing.T, label string, a *LaneAcc, k int, masks []uint64, ds []int32) {
	t.Helper()
	a.Reset(k)
	want := make([]int64, k)
	for i, m := range masks {
		a.Add(m, ds[i])
		naiveLaneAdd(want, m, ds[i])
	}
	got := make([]int64, k)
	a.Sums(got)
	for lane := range want {
		if got[lane] != want[lane] {
			t.Fatalf("%s: lane %d of %d: sliced %d, naive %d", label, lane, k, got[lane], want[lane])
		}
	}
}

// TestLaneAccMatchesNaive compares the bit-sliced accumulator with the
// naive per-lane loop at every width: on random masks with distances in
// sweep order (non-decreasing, in runs) and in random order, on the full
// mask (its scalar path, mixed with partial masks), on distances up to
// 2³¹−1, and on long runs at one distance that carry the count into high
// planes. One accumulator is reused throughout, so Reset must clear what
// the previous sweep left.
func TestLaneAccMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var a LaneAcc
	draw := func(k, adds int, sorted bool) ([]uint64, []int32) {
		masks, ds := make([]uint64, adds), make([]int32, adds)
		d := int32(0)
		for i := range masks {
			masks[i] = rng.Uint64() & fullMask(k)
			switch rng.Intn(4) {
			case 0:
				masks[i] = fullMask(k)
			case 1:
				masks[i] &= rng.Uint64() // sparse
			}
			if masks[i] == 0 {
				masks[i] = uint64(1) << uint(rng.Intn(k))
			}
			switch {
			case !sorted:
				d = rng.Int31n(1000) + rng.Int31n(2)*(math.MaxInt32-1000)
			case rng.Intn(8) == 0:
				d += rng.Int31n(3) + 1
			}
			ds[i] = d
		}
		return masks, ds
	}
	for k := 1; k <= MSBFSWidth; k++ {
		for _, sorted := range []bool{true, false} {
			masks, ds := draw(k, 300, sorted)
			checkLaneAcc(t, fmt.Sprintf("k=%d sorted=%v", k, sorted), &a, k, masks, ds)
		}
		full := []uint64{fullMask(k), fullMask(k), 1, fullMask(k)}
		checkLaneAcc(t, fmt.Sprintf("full k=%d", k), &a, k, full, []int32{math.MaxInt32, 7, 7, math.MaxInt32})
	}
	// 2¹⁸ masks at 2³¹−1 each: counts reach plane 18, totals about 2⁴⁹.
	masks, ds := draw(MSBFSWidth, 1<<18, true)
	for i := range ds {
		ds[i] = math.MaxInt32
	}
	checkLaneAcc(t, "high planes", &a, MSBFSWidth, masks, ds)
	a.Reset(MSBFSWidth)
	for i := 0; i < 1<<12; i++ {
		for j := 0; j < 64; j++ {
			a.Add(^uint64(0)>>uint(j), math.MaxInt32)
		}
	}
	got := make([]int64, MSBFSWidth)
	a.Sums(got)
	for lane := range got {
		// Lane ℓ is in the masks of j = 0..63−ℓ; j = 0 is the full mask.
		want := int64(1<<12) * int64(64-lane) * math.MaxInt32
		if got[lane] != want {
			t.Fatalf("shifted masks: lane %d = %d, want %d", lane, got[lane], want)
		}
	}
}

// laneVisit is one (mask, d) visit of a recorded sweep.
type laneVisit struct {
	mask uint64
	d    int32
}

// BenchmarkLaneSums replays the visits of one clustered 64-source batch
// (sources adjacent in a BFS order of the graph, as core's clusterOrder
// builds them) on each of the four families into the per-lane sums: the
// bit-sliced LaneAcc against the naive per-lane loop. One op is one batch.
func BenchmarkLaneSums(b *testing.B) {
	for _, fam := range genFamilies {
		g := graph.Connect(fam.build(6000, 1))
		n := g.NumNodes()
		pos := graph.BFSOrder(g.ToWeighted(), 1)
		at := make([]graph.NodeID, n)
		for v, p := range pos {
			at[p] = graph.NodeID(v)
		}
		sources := at[n/2 : n/2+MSBFSWidth]
		var visits []laneVisit
		MultiSourceMasksInto(g, sources, NewMSScratch(n), func(_ graph.NodeID, mask uint64, d int32) {
			visits = append(visits, laneVisit{mask, d})
		})
		sums := make([]int64, MSBFSWidth)
		b.Run(fam.name+"/sliced", func(b *testing.B) {
			var a LaneAcc
			for i := 0; i < b.N; i++ {
				a.Reset(MSBFSWidth)
				for _, v := range visits {
					a.Add(v.mask, v.d)
				}
				a.Sums(sums)
			}
		})
		b.Run(fam.name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(sums)
				for _, v := range visits {
					naiveLaneAdd(sums, v.mask, v.d)
				}
			}
		})
	}
}
