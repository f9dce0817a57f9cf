package bfs

import (
	"math/bits"

	"repro/internal/graph"
)

// LaneAcc sums distances per lane over one ≤64-lane sweep without a
// per-lane loop per visit. It counts in bit-slices: plane i holds bit i of
// every lane's count of the masks added at the current distance d, and a
// sweep hands out its visits in increasing d (per level, per bucket), so a
// lane's total only moves by d·count when d changes. Masks enter the count
// in carry-save pairs (Harley–Seal): a pair costs one full adder into plane
// 0 and a carry that ripples up only while it meets set bits, a few word
// operations per mask instead of one add per lane. Two masks skip the
// count: a single lane, the common case where lane frontiers stay apart
// (road networks), is added to its total directly, and the full lane set,
// which a merged sweep (msMergedTail) hands out node after node, goes to
// one scalar. Sums decodes the per-lane totals once per sweep. Visits in any
// other order give the same totals, only slower; totals wrap modulo 2^64
// exactly as int64 additions do.
type LaneAcc struct {
	sums    [MSBFSWidth]int64 // per-lane totals of the flushed counts
	d       int32             // the distance of the pending count
	planes  [64]uint64        // the pending count, bit-sliced
	top     int               // planes[top:] are zero
	held    uint64            // an unpaired mask, counted once more
	odd     bool              // held is pending
	full    uint64            // the mask of every lane
	fullSum int64             // added to every lane
}

// Reset empties the accumulator for a sweep of k lanes.
func (a *LaneAcc) Reset(k int) {
	*a = LaneAcc{full: fullMask(k)}
}

// Add adds d (≥ 0) to every lane in mask, which must not be empty (no
// kernel visit's is).
func (a *LaneAcc) Add(mask uint64, d int32) {
	if mask&(mask-1) == 0 { // one lane
		a.sums[bits.TrailingZeros64(mask)] += int64(d)
		return
	}
	a.count(mask, d)
}

// count adds mask, of two lanes or more, to the pending count at d,
// flushing the count of the previous distance first.
func (a *LaneAcc) count(mask uint64, d int32) {
	if mask == a.full {
		a.fullSum += int64(d)
		return
	}
	if d != a.d {
		a.flush()
		a.d = d
	}
	if !a.odd {
		a.held, a.odd = mask, true
		return
	}
	a.odd = false
	// Full adder of (plane 0, held, mask): the sum bit stays in plane 0,
	// the carry ripples into plane 1 and up.
	p, h := a.planes[0], a.held
	u := p ^ h
	a.planes[0] = u ^ mask
	c := p&h | u&mask
	i := 1
	for ; c != 0 && i < len(a.planes); i++ {
		p := a.planes[i]
		a.planes[i] = p ^ c
		c &= p
	}
	a.top = max(a.top, i)
}

// flush adds d times the pending count to every lane's total.
func (a *LaneAcc) flush() {
	d := int64(a.d)
	if a.odd {
		for m := a.held; m != 0; m &= m - 1 {
			a.sums[bits.TrailingZeros64(m)] += d
		}
		a.odd = false
	}
	for i, p := range a.planes[:a.top] {
		for m := p; m != 0; m &= m - 1 {
			a.sums[bits.TrailingZeros64(m)] += d << uint(i)
		}
	}
	clear(a.planes[:a.top])
	a.top = 0
}

// Sums writes lane i's total to dst[i] for every i < len(dst).
func (a *LaneAcc) Sums(dst []int64) {
	a.flush()
	for i := range dst {
		dst[i] = a.sums[i] + a.fullSum
	}
}

// SweepSums runs one MultiSourceMasksInto sweep from up to 64 sources over g
// and writes lane i's distance sum to dst[i]: the farness of sources[i] on a
// connected graph. s and acc are the caller's, one pair per worker. A sweep
// interrupted through s's done channel writes partial sums, which the caller
// must discard.
func SweepSums(g *graph.Graph, sources []graph.NodeID, s *MSScratch, acc *LaneAcc, dst []int64) {
	acc.Reset(len(sources))
	MultiSourceMasksInto(g, sources, s, func(_ graph.NodeID, mask uint64, d int32) {
		acc.Add(mask, d)
	})
	acc.Sums(dst[:len(sources)])
}

// fullMask is the bitmask with the low k lanes set.
func fullMask(k int) uint64 {
	if k >= MSBFSWidth {
		return ^uint64(0)
	}
	return uint64(1)<<uint(k) - 1
}
