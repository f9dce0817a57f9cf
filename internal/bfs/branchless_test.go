package bfs

import (
	"math/rand"
	"testing"
)

// TestNzb pins the nonzero-bit helper the branch-avoiding rewrites lean on.
func TestNzb(t *testing.T) {
	cases := []struct {
		x    uint64
		want uint64
	}{
		{0, 0}, {1, 1}, {2, 1}, {1 << 63, 1}, {^uint64(0), 1}, {0xdeadbeef, 1},
	}
	for _, c := range cases {
		if got := nzb(c.x); got != c.want {
			t.Fatalf("nzb(%#x) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestBranchlessCommitMatchesBranchy property-checks the scalar update the
// multi-source commit loop performs per node against an if-based reference:
// the partial-lane counter delta and the full-saturation detector must agree
// for every (old, arriving, active) triple.
func TestBranchlessCommitMatchesBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 5000; trial++ {
		lanes := rng.Intn(MSBFSWidth) + 1
		var active uint64
		if lanes == 64 {
			active = ^uint64(0)
		} else {
			active = (1 << uint(lanes)) - 1
		}
		old := rng.Uint64() & active
		nw := rng.Uint64() & active &^ old
		now := old | nw

		// Branch-avoiding form (mirrors msbfs.go).
		wasSeen := nzb(old)
		notFull := nzb(now ^ active)
		deltaBranchless := int((wasSeen^1)&notFull) - int(wasSeen&(notFull^1))
		fullDiffContribution := nw ^ active

		// Branchy reference: the counter tracks nodes that are seen by some
		// lane but not yet all lanes.
		deltaBranchy := 0
		if old == 0 && now != active {
			deltaBranchy = 1
		} else if old != 0 && now == active {
			deltaBranchy = -1
		}
		if deltaBranchless != deltaBranchy {
			t.Fatalf("old=%#x nw=%#x active=%#x: branchless delta %d, branchy %d",
				old, nw, active, deltaBranchless, deltaBranchy)
		}
		// fullDiff accumulates nw^active; it is zero across a level exactly
		// when every commit arrived with the full mask.
		if (fullDiffContribution == 0) != (nw == active) {
			t.Fatalf("old=%#x nw=%#x active=%#x: fullDiff contribution inconsistent", old, nw, active)
		}
	}
}
