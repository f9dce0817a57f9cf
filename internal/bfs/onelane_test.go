package bfs

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// layouts returns g under three vertex numberings: the generator's own,
// the Cuthill–McKee order of graph.BFSOrder and a seeded random shuffle.
// Every traversal kernel must be layout-invariant.
func layouts(g *graph.Graph, seed int64) []struct {
	name string
	perm []graph.NodeID // nil for the generator's own numbering
} {
	n := g.NumNodes()
	shuffle := make([]graph.NodeID, n)
	for i, p := range rand.New(rand.NewSource(seed)).Perm(n) {
		shuffle[i] = graph.NodeID(p)
	}
	return []struct {
		name string
		perm []graph.NodeID
	}{{"none", nil}, {"bfs", graph.BFSOrder(g.ToWeighted(), 2)}, {"random", shuffle}}
}

// TestFrontierMatchesDistancesOnFamilies cross-checks the direction-optimising
// frontier kernel, run as a one-lane sweep the way core traverses a single
// source of an unweighted unit, against the plain queue BFS on all four
// generator families under every layout: distances bit-identical per node,
// and therefore the farness sums too. One scratch is reused across every
// sweep, as a traversal worker reuses it. The 5000-node road case drives
// long, thin push-only frontiers; the social case drives the pull levels.
func TestFrontierMatchesDistancesOnFamilies(t *testing.T) {
	s := new(MSScratch)
	for _, fam := range genFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			sizes := []int{60, 400, 5000}
			if testing.Short() {
				sizes = sizes[:2]
			}
			for _, size := range sizes {
				base := fam.build(size, int64(size))
				modes := layouts(base, int64(size))
				if testing.Short() {
					modes = modes[:1]
				}
				for _, mode := range modes {
					g := base
					if mode.perm != nil {
						g = graph.Permute(base, mode.perm)
					}
					n := g.NumNodes()
					want := make([]int32, n)
					got := make([]int32, n)
					for trial := 0; trial < 4; trial++ {
						src := graph.NodeID(rng.Intn(n))
						Distances(g, src, want, nil)
						oneLaneDistances(g, src, got, s)
						for v := range want {
							if got[v] != want[v] {
								t.Fatalf("%s n=%d layout=%s src=%d node %d: sweep %d, sequential %d",
									fam.name, n, mode.name, src, v, got[v], want[v])
							}
						}
						wantSum, _ := Sum(want)
						if gotSum, _ := Sum(got); gotSum != wantSum {
							t.Fatalf("%s n=%d layout=%s src=%d: farness %d, want %d", fam.name, n, mode.name, src, gotSum, wantSum)
						}
					}
				}
			}
		})
	}
}

// TestWFrontierMatchesWDistances cross-checks one-lane sweeps through
// MultiSourceW against a fresh sequential Dial on randomly weighted versions
// of the four families: the level-sync kernel over the WGraph CSR on the
// unit-weight range, the lane-masked Dial otherwise. As in core's traversal
// driver, one scratch serves every sweep and grows to the largest graph and
// weight it meets.
func TestWFrontierMatchesWDistances(t *testing.T) {
	weightRanges := []struct {
		name   string
		lo, hi int32
	}{
		{"unit", 1, 1},
		{"small", 1, 7},
		{"wide", 1, 60},
	}
	for _, fam := range genFamilies {
		for _, wr := range weightRanges {
			t.Run(fam.name+"/"+wr.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(29))
				trials := 4
				if testing.Short() {
					trials = 2
				}
				s := new(MSScratch)
				for trial := 0; trial < trials; trial++ {
					g := fam.build(rng.Intn(900)+80, int64(trial)+17)
					wg := reweight(g, wr.lo, wr.hi, rng)
					n := wg.NumNodes()
					want := make([]int32, n)
					src := graph.NodeID(rng.Intn(n))
					WDistances(wg, src, want, nil)
					got := make([]int32, n)
					multiSourceWRows(wg, wg.Unweighted(), []graph.NodeID{src}, s, [][]int32{got})
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("%s/%s src=%d node %d: sweep %d, dial %d",
								fam.name, wr.name, src, v, got[v], want[v])
						}
					}
				}
			})
		}
	}
}
