package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
)

// These tests run the estimators on inputs whose node ids were permuted by
// graph.Permute. Every traversal runs on the canonical reduced graph of its
// input, so a permuted input is just another layout: on it every sweep width
// and worker count must agree bit for bit, and every exact value must match the
// all-pairs oracle of that same permuted graph.

func relabelFamilies() []struct {
	name string
	gen  func(int, int64) *graph.Graph
} {
	return []struct {
		name string
		gen  func(int, int64) *graph.Graph
	}{
		{"web", gen.Web},
		{"social", gen.Social},
		{"community", gen.Community},
		{"road", gen.Road},
	}
}

// relabelPerms returns two renumberings of g: its Cuthill–McKee order
// (graph.BFSOrder) and a seeded random shuffle.
func relabelPerms(g *graph.Graph) map[string][]graph.NodeID {
	shuffle := make([]graph.NodeID, g.NumNodes())
	for i, p := range rand.New(rand.NewSource(1)).Perm(g.NumNodes()) {
		shuffle[i] = graph.NodeID(p)
	}
	return map[string][]graph.NodeID{"bfs": graph.BFSOrder(g, 0), "random": shuffle}
}

func relabelWorkerSweep() []int {
	out := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		out = append(out, p)
	}
	return out
}

// assertSameResult fails unless got matches want in every output field.
// Farness is compared with ==, not a tolerance: the determinism contract is
// bit-identity, and every accumulator on the path is integer arithmetic.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Farness) != len(got.Farness) {
		t.Fatalf("%s: length differs: want %d, got %d", label, len(want.Farness), len(got.Farness))
	}
	for v := range want.Farness {
		if want.Farness[v] != got.Farness[v] {
			t.Fatalf("%s: farness[%d] differs: want %v, got %v", label, v, want.Farness[v], got.Farness[v])
		}
		if want.Exact[v] != got.Exact[v] {
			t.Fatalf("%s: exact[%d] differs: want %v, got %v", label, v, want.Exact[v], got.Exact[v])
		}
	}
	if want.Stats.Samples != got.Stats.Samples {
		t.Fatalf("%s: samples differ: want %d, got %d", label, want.Stats.Samples, got.Stats.Samples)
	}
}

// TestEstimateRelabelBitIdentical estimates on BFS-ordered and randomly
// shuffled copies of all four families, through the global and cumulative
// estimators. On each layout 1- and 64-lane sweeps (pinned through the
// decision hook) at 1/2/4/GOMAXPROCS workers must equal the 1-lane run at 1
// worker, and every value flagged exact must equal bfs.ExactFarness of the
// relabeled graph.
func TestEstimateRelabelBitIdentical(t *testing.T) {
	techs := []struct {
		name string
		t    Technique
	}{
		{"ICR", TechICR},
		{"cumulative", TechCumulative},
	}
	for _, fam := range relabelFamilies() {
		g := graph.Connect(fam.gen(3000, 42))
		for mode, perm := range relabelPerms(g) {
			pg := graph.Permute(g, perm)
			oracle := bfs.ExactFarness(pg, 0)
			for _, tech := range techs {
				est := func(w int) *Result {
					t.Helper()
					res, err := Estimate(pg, Options{
						Techniques:     tech.t,
						SampleFraction: 0.2,
						Seed:           7,
						Workers:        w,
					})
					if err != nil {
						t.Fatalf("%s/%s/%s workers=%d: %v", fam.name, mode, tech.name, w, err)
					}
					return res
				}
				pinSweepWidth(t, 1, nil)
				base := est(1)
				for v, exact := range base.Exact {
					if exact && base.Farness[v] != oracle[v] {
						t.Fatalf("%s/%s/%s node %d: exact farness %v, oracle %v", fam.name, mode, tech.name, v, base.Farness[v], oracle[v])
					}
				}
				for _, width := range []int{1, bfs.MSBFSWidth} {
					pinSweepWidth(t, width, nil)
					for _, w := range relabelWorkerSweep() {
						label := fmt.Sprintf("%s/%s/%s/width=%d workers=%d", fam.name, mode, tech.name, width, w)
						assertSameResult(t, label, base, est(w))
					}
				}
			}
		}
	}
}

// TestEstimateHybridMatchesPerSource pins the direction-optimising (push/pull)
// sweep kernel, run one source per sweep, against the plain top-down BFS of
// the exact oracle: every value a 1-lane run reports as exact equals
// bfs.ExactFarness (BFS levels are unique, so push and pull produce the same
// distance rows).
func TestEstimateHybridMatchesPerSource(t *testing.T) {
	pinSweepWidth(t, 1, nil)
	for _, fam := range relabelFamilies() {
		g := graph.Connect(fam.gen(600, 9))
		oracle := ExactFarness(g, 2)
		for _, tech := range []Technique{0, TechICR, TechCumulative} {
			res, err := Estimate(g, Options{Techniques: tech, SampleFraction: 1, Seed: 3})
			if err != nil {
				t.Fatalf("%s/%v: %v", fam.name, tech, err)
			}
			checked := 0
			for v, exact := range res.Exact {
				if !exact {
					continue
				}
				checked++
				if res.Farness[v] != oracle[v] {
					t.Fatalf("%s/%v node %d: 1-lane %v, oracle %v", fam.name, tech, v, res.Farness[v], oracle[v])
				}
			}
			if checked == 0 {
				t.Fatalf("%s/%v: no exact value to check", fam.name, tech)
			}
		}
	}
}

// TestRandomSamplingHybridMatches covers the unreduced baseline path: at
// fraction 1 every node is a source, so 1-lane sweeps of the push/pull
// kernel must reproduce the plain-BFS oracle exactly.
func TestRandomSamplingHybridMatches(t *testing.T) {
	pinSweepWidth(t, 1, nil)
	for _, fam := range relabelFamilies() {
		g := graph.Connect(fam.gen(600, 11))
		oracle := ExactFarness(g, 2)
		res, err := RandomSampling(g, 1, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		for v := range oracle {
			if !res.Exact[v] || res.Farness[v] != oracle[v] {
				t.Fatalf("%s node %d: 1-lane %v (exact %v), oracle %v", fam.name, v, res.Farness[v], res.Exact[v], oracle[v])
			}
		}
	}
}
