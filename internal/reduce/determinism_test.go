package reduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// workerSweep returns the worker counts the determinism tests compare:
// 1..GOMAXPROCS plus a few fixed counts beyond it, so block-boundary and
// oversubscription cases are exercised even on small machines.
func workerSweep() []int {
	seen := map[int]bool{}
	var out []int
	add := func(w int) {
		if w >= 1 && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	for w := 1; w <= runtime.GOMAXPROCS(0); w++ {
		add(w)
	}
	for _, w := range []int{2, 3, 4, 7, 8} {
		add(w)
	}
	return out
}

// assertSameReduction fails unless got matches want in every field of the
// determinism contract: Events, ToOld, ToNew, Stats and the reduced graph.
// Timings is deliberately excluded — it is wall-clock, not output.
func assertSameReduction(t *testing.T, label string, want, got *Reduction) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("%s: Stats differ: want %+v, got %+v", label, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.ToOld, got.ToOld) {
		t.Fatalf("%s: ToOld differs", label)
	}
	if !reflect.DeepEqual(want.ToNew, got.ToNew) {
		t.Fatalf("%s: ToNew differs", label)
	}
	if len(want.Events) != len(got.Events) {
		t.Fatalf("%s: event count differs: want %d, got %d", label, len(want.Events), len(got.Events))
	}
	for i := range want.Events {
		if !reflect.DeepEqual(want.Events[i], got.Events[i]) {
			t.Fatalf("%s: event %d differs: want %#v, got %#v", label, i, want.Events[i], got.Events[i])
		}
	}
	if !reflect.DeepEqual(want.G, got.G) {
		t.Fatalf("%s: reduced graph differs (n=%d vs n=%d, m=%d vs m=%d)",
			label, want.G.NumNodes(), got.G.NumNodes(), want.G.NumEdges(), got.G.NumEdges())
	}
}

// generatorFamilies are the paper's four graph classes at a size small
// enough for CI but large enough to hit every stage (twins, chains,
// redundant nodes) and the parallel builders' block thresholds.
func generatorFamilies() []struct {
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

// TestRunDeterministicAcrossWorkers pins the tentpole guarantee: for every
// generator family, Run at any worker count is bit-identical to Run at one
// worker.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, fam := range generatorFamilies() {
		g := graph.Connect(fam.gen(6000, 12345))
		base, err := Run(g, Options{Twins: true, Chains: true, Redundant: true, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		for _, w := range workerSweep() {
			got, err := Run(g, Options{Twins: true, Chains: true, Redundant: true, Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", fam.name, w, err)
			}
			assertSameReduction(t, fmt.Sprintf("%s workers=%d", fam.name, w), base, got)
		}
	}
}

// TestDeterminismRandomMixed stresses the sweep with adversarial random
// graphs (the same generator the correctness property tests use), across
// every stage subset — partial pipelines exercise the nil-curToOld
// identity path and a reduced graph that stays unweighted.
func TestDeterminismRandomMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := randomMixed(rng)
		if !graph.IsConnected(g) {
			g = graph.Connect(g)
		}
		for oi, opts := range allOptions() {
			opts.Workers = 1
			base, err := Run(g, opts)
			if err != nil {
				t.Fatalf("trial %d opts %d: %v", trial, oi, err)
			}
			for _, w := range []int{2, 3, 5} {
				opts.Workers = w
				got, err := Run(g, opts)
				if err != nil {
					t.Fatalf("trial %d opts %d workers=%d: %v", trial, oi, w, err)
				}
				assertSameReduction(t, fmt.Sprintf("trial %d opts %d workers=%d", trial, oi, w), base, got)
			}
		}
	}
}
