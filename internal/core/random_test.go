package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// These tests pin the sampling primitives the whole estimator stack rests
// on: sampleK must return exactly k distinct in-range ids (clamped), every
// element must be equally likely (the partial Fisher–Yates must not skew),
// and samplesFor must round the fraction to the nearest count with the
// documented clamps. Clustered batching reorders sampleK's output, so any
// bias or duplication here would silently corrupt every estimator.

func TestSampleKExactlyKDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, k, want int }{
		{10, 3, 3},
		{10, 10, 10},
		{10, 15, 10}, // k > n clamps to n
		{10, 0, 1},   // k < 1 clamps to 1
		{10, -5, 1},
		{1, 1, 1},
		{1000, 999, 999},
	} {
		got := sampleK(tc.n, tc.k, rng)
		if len(got) != tc.want {
			t.Fatalf("sampleK(%d, %d): len = %d, want %d", tc.n, tc.k, len(got), tc.want)
		}
		seen := make(map[graph.NodeID]bool, len(got))
		for _, v := range got {
			if v < 0 || int(v) >= tc.n {
				t.Fatalf("sampleK(%d, %d): out-of-range id %d", tc.n, tc.k, v)
			}
			if seen[v] {
				t.Fatalf("sampleK(%d, %d): duplicate id %d", tc.n, tc.k, v)
			}
			seen[v] = true
		}
	}
}

// TestSampleKUnbiased is a frequency test over many seeds: drawing k of n
// repeatedly, every element must be chosen with probability k/n. The
// tolerance is six standard deviations of the Binomial(T, k/n) count, so a
// correct implementation fails with probability ≈ 2e-9 per cell while an
// off-by-one in the Fisher–Yates range (rng.Intn(n-i) vs rng.Intn(n-i)+i)
// lands tens of deviations out.
func TestSampleKUnbiased(t *testing.T) {
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, v := range sampleK(n, k, rng) {
			counts[v]++
		}
	}
	p := float64(k) / float64(n)
	mean := trials * p
	sigma := math.Sqrt(trials * p * (1 - p))
	for v, c := range counts {
		if math.Abs(float64(c)-mean) > 6*sigma {
			t.Fatalf("element %d drawn %d times, want %.0f ± %.0f (6σ): sampler is biased", v, c, mean, 6*sigma)
		}
	}
}

// TestSampleKFirstPositionUniform guards the per-position distribution too:
// the first drawn element alone must be uniform over [0, n). A sampler that
// is set-unbiased but position-biased would still skew batched traversal
// order statistics.
func TestSampleKFirstPositionUniform(t *testing.T) {
	const n, trials = 16, 16000
	counts := make([]int, n)
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		counts[sampleK(n, 4, rng)[0]]++
	}
	p := 1.0 / float64(n)
	mean := trials * p
	sigma := math.Sqrt(trials * p * (1 - p))
	for v, c := range counts {
		if math.Abs(float64(c)-mean) > 6*sigma {
			t.Fatalf("first position drew %d %d times, want %.0f ± %.0f (6σ)", v, c, mean, 6*sigma)
		}
	}
}

func TestSamplesForRounding(t *testing.T) {
	for _, tc := range []struct {
		n    int
		f    float64
		want int
	}{
		{10, 0.25, 3},  // 2.5 rounds up
		{10, 0.24, 2},  // 2.4 rounds down
		{10, 1.0, 10},  // full population
		{10, 0.001, 1}, // floor clamp: at least one source
		{1, 1.0, 1},
		{3, 0.5, 2},      // 1.5 rounds up
		{1000, 0.2, 200}, // exact
		{7, 0.9999, 7},   // 6.9993+0.5 = 7.4993 truncates to 7, ceiling clamp holds
	} {
		if got := samplesFor(tc.n, tc.f); got != tc.want {
			t.Fatalf("samplesFor(%d, %g) = %d, want %d", tc.n, tc.f, got, tc.want)
		}
	}
	// The ceiling clamp: rounding can never exceed n.
	for n := 1; n <= 50; n++ {
		if got := samplesFor(n, 1.0); got != n {
			t.Fatalf("samplesFor(%d, 1.0) = %d, want %d", n, got, n)
		}
	}
}

// TestRandomSamplingDisconnected: the baseline shares Estimate's
// precondition, so a disconnected graph is an error rather than a sum of
// Unreached distances.
func TestRandomSamplingDisconnected(t *testing.T) {
	g := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	if res, err := RandomSampling(g, 0.5, 2, 1); err == nil || res != nil {
		t.Fatalf("disconnected graph: got result %v, err %v; want an error", res, err)
	}
}

// TestRandomSamplingCycle: a pure cycle is answered in closed form, every
// value exact and equal to the oracle, whatever the fraction.
func TestRandomSamplingCycle(t *testing.T) {
	const n = 11
	edges := make([][2]int32, n)
	for i := range edges {
		edges[i] = [2]int32{int32(i), int32((i + 1) % n)}
	}
	g := graph.FromEdges(n, edges)
	res, err := RandomSampling(g, 0.2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := ExactFarness(g, 2)
	for v := range want {
		if !res.Exact[v] || res.Farness[v] != want[v] {
			t.Fatalf("node %d: %v (exact %v), oracle %v", v, res.Farness[v], res.Exact[v], want[v])
		}
	}
}
