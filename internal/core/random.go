package core

import (
	"math/rand"

	"repro/internal/graph"
)

// sampleK draws k distinct values from [0, n) uniformly at random using a
// partial Fisher–Yates shuffle. k is clamped to [1, n].
func sampleK(n, k int, rng *rand.Rand) []graph.NodeID {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids[:k]
}

// samplesFor converts a fraction into a source count.
func samplesFor(n int, fraction float64) int {
	k := int(fraction*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// RandomSampling is the paper's Algorithm 1: choose k = fraction·n nodes
// uniformly at random, traverse from each, report exact farness for the
// sampled nodes and the (n−1)/k-scaled distance sum for the rest. It is
// Estimate with no reduction technique and the paper's extrapolation, so the
// baseline and BRICS share one traversal driver and one accumulator: the
// graph must be connected, pure paths and cycles are answered in closed
// form, and fraction ≤ 0 means Estimate's default.
func RandomSampling(g *graph.Graph, fraction float64, workers int, seed int64) (*Result, error) {
	return Estimate(g, Options{SampleFraction: fraction, Workers: workers, Seed: seed, Estimator: EstimatorPaper})
}
