package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestEstimateAdaptiveConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomMixed(rng, 80)
	res, err := EstimateAdaptive(g, AdaptiveOptions{
		Base:        Options{Techniques: TechCumulative, Seed: 7},
		TargetError: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds recorded")
	}
	if len(res.Drifts) != len(res.Rounds)-1 {
		t.Fatalf("drifts %d, rounds %d", len(res.Drifts), len(res.Rounds))
	}
	// Fractions must escalate monotonically up to the cap.
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i] <= res.Rounds[i-1] {
			t.Fatalf("rounds not escalating: %v", res.Rounds)
		}
	}
	// The returned estimate must be decent.
	want := ExactFarness(g, 2)
	var q float64
	for i := range want {
		q += res.Farness[i] / math.Max(want[i], 1)
	}
	q /= float64(len(want))
	if q < 0.85 || q > 1.15 {
		t.Fatalf("adaptive quality = %v", q)
	}
}

func TestEstimateAdaptiveRespectsMaxFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomMixed(rng, 40)
	res, err := EstimateAdaptive(g, AdaptiveOptions{
		Base:            Options{Techniques: TechChains, Seed: 1},
		TargetError:     1e-12, // unreachable: force escalation to the cap
		InitialFraction: 0.1,
		MaxFraction:     0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last > 0.3+1e-9 {
		t.Fatalf("fraction exceeded cap: %v", res.Rounds)
	}
}

func TestEstimateAdaptiveDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomMixed(rng, 30)
	if _, err := EstimateAdaptive(g, AdaptiveOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateAdaptiveNaNOptions sets each float option to NaN in turn and
// requires the escalation to treat it as unset: an answer before the
// deadline, every round at a real fraction no larger than the cap.
func TestEstimateAdaptiveNaNOptions(t *testing.T) {
	g := gen.Community(400, 3)
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		set  func(*AdaptiveOptions)
	}{
		{"TargetError", func(o *AdaptiveOptions) { o.TargetError = nan }},
		{"InitialFraction", func(o *AdaptiveOptions) { o.InitialFraction = nan }},
		{"MaxFraction", func(o *AdaptiveOptions) { o.MaxFraction = nan }},
		{"GrowthFactor", func(o *AdaptiveOptions) { o.GrowthFactor = nan }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := AdaptiveOptions{Base: Options{Techniques: TechCumulative, Seed: 1}}
			tc.set(&opts)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			res, err := EstimateAdaptiveContext(ctx, g, opts)
			if err != nil {
				t.Fatalf("no answer: %v", err)
			}
			for _, f := range res.Rounds {
				if !(f > 0 && f <= 0.5) {
					t.Fatalf("rounds %v: want fractions in (0, 0.5]", res.Rounds)
				}
			}
		})
	}
}

func TestVerifyQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomMixed(rng, 30)
	res, err := Estimate(g, Options{Techniques: TechCumulative, SampleFraction: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, e, err := VerifyQuality(g, res, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.7 || q > 1.3 || e < 0 {
		t.Fatalf("quality %v err%% %v", q, e)
	}
	bad := &Result{Farness: []float64{1}}
	if _, _, err := VerifyQuality(g, bad, 1); err == nil {
		t.Fatal("size mismatch should error")
	}
}
