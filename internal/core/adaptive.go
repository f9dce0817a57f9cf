package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/stats"
)

// AdaptiveOptions configures EstimateAdaptive.
type AdaptiveOptions struct {
	// Base configures each estimation round; its SampleFraction is
	// ignored (the adaptive loop chooses fractions itself).
	Base Options
	// TargetError is the desired mean relative deviation between
	// consecutive rounds' estimates; the loop stops once the observed
	// inter-round drift falls below it. Default 0.01 (1%).
	TargetError float64
	// InitialFraction seeds the first round; default 0.05.
	InitialFraction float64
	// MaxFraction caps the escalation; default 0.5.
	MaxFraction float64
	// GrowthFactor multiplies the fraction between rounds; default 2.
	GrowthFactor float64
}

// AdaptiveResult extends Result with the escalation trace.
type AdaptiveResult struct {
	Result
	// Rounds lists the sampling fraction used in each round.
	Rounds []float64
	// Drifts lists the mean relative change between consecutive rounds
	// (len = len(Rounds)−1).
	Drifts []float64
}

// EstimateAdaptive runs the BRICS estimator with an escalating sampling
// fraction until the estimates stabilise — the practical answer to "which
// sampling rate does my graph need?" that the paper resolves empirically
// (20 % for the cumulative method, Fig. 4(b)). The stopping rule uses the
// inter-round drift of the estimates as a proxy for their error, in the
// spirit of Cohen et al.'s adaptive error estimation: when doubling the
// sample leaves the values (mean relative change) within TargetError, the
// current round is returned.
func EstimateAdaptive(g *graph.Graph, opts AdaptiveOptions) (*AdaptiveResult, error) {
	return EstimateAdaptiveContext(context.Background(), g, opts)
}

// EstimateAdaptiveContext is EstimateAdaptive with cooperative cancellation:
// ctx is threaded into Prepare and every round, so a cancellation aborts
// the current stage at its next checkpoint and the loop returns the
// ErrCanceled-wrapping error. The graph is prepared once and every round
// runs on that plan; each round equals EstimateContext with its fraction
// and seed, and the first round's Preprocess counts the plan's build.
func EstimateAdaptiveContext(ctx context.Context, g *graph.Graph, opts AdaptiveOptions) (*AdaptiveResult, error) {
	// Negated comparisons treat NaN as unset: a NaN fraction or factor
	// would keep the escalation NaN and the loop would never stop.
	if !(opts.TargetError > 0) {
		opts.TargetError = 0.01
	}
	if !(opts.InitialFraction > 0) {
		opts.InitialFraction = 0.05
	}
	if !(opts.MaxFraction > 0 && opts.MaxFraction <= 1) {
		opts.MaxFraction = 0.5
	}
	if !(opts.GrowthFactor > 1) {
		opts.GrowthFactor = 2
	}
	plan, err := Prepare(ctx, g, opts.Base.Techniques, opts.Base.Workers)
	if err != nil {
		return nil, err
	}
	var prev *Result
	out := &AdaptiveResult{}
	fraction := opts.InitialFraction
	for round := 0; ; round++ {
		o := opts.Base
		o.SampleFraction = fraction
		o.Seed = opts.Base.Seed + int64(round) // decorrelate rounds
		res, err := plan.Estimate(ctx, o)
		if round == 0 && err == nil {
			res.Stats.Preprocess += plan.BuildTime()
		}
		if err != nil {
			// Anytime degradation: a canceled round falls back to the last
			// completed round's full result, re-marked Partial — it is a
			// genuine estimate, just not the escalation's converged answer.
			// (The interrupted round itself degrades via res.Partial below.)
			if o.Anytime && prev != nil && canceledErr(err) {
				out.Result = *prev
				out.Result.Partial = true
				out.Result.Completed = prev.Stats.Samples
				out.Result.Planned = prev.Stats.Samples
				return out, nil
			}
			return nil, err
		}
		if res.Partial {
			// The round itself degraded into a partial result; surface it
			// with its bounds rather than escalating further.
			out.Rounds = append(out.Rounds, fraction)
			out.Result = *res
			return out, nil
		}
		out.Rounds = append(out.Rounds, fraction)
		if prev != nil {
			drift := meanRelDiff(prev.Farness, res.Farness)
			out.Drifts = append(out.Drifts, drift)
			if drift <= opts.TargetError || fraction >= opts.MaxFraction {
				out.Result = *res
				return out, nil
			}
		} else if fraction >= opts.MaxFraction {
			out.Result = *res
			return out, nil
		}
		prev = res
		fraction = math.Min(fraction*opts.GrowthFactor, opts.MaxFraction)
	}
}

func meanRelDiff(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range a {
		denom := math.Max(math.Abs(b[i]), 1)
		s += math.Abs(a[i]-b[i]) / denom
	}
	return s / float64(len(a))
}

// VerifyQuality is a convenience for tests and tooling: it computes the
// paper's Quality and average-error metrics of an estimate against the
// exact oracle (which it computes — expensive).
func VerifyQuality(g *graph.Graph, res *Result, workers int) (quality, avgErrPct float64, err error) {
	if len(res.Farness) != g.NumNodes() {
		return 0, 0, fmt.Errorf("core: result size %d != graph %d", len(res.Farness), g.NumNodes())
	}
	actual := ExactFarness(g, workers)
	return stats.Quality(res.Farness, actual), stats.AvgErrorPercent(res.Farness, actual), nil
}
