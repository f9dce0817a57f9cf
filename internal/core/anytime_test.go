package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

// anytimeFamilies are the four generator families of the acceptance
// criteria. Sizes are kept small enough that the exact oracle stays cheap
// but every reduction technique still fires.
func anytimeFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"web":       gen.Web(260, 3),
		"social":    gen.Social(260, 5),
		"community": gen.Community(260, 7),
		"road":      gen.Road(240, 9),
	}
}

// cancelAt returns a Progress whose OnAdvance cancels ctx the moment the
// completed count reaches target. With Workers=1 the fan-out is sequential,
// so exactly target sources complete — a deterministic partial run.
func cancelAt(cancel context.CancelFunc, target int64) *Progress {
	p := &Progress{}
	p.OnAdvance = func(completed, _ int64) {
		if completed == target {
			cancel()
		}
	}
	return p
}

// TestAnytimePartialBoundsContainExact is the acceptance property test:
// a partial result's confidence interval [Low, High] must contain the true
// farness of every vertex, on all four generator families, for the plain
// sampling estimator, the ICR-reduced estimator and the cumulative method.
// At 4 workers the partial result sums every worker's accumulators.
func TestAnytimePartialBoundsContainExact(t *testing.T) {
	pinSweepWidth(t, 1, nil) // one row per advance: the cancel lands exactly
	for name, g := range anytimeFamilies(t) {
		exact := ExactFarness(g, 4)
		for _, tech := range []Technique{0, TechICR, TechCumulative} {
			for _, workers := range []int{1, 4} {
				checkPartialBounds(t, fmt.Sprintf("%s/%v/w%d", name, tech, workers), g, exact, tech, workers)
			}
		}
	}
}

// checkPartialBounds interrupts one anytime run partway and checks its
// progress, bound sizes and bounds against the exact farness.
func checkPartialBounds(t *testing.T, name string, g *graph.Graph, exact []float64, tech Technique, workers int) {
	t.Helper()
	n := g.NumNodes()
	ctx, cancel := context.WithCancel(context.Background())
	prog := &Progress{}
	opts := Options{
		Techniques:     tech,
		SampleFraction: 0.5,
		Seed:           11,
		Workers:        workers,
		Anytime:        true,
		Progress:       prog,
	}
	// A multi-block plan can only degrade once every cut traversal has
	// completed (cuts-first ordering banks those first), so it is
	// interrupted near the end; the one-block plans halfway through.
	// After the cancel each other worker may still bank the row it is
	// accumulating, so the cumulative target leaves room for them.
	prog.OnAdvance = func(completed, planned int64) {
		var target int64
		if tech == TechCumulative {
			target = planned - 1 - int64(workers)
		} else {
			target = planned / 2
		}
		if target < 1 {
			target = 1
		}
		if completed == target {
			cancel()
		}
	}
	res, err := EstimateContext(ctx, g, opts)
	cancel()
	if err != nil {
		t.Fatalf("%s: want partial result, got error %v", name, err)
	}
	if !res.Partial {
		t.Fatalf("%s: interrupted run not marked Partial", name)
	}
	if res.Completed <= 0 || res.Completed >= res.Planned {
		t.Fatalf("%s: implausible progress %d/%d", name, res.Completed, res.Planned)
	}
	if len(res.Low) != n || len(res.High) != n || len(res.Farness) != n {
		t.Fatalf("%s: bound slices sized %d/%d (farness %d), want %d",
			name, len(res.Low), len(res.High), len(res.Farness), n)
	}
	const eps = 1e-9
	for v := 0; v < n; v++ {
		if res.Low[v] > exact[v]+eps || res.High[v] < exact[v]-eps {
			t.Fatalf("%s: vertex %d exact farness %v outside CI [%v, %v] (exact flag %v)",
				name, v, exact[v], res.Low[v], res.High[v], res.Exact[v])
		}
		if res.Farness[v] < res.Low[v]-eps || res.Farness[v] > res.High[v]+eps {
			t.Fatalf("%s: vertex %d estimate %v outside its own CI [%v, %v]",
				name, v, res.Farness[v], res.Low[v], res.High[v])
		}
		if res.Exact[v] && math.Abs(res.Farness[v]-exact[v]) > eps {
			t.Fatalf("%s: vertex %d flagged exact but farness %v != %v",
				name, v, res.Farness[v], exact[v])
		}
	}
}

// TestAnytimeFullRunsBitIdentical: an uninterrupted anytime run must produce
// exactly the same floats as the plain run, at every worker count and for
// every technique — the anytime bookkeeping adds observation, never changes
// an accumulated integer.
func TestAnytimeFullRunsBitIdentical(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"community": gen.Community(600, 4),
		"web":       gen.Web(500, 6),
	} {
		for _, tech := range []Technique{0, TechICR, TechCumulative} {
			for _, workers := range []int{1, 2, 4} {
				opts := Options{Techniques: tech, SampleFraction: 0.3, Seed: 21, Workers: workers}
				want, err := Estimate(g, opts)
				if err != nil {
					t.Fatalf("%s/%v/w%d: %v", name, tech, workers, err)
				}
				prog := &Progress{}
				opts.Anytime = true
				opts.Progress = prog
				got, err := EstimateContext(context.Background(), g, opts)
				if err != nil {
					t.Fatalf("%s/%v/w%d anytime: %v", name, tech, workers, err)
				}
				if got.Partial {
					t.Fatalf("%s/%v/w%d: uninterrupted run marked Partial", name, tech, workers)
				}
				for i := range want.Farness {
					if want.Farness[i] != got.Farness[i] {
						t.Fatalf("%s/%v/w%d: farness[%d] %v (plain) != %v (anytime)",
							name, tech, workers, i, want.Farness[i], got.Farness[i])
					}
					if want.Exact[i] != got.Exact[i] {
						t.Fatalf("%s/%v/w%d: exact[%d] differs", name, tech, workers, i)
					}
				}
				if c, p := prog.Completed(), prog.Planned(); c != p || p == 0 {
					t.Fatalf("%s/%v/w%d: progress %d/%d after a full run", name, tech, workers, c, p)
				}
			}
		}
	}
}

// TestAnytimeSnapshots: a running estimation builds snapshots on demand,
// and each is internally consistent. A snapshot taken at k completed
// sources is the partial result the run returns when canceled there, field
// for field, and snapshots polled from another goroutine during a
// multi-worker run never run ahead of the progress counter and bracket the
// exact farness.
func TestAnytimeSnapshots(t *testing.T) {
	g := gen.Community(500, 13)
	prog := &Progress{}
	var snaps int64
	prog.OnAdvance = func(completed, planned int64) {
		if s := prog.Snapshot(); s != nil {
			atomic.AddInt64(&snaps, 1)
			if !s.Partial || s.Completed <= 0 || s.Completed > int(completed) {
				panic("inconsistent snapshot")
			}
		}
	}
	pinSweepWidth(t, 1, nil)
	opts := Options{SampleFraction: 0.4, Seed: 3, Workers: 1, Anytime: true, Progress: prog}
	if _, err := EstimateContext(context.Background(), g, opts); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&snaps) == 0 {
		t.Fatal("no snapshot was ever observable during the run")
	}
	final := prog.Snapshot()
	if final == nil || !final.Partial {
		t.Fatal("final published snapshot missing or not partial")
	}
	if len(final.Low) != g.NumNodes() {
		t.Fatalf("snapshot bounds sized %d, want %d", len(final.Low), g.NumNodes())
	}

	// A snapshot at k completed sources equals the run's own partial when
	// the run is canceled right there (one worker, one row per advance).
	for _, tech := range []Technique{0, TechICR} {
		for _, k := range []int64{1, 2, 3, 5, 8, 13} {
			name := fmt.Sprintf("%v/k%d", tech, k)
			ctx, cancel := context.WithCancel(context.Background())
			prog := &Progress{}
			var snap *Result
			prog.OnAdvance = func(completed, _ int64) {
				if completed == k {
					snap = prog.Snapshot()
					cancel()
				}
			}
			opts := Options{Techniques: tech, SampleFraction: 0.4, Seed: 3, Workers: 1, Anytime: true, Progress: prog}
			res, err := EstimateContext(ctx, g, opts)
			cancel()
			if err != nil {
				t.Fatalf("%s: want partial result, got %v", name, err)
			}
			if snap == nil {
				t.Fatalf("%s: no snapshot at %d completed sources", name, k)
			}
			assertSamePartial(t, name, snap, res, int(k))
		}
	}

	// On a multi-block plan the snapshot is nil until every cut sweep has
	// landed (cuts first, one row per advance), and from then on it is the
	// run's own partial at that count; before it the canceled run has no
	// partial to return.
	web := gen.Web(400, 5)
	p, err := Prepare(context.Background(), web, TechCumulative, 1)
	if err != nil {
		t.Fatal(err)
	}
	cutUnits := 0
	for _, cuts := range p.cum.tree.BlockCuts {
		cutUnits += len(cuts)
	}
	if cutUnits == 0 {
		t.Fatal("want a multi-block plan")
	}
	for k := int64(1); k <= int64(cutUnits)+3; k++ {
		name := fmt.Sprintf("BRICS/k%d", k)
		ctx, cancel := context.WithCancel(context.Background())
		prog := &Progress{}
		var snap *Result
		prog.OnAdvance = func(completed, _ int64) {
			if completed == k {
				snap = prog.Snapshot()
				cancel()
			}
		}
		res, err := p.Estimate(ctx, Options{Techniques: TechCumulative, SampleFraction: 0.2, Seed: 3, Workers: 1, Anytime: true, Progress: prog})
		cancel()
		if k < int64(cutUnits) {
			if snap != nil || !errors.Is(err, ErrCanceled) {
				t.Fatalf("%s: before every cut row, snapshot %v and error %v; want none and ErrCanceled", name, snap != nil, err)
			}
			continue
		}
		if err != nil || snap == nil {
			t.Fatalf("%s: snapshot %v, run error %v; want both partials", name, snap != nil, err)
		}
		assertSamePartial(t, name, snap, res, int(k))
	}

	// Snapshots polled while a two-worker 64-lane run proceeds, on a
	// one-block and a multi-block plan: never ahead of Progress.Completed,
	// and their bounds contain the exact farness.
	pinSweepWidth(t, bfs.MSBFSWidth, nil)
	for _, tc := range []struct {
		g    *graph.Graph
		tech Technique
	}{{g, 0}, {web, TechCumulative}} {
		exact := ExactFarness(tc.g, 2)
		prog := &Progress{}
		prog.OnAdvance = func(int64, int64) { time.Sleep(time.Millisecond) }
		done := make(chan struct{})
		polled := make(chan int)
		go func() {
			taken := 0
			defer func() { polled <- taken }()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := prog.Snapshot()
				if s == nil {
					continue
				}
				taken++
				if c := prog.Completed(); s.Completed <= 0 || int64(s.Completed) > c {
					t.Errorf("%v: snapshot counts %d completed sources, progress %d", tc.tech, s.Completed, c)
					return
				}
				const eps = 1e-9
				for v, x := range exact {
					if s.Low[v] > x+eps || s.High[v] < x-eps {
						t.Errorf("%v: snapshot at %d: vertex %d exact %v outside [%v, %v]", tc.tech, s.Completed, v, x, s.Low[v], s.High[v])
						return
					}
				}
			}
		}()
		opts := Options{Techniques: tc.tech, SampleFraction: 0.4, Seed: 3, Workers: 2, Anytime: true, Progress: prog}
		_, err := EstimateContext(context.Background(), tc.g, opts)
		close(done)
		if taken := <-polled; taken == 0 && !t.Failed() {
			t.Fatalf("%v: the poller never saw a snapshot during the run", tc.tech)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// assertSamePartial requires a snapshot and a canceled run's partial to be
// the same partial result at k completed sources, field for field.
func assertSamePartial(t *testing.T, name string, snap, res *Result, k int) {
	t.Helper()
	if !res.Partial || !snap.Partial || res.Completed != k ||
		snap.Completed != res.Completed || snap.Planned != res.Planned {
		t.Fatalf("%s: snapshot partial=%v %d/%d, run partial=%v %d/%d", name,
			snap.Partial, snap.Completed, snap.Planned, res.Partial, res.Completed, res.Planned)
	}
	for v := range res.Farness {
		if snap.Farness[v] != res.Farness[v] || snap.Exact[v] != res.Exact[v] ||
			snap.Low[v] != res.Low[v] || snap.High[v] != res.High[v] {
			t.Fatalf("%s: vertex %d snapshot (%v %v [%v, %v]) != partial (%v %v [%v, %v])", name, v,
				snap.Farness[v], snap.Exact[v], snap.Low[v], snap.High[v],
				res.Farness[v], res.Exact[v], res.Low[v], res.High[v])
		}
	}
}

// TestAnytimeNothingCompleted: cancellation before any source completes has
// no partial result to offer — the run must fail with ErrCanceled exactly as
// a non-anytime run does.
func TestAnytimeNothingCompleted(t *testing.T) {
	g := gen.Community(300, 2)
	ctx, cancel := context.WithCancel(context.Background())
	restore := fault.Set("core.traverse", func(context.Context) error {
		cancel() // before the fan-out claims its first source
		return nil
	})
	defer restore()
	res, err := EstimateContext(ctx, g, Options{SampleFraction: 0.3, Seed: 1, Anytime: true})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if res != nil {
		t.Fatal("run with zero completed sources must not fabricate a partial result")
	}
}

// randomOpts are the options RandomSampling runs Estimate with: no
// reduction technique and the paper's extrapolation.
func randomOpts(fraction float64, workers int, seed int64) Options {
	return Options{SampleFraction: fraction, Workers: workers, Seed: seed, Estimator: EstimatorPaper}
}

// TestRandomSamplingAnytime covers the random-sampling baseline's anytime
// runs: partial runs carry bounds containing the truth, full runs stay
// bit-identical to the plain run at every sweep width.
func TestRandomSamplingAnytime(t *testing.T) {
	g := gen.Community(400, 8)
	exact := ExactFarness(g, 4)
	n := g.NumNodes()

	// Bit-identity of the uninterrupted run, per sweep width and worker
	// count: the anytime bookkeeping must not change a single accumulated
	// integer.
	for _, width := range []int{1, bfs.MSBFSWidth} {
		pinSweepWidth(t, width, nil)
		for _, workers := range []int{1, 3} {
			want, err := EstimateContext(context.Background(), g, randomOpts(0.3, workers, 5))
			if err != nil {
				t.Fatalf("width %d w%d: %v", width, workers, err)
			}
			opts := randomOpts(0.3, workers, 5)
			opts.Anytime, opts.Progress = true, &Progress{}
			got, err := EstimateContext(context.Background(), g, opts)
			if err != nil {
				t.Fatalf("width %d w%d anytime: %v", width, workers, err)
			}
			for i := range want.Farness {
				if want.Farness[i] != got.Farness[i] {
					t.Fatalf("width %d w%d: farness[%d] %v != %v", width, workers, i, want.Farness[i], got.Farness[i])
				}
			}
		}
	}

	// Deterministic partial run: cancel halfway, workers=1, 1-lane sweeps.
	ctx, cancel := context.WithCancel(context.Background())
	prog := &Progress{}
	prog.OnAdvance = func(completed, planned int64) {
		if completed == planned/2 {
			cancel()
		}
	}
	pinSweepWidth(t, 1, nil)
	opts := randomOpts(0.4, 1, 5)
	opts.Anytime, opts.Progress = true, prog
	res, err := EstimateContext(ctx, g, opts)
	cancel()
	if err != nil {
		t.Fatalf("want partial result, got %v", err)
	}
	if !res.Partial || res.Completed <= 0 || res.Completed >= res.Planned {
		t.Fatalf("bad partial: partial=%v %d/%d", res.Partial, res.Completed, res.Planned)
	}
	const eps = 1e-9
	for v := 0; v < n; v++ {
		if res.Low[v] > exact[v]+eps || res.High[v] < exact[v]-eps {
			t.Fatalf("vertex %d exact %v outside CI [%v, %v]", v, exact[v], res.Low[v], res.High[v])
		}
	}
}

// TestAdaptivePartial: a round interrupted mid-flight surfaces that round's
// partial result (bounds included) instead of failing the whole escalation.
func TestAdaptivePartial(t *testing.T) {
	g := gen.Community(400, 6)
	ctx, cancel := context.WithCancel(context.Background())
	prog := &Progress{}
	var total atomic.Int64
	prog.OnAdvance = func(int64, int64) {
		// Let round 0 finish (small fraction) and cancel partway into a later
		// round: total advances across rounds share one counter.
		if total.Add(1) == 40 {
			cancel()
		}
	}
	pinSweepWidth(t, 1, nil)
	res, err := EstimateAdaptiveContext(ctx, g, AdaptiveOptions{
		Base:            Options{Seed: 17, Workers: 1, Anytime: true, Progress: prog},
		InitialFraction: 0.05,
		TargetError:     1e-9, // force escalation until the cancel lands
	})
	cancel()
	if err != nil {
		t.Fatalf("want degraded adaptive result, got %v", err)
	}
	if !res.Partial {
		t.Fatal("interrupted adaptive run not marked Partial")
	}
	if len(res.Farness) != g.NumNodes() {
		t.Fatalf("result sized %d, want %d", len(res.Farness), g.NumNodes())
	}
}

// TestAdaptivePrevRoundFallback: when a later round dies before completing a
// single source, the escalation falls back to the last full round's result,
// re-marked Partial.
func TestAdaptivePrevRoundFallback(t *testing.T) {
	g := gen.Community(400, 6)
	ctx, cancel := context.WithCancel(context.Background())
	var rounds atomic.Int64
	restore := fault.Set("core.traverse", func(context.Context) error {
		if rounds.Add(1) == 2 { // kill round 1 before its fan-out starts
			cancel()
		}
		return nil
	})
	defer restore()
	res, err := EstimateAdaptiveContext(ctx, g, AdaptiveOptions{
		Base:            Options{Seed: 23, Anytime: true},
		InitialFraction: 0.05,
		TargetError:     1e-9,
	})
	cancel()
	if err != nil {
		t.Fatalf("want previous round's result, got %v", err)
	}
	if !res.Partial {
		t.Fatal("fallback result not marked Partial")
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("expected exactly the first round recorded, got %v", res.Rounds)
	}
}
