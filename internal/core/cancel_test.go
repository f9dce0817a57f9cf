package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

func estCancelGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"community": gen.Community(1200, 11),
		"road":      gen.Road(900, 5),
	}
}

func TestEstimateContextMatchesEstimate(t *testing.T) {
	for name, g := range estCancelGraphs(t) {
		for _, tech := range []Technique{TechCumulative, TechICR, 0} {
			opts := Options{Techniques: tech, SampleFraction: 0.25, Seed: 42, Workers: 3}
			want, err := Estimate(g, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tech, err)
			}
			got, err := EstimateContext(context.Background(), g, opts)
			if err != nil {
				t.Fatalf("%s/%s ctx: %v", name, tech, err)
			}
			for i := range want.Farness {
				if want.Farness[i] != got.Farness[i] {
					t.Fatalf("%s/%s: farness[%d] %v vs %v", name, tech, i, want.Farness[i], got.Farness[i])
				}
			}
		}
	}
}

func TestEstimateContextPreCanceled(t *testing.T) {
	g := gen.Community(300, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := EstimateContext(ctx, g, Options{Techniques: TechCumulative, Seed: 1})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled wrapped, got %v", err)
	}
	if res != nil {
		t.Fatal("canceled run must not return a Result")
	}
}

func TestEstimateContextDeadline(t *testing.T) {
	g := gen.Community(300, 2)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := EstimateContext(ctx, g, Options{Techniques: TechCumulative, Seed: 1})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded wrapped, got %v", err)
	}
}

// TestEstimateContextAbandonsSlowStage is the acceptance-criteria latency
// test: a fault-injected 5s stage must be abandoned within 100ms of the
// context being canceled. The hook signals when the run has entered the slow
// stage, the test cancels, and the clock runs from the cancellation to
// EstimateContext's return.
func TestEstimateContextAbandonsSlowStage(t *testing.T) {
	g := gen.Community(1200, 11)
	for _, point := range []string{"core.traverse", "reduce.chains"} {
		entered := make(chan struct{})
		restore := fault.Set(point, func(ctx context.Context) error {
			close(entered)
			return fault.Sleep(ctx, 5*time.Second)
		})
		ctx, cancel := context.WithCancel(context.Background())
		type out struct {
			res *Result
			err error
			at  time.Time
		}
		doneCh := make(chan out, 1)
		go func() {
			res, err := EstimateContext(ctx, g, Options{Techniques: TechCumulative, SampleFraction: 0.2, Seed: 7})
			doneCh <- out{res, err, time.Now()}
		}()
		<-entered
		canceledAt := time.Now()
		cancel()
		o := <-doneCh
		restore()
		if !errors.Is(o.err, ErrCanceled) {
			t.Fatalf("%s: want ErrCanceled, got %v", point, o.err)
		}
		if o.res != nil {
			t.Fatalf("%s: canceled run must not return a Result", point)
		}
		if latency := o.at.Sub(canceledAt); latency > 100*time.Millisecond {
			t.Fatalf("%s: run abandoned %v after cancellation (want ≤100ms)", point, latency)
		}
	}
}

func TestEstimateContextCanceledDuringTraversal(t *testing.T) {
	// Cancel while traversals are in flight (not just at a checkpoint): the
	// fan-out must stop claiming sources and return ErrCanceled.
	g := gen.Community(1500, 3)
	for _, width := range []int{1, bfs.MSBFSWidth} {
		pinSweepWidth(t, width, nil)
		ctx, cancel := context.WithCancel(context.Background())
		restore := fault.Set("core.traverse", func(context.Context) error {
			// Fires right before the fan-out; cancel now so the workers see
			// a done context while claiming tasks.
			cancel()
			return nil
		})
		_, err := EstimateContext(ctx, g, Options{Techniques: TechCumulative, SampleFraction: 0.3, Seed: 9})
		restore()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("width %d: want ErrCanceled, got %v", width, err)
		}
	}
}

func TestRandomSamplingContextCanceled(t *testing.T) {
	g := gen.Community(800, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := EstimateContext(ctx, g, randomOpts(0.3, 2, 1))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if res != nil {
		t.Fatal("canceled run must not return a Result")
	}
}

func TestEstimateAdaptiveContextCanceled(t *testing.T) {
	g := gen.Community(600, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EstimateAdaptiveContext(ctx, g, AdaptiveOptions{Base: Options{Techniques: TechCumulative}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestWorkerPanicReachesCaller: a panic on a traversal worker goroutine is
// re-raised by EstimateContext on the calling goroutine, where a server's
// recover can answer 500, instead of ending the process. It covers the
// in-pool fault point at the start of every sweep ("bfs.batch", hence the
// subtest's name), inside the cumulative task fan-out at 2 workers.
func TestWorkerPanicReachesCaller(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		restore := fault.Set("bfs.batch", fault.Panic("worker crashed"))
		defer restore()
		g := gen.Road(900, 5) // keeps several biconnected blocks after reduction
		got := func() (v any) {
			defer func() { v = recover() }()
			_, _ = EstimateContext(context.Background(), g, Options{Techniques: TechCumulative, SampleFraction: 0.2, Seed: 1, Workers: 2})
			return nil
		}()
		if got != "fault: worker crashed" {
			t.Fatalf("recovered %v, want the worker's panic", got)
		}
	})
}

// TestTraverseKernelErrorAbortsRun: an error returned inside a traversal
// task (the "bfs.batch" fault hook's, here) aborts the run with that error
// instead of delivering the task's stale scratch rows as exact farness.
func TestTraverseKernelErrorAbortsRun(t *testing.T) {
	boom := errors.New("batched kernel failed")
	restore := fault.Set("bfs.batch", func(context.Context) error { return boom })
	defer restore()
	res, err := EstimateContext(context.Background(), gen.Road(900, 5), Options{Techniques: TechICR, SampleFraction: 0.2, Seed: 1, Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("want the kernel's error, got %v", err)
	}
	if res != nil {
		t.Fatal("a failed run must not return a Result")
	}
}
