package reduce

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/par"
)

func TestRunContextMatchesRun(t *testing.T) {
	g := gen.Community(1500, 3)
	want, err := Run(g, All())
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), g, All())
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats != got.Stats {
		t.Fatalf("stats differ: %+v vs %+v", want.Stats, got.Stats)
	}
	if len(want.Events) != len(got.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(want.Events), len(got.Events))
	}
	for i := range want.ToOld {
		if want.ToOld[i] != got.ToOld[i] {
			t.Fatalf("ToOld[%d]: %d vs %d", i, want.ToOld[i], got.ToOld[i])
		}
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	g := gen.Community(200, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	red, err := RunContext(ctx, g, All())
	if !errors.Is(err, par.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if red != nil {
		t.Fatal("canceled run must not return a Reduction")
	}
}

func TestRunContextCanceledMidStage(t *testing.T) {
	g := gen.Community(200, 1)
	for _, point := range []string{"reduce.chains", "reduce.redundant"} {
		ctx, cancel := context.WithCancel(context.Background())
		restore := fault.Set(point, func(context.Context) error {
			cancel() // cancel while "inside" the preceding stage
			return nil
		})
		red, err := RunContext(ctx, g, All())
		restore()
		if !errors.Is(err, par.ErrCanceled) {
			t.Fatalf("%s: want ErrCanceled, got %v", point, err)
		}
		if red != nil {
			t.Fatalf("%s: canceled run must not return a Reduction", point)
		}
	}
}
