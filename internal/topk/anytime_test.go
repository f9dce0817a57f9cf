package topk

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
)

// TestClosenessAnytimeVerificationCanceled: cancelling mid-verification on an
// anytime run degrades to the best-so-far ranking (k entries, Partial,
// not Certain) instead of failing.
func TestClosenessAnytimeVerificationCanceled(t *testing.T) {
	g := gen.Community(700, 9)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var verifies atomic.Int64
	restore := fault.Set("topk.verify", func(context.Context) error {
		if verifies.Add(1) == 2 { // let one exact traversal land, then cancel
			cancel()
		}
		return nil
	})
	defer restore()
	res, err := ClosenessContext(ctx, g, 10, Options{
		Estimate: core.Options{
			SampleFraction: 0.2, Seed: 31, Workers: 1, Anytime: true,
		},
	})
	if err != nil {
		t.Fatalf("want degraded ranking, got %v", err)
	}
	if !res.Partial || res.Certain {
		t.Fatalf("degraded ranking flags: partial=%v certain=%v", res.Partial, res.Certain)
	}
	if len(res.Nodes) != 10 || len(res.Farness) != 10 {
		t.Fatalf("degraded ranking returned %d nodes", len(res.Nodes))
	}
	for i := 1; i < len(res.Farness); i++ {
		if res.Farness[i] < res.Farness[i-1] {
			t.Fatalf("ranking not sorted at %d: %v", i, res.Farness)
		}
	}
}

// TestClosenessAnytimePartialEstimate: a ranking built on a partial estimate
// is itself Partial even when verification runs to completion.
func TestClosenessAnytimePartialEstimate(t *testing.T) {
	g := gen.Community(500, 12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := &core.Progress{}
	prog.OnAdvance = func(completed, planned int64) {
		if completed == planned/2 {
			cancel()
		}
	}
	res, err := ClosenessContext(ctx, g, 5, Options{
		Estimate: core.Options{
			SampleFraction: 0.4, Seed: 7, Workers: 1, Anytime: true, Progress: prog,
		},
		MaxVerify: 0,
	})
	if err != nil {
		t.Fatalf("want partial-estimate ranking, got %v", err)
	}
	if !res.Partial || res.Certain {
		t.Fatalf("flags after partial estimate: partial=%v certain=%v", res.Partial, res.Certain)
	}
	if len(res.Nodes) != 5 {
		t.Fatalf("got %d nodes, want 5", len(res.Nodes))
	}
}

// TestClosenessAnytimeFullRunUnchanged: with Anytime set but no
// interruption, the ranking matches the plain run exactly.
func TestClosenessAnytimeFullRunUnchanged(t *testing.T) {
	g := gen.Community(500, 12)
	opts := Options{Estimate: core.Options{SampleFraction: 0.3, Seed: 3, Workers: 2}}
	want, err := Closeness(g, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Estimate.Anytime = true
	got, err := ClosenessContext(context.Background(), g, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatal("uninterrupted anytime ranking marked Partial")
	}
	for i := range want.Nodes {
		if want.Nodes[i] != got.Nodes[i] || want.Farness[i] != got.Farness[i] {
			t.Fatalf("ranking diverged at %d: (%d, %v) vs (%d, %v)",
				i, want.Nodes[i], want.Farness[i], got.Nodes[i], got.Farness[i])
		}
	}
}
