package topk

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestClosenessContextMatchesCloseness(t *testing.T) {
	g := gen.Community(900, 6)
	opts := Options{Estimate: core.Options{Techniques: core.TechCumulative, SampleFraction: 0.2, Seed: 3}}
	want, err := Closeness(g, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ClosenessContext(context.Background(), g, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A caller's own estimate with the same options, passed as the
	// candidates, ranks exactly as the search's own run.
	est, err := core.Estimate(g, opts.Estimate)
	if err != nil {
		t.Fatal(err)
	}
	withOpts := opts
	withOpts.Candidates = est
	with, err := ClosenessContext(context.Background(), g, 10, withOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*Result{got, with} {
		if len(want.Nodes) != len(got.Nodes) || want.Verified != got.Verified {
			t.Fatalf("lengths or verifications differ: %d/%d vs %d/%d", len(want.Nodes), want.Verified, len(got.Nodes), got.Verified)
		}
		for i := range want.Nodes {
			if want.Nodes[i] != got.Nodes[i] || want.Farness[i] != got.Farness[i] {
				t.Fatalf("entry %d differs: (%d, %v) vs (%d, %v)", i, want.Nodes[i], want.Farness[i], got.Nodes[i], got.Farness[i])
			}
		}
	}
}

func TestClosenessContextPreCanceled(t *testing.T) {
	g := gen.Community(400, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ClosenessContext(ctx, g, 5, Options{Estimate: core.Options{Techniques: core.TechCumulative}})
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if res != nil {
		t.Fatal("canceled run must not return a Result")
	}
}
