package topk

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sketch"
)

// The sketch candidate filter must never change the returned top-k set —
// only save verification traversals. Checked across all four generator
// families and several k values against the unfiltered run and the exact
// oracle.
func TestSketchFilterIdenticalTopK(t *testing.T) {
	cases := map[string]*graph.Graph{
		"web":       graph.Connect(gen.Web(1200, 71)),
		"social":    graph.Connect(gen.Social(1000, 72)),
		"community": graph.Connect(gen.Community(1000, 73)),
		"road":      graph.Connect(gen.Road(900, 74)),
	}
	anyFiltered := false
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			sk := sketch.Build(g, sketch.Options{Clusters: 8, Workers: 4})
			for _, k := range []int{1, 5, 10} {
				opts := Options{Estimate: core.Options{Techniques: core.TechCumulative, SampleFraction: 0.3, Seed: 5, Workers: 4}}
				plain, err := Closeness(g, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Sketch = sk
				filtered, err := Closeness(g, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(plain.Nodes) != len(filtered.Nodes) {
					t.Fatalf("k=%d: %d nodes with filter, %d without", k, len(filtered.Nodes), len(plain.Nodes))
				}
				for i := range plain.Nodes {
					if plain.Nodes[i] != filtered.Nodes[i] || plain.Farness[i] != filtered.Farness[i] {
						t.Fatalf("k=%d: entry %d diverged: (%d, %v) with filter vs (%d, %v) without",
							k, i, filtered.Nodes[i], filtered.Farness[i], plain.Nodes[i], plain.Farness[i])
					}
				}
				if filtered.Verified+filtered.Filtered < plain.Verified && filtered.Filtered == 0 {
					t.Fatalf("k=%d: verified shrank (%d -> %d) without any filtering recorded",
						k, plain.Verified, filtered.Verified)
				}
				if filtered.Filtered > 0 {
					anyFiltered = true
				}
			}
		})
	}
	if !anyFiltered {
		t.Log("filter never fired on these inputs; bounds too weak to save traversals here")
	}
}

// TestClosenessLaneSumsExact: every farness the search returns — read off a
// prefetch sweep's lane sums, computed by a single BFS, or taken from an
// exact estimate — equals the node's exact farness, on the four families
// (web at 6000 nodes, the size the end-to-end benchmark serves) over 50
// seeds with the sketch filter on.
func TestClosenessLaneSumsExact(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"web", graph.Connect(gen.Web(6000, 1))},
		{"social", graph.Connect(gen.Social(1500, 1))},
		{"community", graph.Connect(gen.Community(1500, 1))},
		{"road", graph.Connect(gen.Road(1500, 1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exact := core.ExactFarness(tc.g, 0)
			sk := sketch.Build(tc.g, sketch.Options{Workers: 2})
			for seed := int64(1); seed <= 50; seed++ {
				got, err := Closeness(tc.g, 10, Options{Sketch: sk, Estimate: core.Options{
					Techniques: core.TechCumulative, SampleFraction: 0.2, Seed: seed, Workers: 2}})
				if err != nil {
					t.Fatal(err)
				}
				if got.Verified == 0 {
					t.Fatalf("seed %d: nothing verified", seed)
				}
				for i, v := range got.Nodes {
					if got.Farness[i] != exact[v] {
						t.Fatalf("seed %d: node %d farness %v, exact %v", seed, v, got.Farness[i], exact[v])
					}
				}
			}
		})
	}
}
