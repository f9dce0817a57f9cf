package topk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestExactOracle(t *testing.T) {
	// Path 0-1-2-3-4: farness [10,7,6,7,10]; top-1 is node 2, top-3 is
	// {2,1,3} (ties broken by order).
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		_ = b.AddEdge(int32(i), int32(i+1))
	}
	g := b.Build()
	res := Exact(g, 3, 1)
	if res.Nodes[0] != 2 || res.Farness[0] != 6 {
		t.Fatalf("top-1 = %d/%v, want 2/6", res.Nodes[0], res.Farness[0])
	}
	if len(res.Nodes) != 3 {
		t.Fatalf("len = %d", len(res.Nodes))
	}
	set := map[graph.NodeID]bool{res.Nodes[0]: true, res.Nodes[1]: true, res.Nodes[2]: true}
	if !set[1] || !set[2] || !set[3] {
		t.Fatalf("top-3 = %v, want {1,2,3}", res.Nodes)
	}
}

func TestClosenessMatchesExactValues(t *testing.T) {
	g := gen.Social(2500, 4)
	k := 10
	got, err := Closeness(g, k, Options{
		Estimate: core.Options{
			Techniques:     core.TechCumulative,
			SampleFraction: 0.3,
			Seed:           1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Exact(g, k, 0)
	if !got.Certain {
		t.Error("search should conclude on this graph")
	}
	// The k-th farness values must agree even if tied node identities
	// differ; with a sane margin the whole prefix agrees.
	for i := 0; i < k; i++ {
		if got.Farness[i] != want.Farness[i] {
			t.Errorf("rank %d: farness %v, want %v (node %d vs %d)",
				i, got.Farness[i], want.Farness[i], got.Nodes[i], want.Nodes[i])
		}
	}
	if got.Verified >= g.NumNodes()/2 {
		t.Errorf("verified %d of %d nodes — estimate ordering is not helping", got.Verified, g.NumNodes())
	}
	// All returned farness values must be truly exact.
	far := core.ExactFarness(g, 0)
	for i, v := range got.Nodes {
		if far[v] != got.Farness[i] {
			t.Errorf("node %d: reported %v, true %v", v, got.Farness[i], far[v])
		}
	}
}

func TestClosenessBudgetCap(t *testing.T) {
	g := gen.Road(1500, 2)
	res, err := Closeness(g, 5, Options{
		Estimate:  core.Options{Techniques: core.TechChains, SampleFraction: 0.1, Seed: 1},
		MaxVerify: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 5 {
		t.Fatalf("want 5 results even under budget, got %d", len(res.Nodes))
	}
	if res.Verified > 1 {
		t.Fatalf("verified %d > cap", res.Verified)
	}
}

func TestClosenessArgumentChecks(t *testing.T) {
	g := gen.Road(200, 1)
	if _, err := Closeness(g, 0, Options{}); err == nil {
		t.Error("k=0 should error")
	}
	res, err := Closeness(g, 10_000, Options{
		Estimate: core.Options{SampleFraction: 0.5, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != g.NumNodes() {
		t.Errorf("k>n should clamp to n: %d vs %d", len(res.Nodes), g.NumNodes())
	}
	short := &core.Result{Farness: make([]float64, 3), Exact: make([]bool, 3)}
	if _, err := Closeness(g, 5, Options{Candidates: short}); err == nil {
		t.Error("a candidate estimate that does not cover the graph should error")
	}
}

// Property: with a generous margin, the k-th farness value returned always
// matches the brute-force oracle on random mixed graphs.
func TestClosenessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 20
		g := gen.ErdosRenyi(n, 3*n, seed)
		k := rng.Intn(5) + 1
		got, err := Closeness(g, k, Options{
			Estimate: core.Options{
				Techniques:     core.TechCumulative,
				SampleFraction: 0.3,
				Seed:           seed,
			},
			Margin: 0.5, // generous: guarantees exactness at extra cost
		})
		if err != nil {
			return false
		}
		want := Exact(g, k, 1)
		for i := range want.Farness {
			if got.Farness[i] != want.Farness[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
