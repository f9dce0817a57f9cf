package brics_test

import (
	"bytes"
	"math"
	"testing"

	brics "repro"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	g := brics.GenerateSocial(800, 3)
	if !brics.IsConnected(g) {
		t.Fatal("generator must return connected graphs")
	}
	res, err := brics.Estimate(g, brics.Options{
		Techniques:     brics.TechCumulative,
		SampleFraction: 0.5,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact := brics.ExactFarness(g, 0)
	var q float64
	for i := range exact {
		q += res.Farness[i] / exact[i]
	}
	q /= float64(len(exact))
	if q < 0.9 || q > 1.1 {
		t.Fatalf("quality = %v", q)
	}
	for i := range exact {
		if res.Exact[i] && math.Abs(res.Farness[i]-exact[i]) > 1e-9 {
			t.Fatalf("node %d flagged exact but %v != %v", i, res.Farness[i], exact[i])
		}
	}
}

func TestPublicBuilderAndConnect(t *testing.T) {
	b := brics.NewBuilder(4)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(2, 3)
	g := b.Build()
	if brics.IsConnected(g) {
		t.Fatal("should be disconnected")
	}
	g = brics.Connect(g)
	if !brics.IsConnected(g) {
		t.Fatal("Connect failed")
	}
	gb := brics.NewGrowingBuilder()
	_ = gb.AddEdge(0, 9)
	if gb.Build().NumNodes() != 10 {
		t.Fatal("growing builder broken")
	}
}

func TestPublicIO(t *testing.T) {
	g := brics.FromEdges(4, [][2]brics.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	var buf bytes.Buffer
	if err := brics.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := brics.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 4 {
		t.Fatalf("round trip edges = %d", g2.NumEdges())
	}
}

func TestCloseness(t *testing.T) {
	c := brics.Closeness([]float64{2, 0, 4})
	if c[0] != 0.5 || c[1] != 0 || c[2] != 0.25 {
		t.Fatalf("Closeness = %v", c)
	}
}

func TestRandomSamplingPublic(t *testing.T) {
	g := brics.GenerateRoad(600, 2)
	res, err := brics.RandomSampling(g, 0.5, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Farness) != g.NumNodes() {
		t.Fatal("result size mismatch")
	}
	if res.Stats.Samples < g.NumNodes()/3 {
		t.Fatalf("samples = %d", res.Stats.Samples)
	}
}

func TestGeneratorsPublic(t *testing.T) {
	for _, g := range []*brics.Graph{
		brics.GenerateWeb(500, 1),
		brics.GenerateSocial(500, 1),
		brics.GenerateCommunity(500, 1),
		brics.GenerateRoad(500, 1),
	} {
		if !brics.IsConnected(g) {
			t.Fatal("generator produced disconnected graph")
		}
	}
}

func TestDistancePublic(t *testing.T) {
	// Path 0-1-2-3: bidirectional BFS must return the exact hop count.
	g := brics.FromEdges(4, [][2]brics.NodeID{{0, 1}, {1, 2}, {2, 3}})
	if d := brics.Distance(g, 0, 3); d != 3 {
		t.Fatalf("Distance(0,3) = %d, want 3", d)
	}
	if d := brics.Distance(g, 2, 2); d != 0 {
		t.Fatalf("Distance(2,2) = %d, want 0", d)
	}
	// Disconnected pair: -1, matching the documented contract.
	g2 := brics.FromEdges(3, [][2]brics.NodeID{{0, 1}})
	if d := brics.Distance(g2, 0, 2); d != -1 {
		t.Fatalf("Distance across components = %d, want -1", d)
	}
}

func TestTimed(t *testing.T) {
	d := brics.Timed(func() {})
	if d < 0 {
		t.Fatal("negative duration")
	}
}
