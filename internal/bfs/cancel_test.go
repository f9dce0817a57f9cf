package bfs

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func cancelTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.Community(4000, 7)
}

func cancelTestWeighted(t *testing.T) *graph.Graph {
	t.Helper()
	g := cancelTestGraph(t)
	b := graph.NewBuilder(g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < v {
				w := int32(1 + (u+int(v))%3)
				b.AddWeightedEdge(graph.NodeID(u), v, w)
			}
		}
	}
	return b.Build()
}

// TestRunBatchesCtxMatchesPlain: batched sweeps polling a live done channel
// produce the same rows as sweeps without one.
func TestRunBatchesCtxMatchesPlain(t *testing.T) {
	g := cancelTestGraph(t)
	n := g.NumNodes()
	sources := make([]graph.NodeID, 0, 100)
	for i := 0; i < 100; i++ {
		sources = append(sources, graph.NodeID((i*37)%n))
	}
	plain := runBatches(g, sources, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx := runBatches(g, sources, ctx.Done())
	for i := range plain {
		p, _ := Sum(plain[i])
		c, _ := Sum(withCtx[i])
		if p != c {
			t.Fatalf("farness[%d]: plain %d vs ctx %d", i, p, c)
		}
	}
}

// TestRunBatchesCtxCanceledMidRun: once the scratch's done channel fires, the
// next batched sweep stops at a frontier-level boundary and leaves its rows
// partial, on the unit-weight and the masked-Dial kernel alike.
func TestRunBatchesCtxCanceledMidRun(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"unit":     cancelTestGraph(t),
		"weighted": cancelTestWeighted(t),
	} {
		n := g.NumNodes()
		batch := make([]graph.NodeID, MSBFSWidth)
		for i := range batch {
			batch[i] = graph.NodeID(i * 7 % n)
		}
		rows := make([][]int32, len(batch))
		for i := range rows {
			rows[i] = make([]int32, n)
		}
		ctx, cancel := context.WithCancel(context.Background())
		s := NewMSScratch(n)
		s.SetDone(ctx.Done())
		multiSourceWRows(g, batch, s, rows) // live: whole rows
		if _, reached := Sum(rows[0]); reached != n {
			t.Fatalf("%s: live sweep reached %d of %d nodes", name, reached, n)
		}
		cancel()
		multiSourceWRows(g, batch, s, rows)
		if _, reached := Sum(rows[0]); reached == n {
			t.Fatalf("%s: cancellation did not stop the sweep", name)
		}
	}
}
