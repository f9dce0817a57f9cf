package bfs

import (
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
)

// ExactFarness computes the exact farness of every node of the (connected,
// unweighted) graph g: farness(v) = Σ_w d(v, w). It runs one BFS per node,
// parallelised across the given number of workers with dynamic scheduling.
// This is the ground-truth oracle for every quality metric in the paper.
func ExactFarness(g *graph.Graph, workers int) []float64 {
	n := g.NumNodes()
	farness := make([]float64, n)
	workers = par.Workers(workers)
	type ws struct {
		dist []int32
		q    *queue.FIFO
	}
	scratch := make([]ws, workers)
	for i := range scratch {
		scratch[i] = ws{dist: make([]int32, n), q: queue.NewFIFO(n)}
	}
	par.ForDynamic(n, workers, 16, func(worker, v int) {
		s := &scratch[worker]
		Distances(g, graph.NodeID(v), s.dist, s.q)
		sum, _ := Sum(s.dist)
		farness[v] = float64(sum)
	})
	return farness
}

// ExactFarnessW is ExactFarness over a weighted graph; it is used by tests
// to validate reductions on the contracted graph.
func ExactFarnessW(g *graph.WGraph, workers int) []float64 {
	n := g.NumNodes()
	farness := make([]float64, n)
	workers = par.Workers(workers)
	unweighted := g.Unweighted()
	maxW := g.MaxWeight()
	scratch := make([]*Scratch, workers)
	for i := range scratch {
		scratch[i] = NewScratch(n, maxW)
	}
	par.ForDynamic(n, workers, 16, func(worker, v int) {
		s := scratch[worker]
		WDistancesAuto(g, unweighted, graph.NodeID(v), s)
		sum, _ := Sum(s.Dist)
		farness[v] = float64(sum)
	})
	return farness
}

// AllPairs computes the full distance matrix of a small graph. Intended for
// tests only: memory is Θ(n²).
func AllPairs(g *graph.Graph) [][]int32 {
	n := g.NumNodes()
	out := make([][]int32, n)
	q := queue.NewFIFO(n)
	for v := 0; v < n; v++ {
		out[v] = make([]int32, n)
		Distances(g, graph.NodeID(v), out[v], q)
	}
	return out
}

// AllPairsW is AllPairs on a weighted graph; tests only.
func AllPairsW(g *graph.WGraph) [][]int32 {
	n := g.NumNodes()
	out := make([][]int32, n)
	b := queue.NewBucket(g.MaxWeight())
	for v := 0; v < n; v++ {
		out[v] = make([]int32, n)
		WDistances(g, graph.NodeID(v), out[v], b)
	}
	return out
}
