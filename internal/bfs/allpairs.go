package bfs

import (
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
)

// ExactFarness computes the exact farness of every node of the connected
// graph g: farness(v) = Σ_w d(v, w). It runs one traversal per node — BFS
// on an unweighted graph, Dial on a weighted one — parallelised across the
// given number of workers with dynamic scheduling. This is the ground-truth
// oracle for every quality metric in the paper.
func ExactFarness(g *graph.Graph, workers int) []float64 {
	n := g.NumNodes()
	farness := make([]float64, n)
	workers = par.Workers(workers)
	rows := make([]func(graph.NodeID, []int32), workers)
	dists := make([][]int32, workers)
	for i := range rows {
		rows[i], dists[i] = distancesOf(g), make([]int32, n)
	}
	par.ForDynamic(n, workers, 16, func(worker, v int) {
		rows[worker](graph.NodeID(v), dists[worker])
		sum, _ := Sum(dists[worker])
		farness[v] = float64(sum)
	})
	return farness
}

// AllPairs computes the full distance matrix of a small graph. Intended for
// tests only: memory is Θ(n²).
func AllPairs(g *graph.Graph) [][]int32 {
	n := g.NumNodes()
	out := make([][]int32, n)
	row := distancesOf(g)
	for v := 0; v < n; v++ {
		out[v] = make([]int32, n)
		row(graph.NodeID(v), out[v])
	}
	return out
}

// distancesOf returns the one-source reference kernel for g with its own
// queue, for one caller at a time: Distances when g is unweighted,
// WDistances when it is weighted.
func distancesOf(g *graph.Graph) func(src graph.NodeID, dist []int32) {
	if g.Weighted() {
		b := queue.NewBucket(g.MaxWeight())
		return func(src graph.NodeID, dist []int32) { WDistances(g, src, dist, b) }
	}
	q := queue.NewFIFO(g.NumNodes())
	return func(src graph.NodeID, dist []int32) { Distances(g, src, dist, q) }
}
