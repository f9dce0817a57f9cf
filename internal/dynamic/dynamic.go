// Package dynamic maintains exact farness values under edge insertions and
// deletions — the "extension of this problem to dynamic setting" the
// paper's conclusion names as future work, following the filtering idea of
// Sariyüce, Kaya, Saule and Çatalyürek ("Incremental algorithms for
// closeness centrality", the paper's reference [24]).
//
// An edit goes through bfs.EditEdge, the same edge rule and affected-set
// filter the server's write path applies: it returns the edited CSR copy and
// the nodes whose farness the edit can change, from one BFS row per
// endpoint. The index then refreshes only those nodes, 64 at a time in
// bit-parallel lane sweeps: 2 BFS plus ⌈|affected|/64⌉ sweeps per update
// instead of ⌈n/64⌉. Building the index is a refresh of every node.
package dynamic

import (
	"fmt"
	"sort"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/par"
)

// Index maintains a connected undirected simple graph together with the
// exact farness of every node.
type Index struct {
	g       *graph.Graph
	farness []int64
	workers int
	// UpdatedLast reports how many nodes the last mutation refreshed
	// (the |X| of the filter); useful for instrumentation and tests.
	UpdatedLast int
}

// New builds an index from a connected simple graph: one lane sweep per 64
// nodes, parallelised.
func New(g *graph.Graph, workers int) (*Index, error) {
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("dynamic: graph must be connected")
	}
	ix := &Index{g: g, farness: make([]int64, g.NumNodes()), workers: par.Workers(workers)}
	all := make([]graph.NodeID, g.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	ix.refresh(all)
	return ix, nil
}

// NumNodes returns the node count.
func (ix *Index) NumNodes() int { return ix.g.NumNodes() }

// Degree returns the current degree of v.
func (ix *Index) Degree(v graph.NodeID) int { return ix.g.Degree(v) }

// HasEdge reports whether {u, v} is present.
func (ix *Index) HasEdge(u, v graph.NodeID) bool { return ix.g.HasEdge(u, v) }

// Farness returns the exact farness of v.
func (ix *Index) Farness(v graph.NodeID) float64 { return float64(ix.farness[v]) }

// refresh recomputes the farness of exactly the given nodes, in ≤64-lane
// sweeps over the current graph.
func (ix *Index) refresh(nodes []graph.NodeID) {
	type ws struct {
		ms  *bfs.MSScratch
		acc bfs.LaneAcc
	}
	scratch := make([]ws, ix.workers)
	chunks := (len(nodes) + bfs.MSBFSWidth - 1) / bfs.MSBFSWidth
	par.ForDynamic(chunks, ix.workers, 1, func(worker, c int) {
		s := &scratch[worker]
		if s.ms == nil {
			s.ms = bfs.NewMSScratch(ix.g.NumNodes())
		}
		batch := nodes[c*bfs.MSBFSWidth : min((c+1)*bfs.MSBFSWidth, len(nodes))]
		var sums [bfs.MSBFSWidth]int64
		bfs.SweepSums(ix.g, batch, s.ms, &s.acc, sums[:])
		for lane, v := range batch {
			ix.farness[v] = sums[lane]
		}
	})
	ix.UpdatedLast = len(nodes)
}

// edit applies one edge edit through bfs.EditEdge and refreshes the
// affected nodes.
func (ix *Index) edit(u, v graph.NodeID, add bool) error {
	next, affected, err := bfs.EditEdge(ix.g, u, v, add)
	if err != nil {
		return err
	}
	ix.g = next
	ix.refresh(affected)
	return nil
}

// AddEdge inserts the undirected edge {u, v} and refreshes the farness of
// every affected node. Inserting an existing edge or a self loop is a
// no-op returning nil.
func (ix *Index) AddEdge(u, v graph.NodeID) error { return ix.edit(u, v, true) }

// RemoveEdge deletes the undirected edge {u, v} and refreshes affected
// farness values. It refuses deletions that would disconnect the graph.
func (ix *Index) RemoveEdge(u, v graph.NodeID) error { return ix.edit(u, v, false) }

// Snapshot returns the current graph. It is immutable: later edits copy it.
func (ix *Index) Snapshot() *graph.Graph { return ix.g }

// TopK returns the k most central nodes under the current graph; k is
// clamped to [0, n].
func (ix *Index) TopK(k int) []graph.NodeID {
	n := ix.g.NumNodes()
	k = min(max(k, 0), n)
	ord := make([]graph.NodeID, n)
	for i := range ord {
		ord[i] = graph.NodeID(i)
	}
	sort.Slice(ord, func(i, j int) bool { return ix.farness[ord[i]] < ix.farness[ord[j]] })
	return ord[:k]
}
