// Package bicc implements the "B" of BRICS: decomposition of a graph into
// its biconnected components (blocks) and construction of the block
// cut-vertex tree (BCT) of the paper's Fig. 2. The decomposition runs on
// the reduced graph — edge weights play no role in biconnectivity, and each
// block edge carries its weight along.
//
// One engine produces the decomposition: an iterative Hopcroft–Tarjan DFS
// with an explicit edge stack (deep road-network-like graphs cannot
// overflow the goroutine stack), fanned out across connected components.
// Its raw blocks go through a canonical assembler, so the Decomposition is
// bit-identical for every worker count: blocks are numbered in ascending
// order of their two smallest nodes (two distinct blocks share at most one
// vertex, so that key is unique), each block's edges are oriented U < V and
// sorted, and cut flags derive from block membership.
package bicc

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/par"
)

// Edge is one edge of a block, in the node ids of the decomposed graph,
// oriented U < V.
type Edge struct {
	U, V graph.NodeID
	W    int32
}

// Decomposition is the set of biconnected components of a graph in
// canonical form: blocks ascend by their (smallest, second-smallest) node
// pair, block edges ascend by (U, V) with U < V, and node lists are sorted.
// The canonical form is what makes the decomposition bit-identical across
// worker counts.
type Decomposition struct {
	// BlockEdges lists the edges of each block. Every graph edge belongs
	// to exactly one block.
	BlockEdges [][]Edge
	// BlockNodes lists the distinct nodes of each block (sorted). A cut
	// vertex appears in every block it belongs to.
	BlockNodes [][]graph.NodeID
	// IsCut marks articulation points.
	IsCut []bool
	// BlocksOf maps every node to the ids of the blocks containing it
	// (length 1 for non-cut nodes of a connected graph with ≥ 1 edge).
	BlocksOf [][]int32
}

// NumBlocks returns the number of biconnected components.
func (d *Decomposition) NumBlocks() int { return len(d.BlockEdges) }

// CutVertices returns the articulation points in increasing order.
func (d *Decomposition) CutVertices() []graph.NodeID {
	var out []graph.NodeID
	for v, c := range d.IsCut {
		if c {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// Algorithm is the engine argument of DecomposeTimed. AlgoAuto is its only
// value and selects nothing: Hopcroft–Tarjan decomposes every graph.
type Algorithm int

// AlgoAuto is the one Algorithm value.
const AlgoAuto Algorithm = 0

// Timings reports the wall-clock of a decomposition. Purely informational
// — it varies run to run while the Decomposition itself is bit-identical —
// which is why it is returned beside the Decomposition instead of stored
// inside it.
type Timings struct {
	// Assemble covers the canonical post-pass.
	Assemble time.Duration `json:"assemble_ns"`
	// Total is the whole decomposition.
	Total time.Duration `json:"total_ns"`
}

// Decompose computes the biconnected components of g. Isolated nodes yield
// no blocks; disconnected inputs are processed per component, so callers
// that guarantee connectivity get the classic single-tree BCT. Decompose is
// DecomposeWorkers at one worker — every worker count yields the same
// Decomposition.
func Decompose(g *graph.Graph) *Decomposition { return DecomposeWorkers(g, 1) }

// DecomposeWorkers decomposes g at the given worker count (<1 means
// GOMAXPROCS). The output is bit-identical for every worker count.
func DecomposeWorkers(g *graph.Graph, workers int) *Decomposition {
	d, _ := DecomposeTimed(g, AlgoAuto, workers)
	return d
}

// DecomposeTimed is DecomposeWorkers returning the wall-clock split
// alongside the decomposition.
func DecomposeTimed(g *graph.Graph, _ Algorithm, workers int) (*Decomposition, Timings) {
	start := time.Now()
	d, t := decompose(g, par.Workers(workers))
	t.Total = time.Since(start)
	return d, t
}

// assemble canonicalises raw per-block edge lists (any edge orientation and
// order, any block order) into the final Decomposition. This is what pins
// the bit-identical contract: the per-component DFS runs only have to agree
// on the *partition* of edges into blocks — a property of the graph — and
// the assembler derives everything else deterministically.
// Blocks are keyed by their two smallest nodes; two distinct blocks share
// at most one vertex, so the key is unique and the order total.
func assemble(n int, blocks [][]Edge, workers int) *Decomposition {
	d := &Decomposition{
		IsCut:    make([]bool, n),
		BlocksOf: make([][]int32, n),
	}
	nb := len(blocks)
	if nb == 0 {
		return d
	}
	nodeLists := make([][]graph.NodeID, nb)
	par.ForDynamic(nb, workers, 16, func(_, b int) {
		blk := blocks[b]
		for i := range blk {
			if blk[i].U > blk[i].V {
				blk[i].U, blk[i].V = blk[i].V, blk[i].U
			}
		}
		slices.SortFunc(blk, func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
		})
		nodes := make([]graph.NodeID, 0, len(blk)+1)
		for _, e := range blk {
			nodes = append(nodes, e.U, e.V)
		}
		slices.Sort(nodes)
		out := nodes[:1]
		for _, v := range nodes[1:] {
			if v != out[len(out)-1] {
				out = append(out, v)
			}
		}
		nodeLists[b] = out
	})
	order := make([]int32, nb)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := nodeLists[i], nodeLists[j]
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	d.BlockEdges = make([][]Edge, nb)
	d.BlockNodes = make([][]graph.NodeID, nb)
	for id, raw := range order {
		d.BlockEdges[id] = blocks[raw]
		d.BlockNodes[id] = nodeLists[raw]
		for _, v := range nodeLists[raw] {
			d.BlocksOf[v] = append(d.BlocksOf[v], int32(id))
		}
	}
	for v := 0; v < n; v++ {
		if len(d.BlocksOf[v]) >= 2 {
			d.IsCut[v] = true
		}
	}
	return d
}

// Stats summarises a decomposition the way Table I reports it: the number
// of blocks, the node count of the largest block, and the average node
// count per block.
type Stats struct {
	Count int
	Max   int
	Avg   float64
}

// Summarize computes block statistics.
func (d *Decomposition) Summarize() Stats {
	s := Stats{Count: d.NumBlocks()}
	total := 0
	for _, nodes := range d.BlockNodes {
		total += len(nodes)
		if len(nodes) > s.Max {
			s.Max = len(nodes)
		}
	}
	if s.Count > 0 {
		s.Avg = float64(total) / float64(s.Count)
	}
	return s
}

// CommonBlock returns a block id containing both u and v, or -1. Cut
// vertices have short block lists in practice; the scan intersects the
// smaller list against a set of the larger one only when both are long.
func (d *Decomposition) CommonBlock(u, v graph.NodeID) int32 {
	a, b := d.BlocksOf[u], d.BlocksOf[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) <= 8 {
		for _, x := range a {
			for _, y := range b {
				if x == y {
					return x
				}
			}
		}
		return -1
	}
	set := make(map[int32]struct{}, len(b))
	for _, y := range b {
		set[y] = struct{}{}
	}
	for _, x := range a {
		if _, ok := set[x]; ok {
			return x
		}
	}
	return -1
}

// Validate checks the defining invariants of the decomposition against the
// source graph: every edge in exactly one block, cut flags consistent with
// block membership counts, and the canonical ordering contract (ascending
// U < V edges inside each block, blocks ascending by smallest node pair).
// Used by tests and the fuzz target.
func (d *Decomposition) Validate(g *graph.Graph) error {
	edgeCount := 0
	for b, blk := range d.BlockEdges {
		edgeCount += len(blk)
		for i, e := range blk {
			if e.U >= e.V {
				return fmt.Errorf("bicc: block %d edge {%d,%d} not oriented U < V", b, e.U, e.V)
			}
			if i > 0 && !(blk[i-1].U < e.U || (blk[i-1].U == e.U && blk[i-1].V < e.V)) {
				return fmt.Errorf("bicc: block %d edges not sorted at %d", b, i)
			}
			if w, ok := g.EdgeWeight(e.U, e.V); !ok || w != e.W {
				return fmt.Errorf("bicc: block edge {%d,%d,%d} not in graph", e.U, e.V, e.W)
			}
		}
		if b > 0 {
			p, c := d.BlockNodes[b-1], d.BlockNodes[b]
			if !(p[0] < c[0] || (p[0] == c[0] && p[1] < c[1])) {
				return fmt.Errorf("bicc: blocks %d and %d out of canonical order", b-1, b)
			}
		}
	}
	if edgeCount != g.NumEdges() {
		return fmt.Errorf("bicc: blocks cover %d edges, graph has %d", edgeCount, g.NumEdges())
	}
	for v := 0; v < g.NumNodes(); v++ {
		inBlocks := len(d.BlocksOf[v])
		if d.IsCut[v] && inBlocks < 2 {
			return fmt.Errorf("bicc: cut vertex %d in %d blocks", v, inBlocks)
		}
		if !d.IsCut[v] && inBlocks > 1 {
			return fmt.Errorf("bicc: non-cut vertex %d in %d blocks", v, inBlocks)
		}
	}
	return nil
}
