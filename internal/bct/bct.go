// Package bct builds the rooted block cut-vertex tree over a biconnected
// decomposition and runs the bottom-up/top-down contribution aggregation of
// the paper's Algorithm 6 and Fig. 3.
//
// Terminology follows the paper: every block/cut pair carries a *weight*
// (the number of graph nodes — including nodes removed by the reductions —
// that live strictly beyond that cut, as seen from the block) and a *dCarry*
// (the sum of distances from the cut vertex to all of those nodes). Given
// those two aggregates, the farness of any node v of block B is
//
//	farness(v) = inBlock(v) + Σ_{cuts c of B} ( W(B,c)·d(v,c) + D(B,c) )
//
// with every term beyond the in-block one exact, because cut vertices are
// always sampled and so in-block distances from cuts are exact. The weight
// W depends on block populations only (Tree.Weights), so a caller can add
// the W·d(v,c) term while a cut's traversal row is in hand; only D needs
// the distance sums (Tree.Aggregate).
//
// The package is deliberately independent of how per-block populations and
// cut-to-node distance sums were computed: core feeds it Inputs assembled
// from the sampled traversals and reads back the per-(block,cut) outside
// contributions.
package bct

import (
	"fmt"

	"repro/internal/bicc"
	"repro/internal/graph"
)

// Tree is a rooted block cut-vertex tree.
type Tree struct {
	D *bicc.Decomposition

	// Cuts lists the articulation points; CutIndex inverts it (-1 for
	// non-cut nodes).
	Cuts     []graph.NodeID
	CutIndex []int32

	// BlockCuts lists, per block, the global cut ids of its cut vertices
	// (in the order of the block's sorted node list).
	BlockCuts [][]int32

	// Root is the root block id.
	Root int32
	// ParentCut is the cut id between a block and its parent block (-1
	// for the root block).
	ParentCut []int32
	// ParentBlock is the parent block of each cut in the rooted tree.
	ParentBlock []int32
	// ChildBlocks lists, per cut, its child blocks.
	ChildBlocks [][]int32
	// Order lists blocks in BFS order from the root; bottom-up passes
	// iterate it in reverse.
	Order []int32
	// HomeBlock assigns each cut vertex the single block in which its own
	// population is counted (the block through which it is first
	// discovered from the root; any consistent choice works).
	HomeBlock []int32
}

// NewTree roots the block cut-vertex tree of d at the given block. The
// decomposition must come from a connected graph (a single tree); Validate
// reports violations.
func NewTree(d *bicc.Decomposition, root int32) *Tree {
	n := len(d.BlocksOf)
	t := &Tree{
		D:        d,
		CutIndex: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		if d.IsCut[v] {
			t.CutIndex[v] = int32(len(t.Cuts))
			t.Cuts = append(t.Cuts, graph.NodeID(v))
		} else {
			t.CutIndex[v] = -1
		}
	}
	nb := d.NumBlocks()
	nc := len(t.Cuts)
	t.BlockCuts = make([][]int32, nb)
	for b := 0; b < nb; b++ {
		for _, v := range d.BlockNodes[b] {
			if ci := t.CutIndex[v]; ci >= 0 {
				t.BlockCuts[b] = append(t.BlockCuts[b], ci)
			}
		}
	}
	t.Root = root
	t.ParentCut = make([]int32, nb)
	t.ParentBlock = make([]int32, nc)
	t.ChildBlocks = make([][]int32, nc)
	t.HomeBlock = make([]int32, nc)
	for i := range t.ParentCut {
		t.ParentCut[i] = -1
	}
	for i := range t.ParentBlock {
		t.ParentBlock[i] = -1
		t.HomeBlock[i] = -1
	}
	seenBlock := make([]bool, nb)
	seenCut := make([]bool, nc)
	queue := []int32{root}
	seenBlock[root] = true
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		t.Order = append(t.Order, b)
		for _, ci := range t.BlockCuts[b] {
			if seenCut[ci] {
				continue
			}
			seenCut[ci] = true
			t.ParentBlock[ci] = b
			t.HomeBlock[ci] = b
			for _, nb2 := range t.D.BlocksOf[t.Cuts[ci]] {
				if !seenBlock[nb2] {
					seenBlock[nb2] = true
					t.ParentCut[nb2] = ci
					t.ChildBlocks[ci] = append(t.ChildBlocks[ci], nb2)
					queue = append(queue, nb2)
				}
			}
		}
	}
	return t
}

// CutPos returns the position of global cut id ci within block b's
// BlockCuts list, or -1.
func (t *Tree) CutPos(b, ci int32) int {
	for i, c := range t.BlockCuts[b] {
		if c == ci {
			return i
		}
	}
	return -1
}

// Validate checks that the rooted structure spans every block exactly once.
func (t *Tree) Validate() error {
	if len(t.Order) != t.D.NumBlocks() {
		return fmt.Errorf("bct: BFS order covers %d of %d blocks (disconnected input?)", len(t.Order), t.D.NumBlocks())
	}
	for ci := range t.Cuts {
		if t.ParentBlock[ci] < 0 {
			return fmt.Errorf("bct: cut %d unreached", ci)
		}
	}
	return nil
}

// Inputs carries the per-block aggregates the DP consumes. All distance
// sums are over the nodes *assigned* to the block: kept non-cut nodes,
// removed (reduction) nodes attached to it, and cut vertices whose
// HomeBlock it is.
type Inputs struct {
	// Pop[b] is the assigned population of block b. Σ Pop must equal the
	// total node count of the original graph.
	Pop []int64
	// SumDist[b][i] is Σ_{w assigned to b} d(cut, w) for the i-th cut of
	// BlockCuts[b]; distances are in-block (exact).
	SumDist [][]int64
	// CutDist[b][i][j] is the in-block distance between the i-th and j-th
	// cuts of block b.
	CutDist [][][]int32
}

// Contrib is the aggregation output: for block b and its i-th cut,
// Wout[b][i] nodes live beyond that cut, at total distance Dout[b][i] from
// the cut vertex.
type Contrib struct {
	Wout, Dout [][]int64
}

// Weights returns Wout, the population half of the aggregation: for block
// b and its i-th cut, the number of nodes that live beyond that cut. It
// reads populations only, so it is known before any distance is.
func (t *Tree) Weights(pop []int64) [][]int64 {
	nb := t.D.NumBlocks()
	wsub := make([]int64, nb)           // population of the subtree below block b (incl. b)
	wdown := make([]int64, len(t.Cuts)) // population below cut c
	var total int64
	for _, p := range pop {
		total += p
	}
	// Bottom-up: reverse BFS order guarantees children before parents.
	for i := len(t.Order) - 1; i >= 0; i-- {
		b := t.Order[i]
		w := pop[b]
		for _, ci := range t.BlockCuts[b] {
			if ci != t.ParentCut[b] && t.ParentBlock[ci] == b {
				w += wdown[ci]
			}
		}
		wsub[b] = w
		if pc := t.ParentCut[b]; pc >= 0 {
			wdown[pc] += w
		}
	}
	wout := make([][]int64, nb)
	for _, b := range t.Order {
		wout[b] = make([]int64, len(t.BlockCuts[b]))
		for li, ci := range t.BlockCuts[b] {
			switch {
			case ci == t.ParentCut[b]:
				// Everything outside this block's subtree.
				wout[b][li] = total - wsub[b]
			case t.ParentBlock[ci] == b:
				// A child cut: its subtree.
				wout[b][li] = wdown[ci]
			default:
				// A cut of b whose parent block is another block: can
				// only happen for disconnected inputs; Validate rejects
				// them.
				panic("bct: cut parented outside block")
			}
		}
	}
	return wout
}

// Aggregate runs the bottom-up and top-down passes: Weights for Wout, then
// the same two passes over the distance sums for Dout.
func (t *Tree) Aggregate(in *Inputs) *Contrib {
	out := &Contrib{Wout: t.Weights(in.Pop), Dout: make([][]int64, t.D.NumBlocks())}
	dsub := make([]int64, t.D.NumBlocks()) // Σ distances from b's parent cut to its subtree
	ddown := make([]int64, len(t.Cuts))    // Σ distances from a cut to the population below it

	// Bottom-up: reverse BFS order guarantees children before parents. A
	// child cut's Wout is the population below it.
	for i := len(t.Order) - 1; i >= 0; i-- {
		b := t.Order[i]
		pc := t.ParentCut[b]
		if pc < 0 {
			continue
		}
		pi := t.CutPos(b, pc)
		d := in.SumDist[b][pi]
		for li, ci := range t.BlockCuts[b] {
			if ci != pc && t.ParentBlock[ci] == b {
				d += out.Wout[b][li]*int64(in.CutDist[b][pi][li]) + ddown[ci]
			}
		}
		dsub[b] = d
		ddown[pc] += d
	}

	// Top-down in BFS order: parents finished before children.
	for _, b := range t.Order {
		cuts := t.BlockCuts[b]
		out.Dout[b] = make([]int64, len(cuts))
		for li, ci := range cuts {
			if ci != t.ParentCut[b] {
				// A child cut: its subtree, precomputed bottom-up.
				out.Dout[b][li] = ddown[ci]
				continue
			}
			p := t.ParentBlock[ci]
			ppos := t.CutPos(p, ci)
			// Through the parent block: its assigned nodes plus
			// everything beyond its *other* cuts.
			d := in.SumDist[p][ppos]
			for lj, cj := range t.BlockCuts[p] {
				if cj != ci {
					d += out.Wout[p][lj]*int64(in.CutDist[p][ppos][lj]) + out.Dout[p][lj]
				}
			}
			// Sibling blocks hanging off the same cut.
			out.Dout[b][li] = d + ddown[ci] - dsub[b]
		}
	}
	return out
}
