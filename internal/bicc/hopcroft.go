package bicc

import (
	"time"

	"repro/internal/graph"
	"repro/internal/par"
)

// frame is one node of the explicit DFS stack.
type frame struct {
	v, parent graph.NodeID
	nextEdge  int32 // index into v's adjacency to resume from
}

// decompose runs the Hopcroft–Tarjan decomposition with one DFS per
// connected component, components fanned out across workers. Components
// are node-disjoint, so the workers share the disc/low arrays without
// conflict; each component keeps a local timer and local stacks, and the
// per-component block lists are concatenated in ascending order of the
// component's smallest node before the shared canonical assembler numbers
// them. A connected input (the pipeline's guarantee) has one component and
// degenerates to a single sequential DFS; DESIGN.md section 13 records why
// no intra-component parallel engine earns its place.
func decompose(g *graph.Graph, workers int) (*Decomposition, Timings) {
	n := g.NumNodes()
	var t Timings
	if n == 0 {
		return assemble(0, nil, workers), t
	}
	const unvisited = int32(-1)
	disc := make([]int32, n)
	low := make([]int32, n)
	par.FillInt32(disc, unvisited, workers)

	// Label components by their smallest node; roots come out ascending.
	comp := disc // reuse: unvisited doubles as "no component yet"
	var roots []graph.NodeID
	var bfsQ []graph.NodeID
	for v := 0; v < n; v++ {
		if comp[v] != unvisited {
			continue
		}
		roots = append(roots, graph.NodeID(v))
		comp[v] = int32(len(roots) - 1)
		bfsQ = append(bfsQ[:0], graph.NodeID(v))
		for len(bfsQ) > 0 {
			u := bfsQ[len(bfsQ)-1]
			bfsQ = bfsQ[:len(bfsQ)-1]
			for _, w := range g.Neighbors(u) {
				if comp[w] == unvisited {
					comp[w] = comp[u]
					bfsQ = append(bfsQ, w)
				}
			}
		}
	}
	// Reset disc for the DFS passes (comp aliased it); each component's DFS
	// then touches only its own disjoint entries.
	par.FillInt32(disc, unvisited, workers)
	perComp := make([][][]Edge, len(roots))
	if len(roots) == 1 {
		perComp[0] = decomposeComponent(g, roots[0], disc, low)
	} else {
		par.ForDynamic(len(roots), workers, 1, func(_, c int) {
			perComp[c] = decomposeComponent(g, graph.NodeID(roots[c]), disc, low)
		})
	}
	var blocks [][]Edge
	for _, bs := range perComp {
		blocks = append(blocks, bs...)
	}
	asmStart := time.Now()
	d := assemble(n, blocks, workers)
	t.Assemble = time.Since(asmStart)
	return d, t
}

// decomposeComponent runs the iterative Hopcroft–Tarjan DFS over the
// component containing root, writing disc/low entries only for that
// component's nodes and returning its blocks in emission order (the
// canonical assembler renumbers them). Safe to run concurrently for
// node-disjoint components sharing the arrays.
func decomposeComponent(g *graph.Graph, root graph.NodeID, disc, low []int32) [][]Edge {
	const unvisited = int32(-1)
	var blocks [][]Edge
	var timer int32
	var edgeStack []Edge
	var stack []frame

	emitBlock := func(u, v graph.NodeID) {
		// Pop edges until (u,v) inclusive; they form one block.
		var blk []Edge
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			blk = append(blk, e)
			if e.U == u && e.V == v {
				break
			}
		}
		blocks = append(blocks, blk)
	}

	disc[root] = timer
	low[root] = timer
	timer++
	stack = append(stack, frame{v: root, parent: -1})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		v := f.v
		nbrs := g.Neighbors(v)
		advanced := false
		for int(f.nextEdge) < len(nbrs) {
			w := nbrs[f.nextEdge]
			wt := g.Weight(v, int(f.nextEdge))
			f.nextEdge++
			if w == f.parent {
				continue // simple graph: exactly one parent edge
			}
			if disc[w] == unvisited {
				disc[w] = timer
				low[w] = timer
				timer++
				edgeStack = append(edgeStack, Edge{U: v, V: w, W: wt})
				stack = append(stack, frame{v: w, parent: v})
				advanced = true
				break
			}
			if disc[w] < disc[v] {
				// Back edge to an ancestor.
				edgeStack = append(edgeStack, Edge{U: v, V: w, W: wt})
				if disc[w] < low[v] {
					low[v] = disc[w]
				}
			}
		}
		if advanced {
			continue
		}
		// v is finished; propagate low to parent and test the
		// articulation condition for the tree edge parent→v.
		stack = stack[:len(stack)-1]
		if f.parent >= 0 {
			p := f.parent
			if low[v] < low[p] {
				low[p] = low[v]
			}
			if low[v] >= disc[p] {
				emitBlock(p, v)
			}
		}
	}
	return blocks
}
