// Package reduce orchestrates the BRICS reduction pipeline of the paper's
// Algorithm 4: identical-node removal (I), chain contraction (C) and
// redundant-node removal (R), in that order, producing a weighted reduced
// graph plus the bookkeeping needed to recover every removed node's
// distance from any traversal source in O(1) (the paper's Algorithms 2
// and 3, run as a post-processing "extension" step per source).
//
// All bookkeeping is kept in *original* node ids. The removal log is
// replayed in reverse removal order by Extend, which guarantees that the
// anchors an event depends on (nodes that were still alive when the event's
// nodes were removed) already carry distances: an anchor is either kept —
// its distance comes from the traversal — or was removed by a later event.
//
// The whole pipeline is parallel: stage detection fans out across
// Options.Workers (twins by hash shard, chains by anchor, redundant tests
// by node, CSR rebuilds by block) and the per-stage working buffers come
// from a pooled scratch, yet every worker count produces bit-identical
// Events, ToOld, ToNew, Stats and G. Only Timings varies run to run.
package reduce

import (
	"context"
	"time"

	"repro/internal/chains"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/redundant"
	"repro/internal/twins"
)

// Options selects which reduction stages run.
type Options struct {
	// Twins removes identical nodes (paper Section III-A).
	Twins bool
	// Chains contracts degree-≤2 chains (Section III-B).
	Chains bool
	// Redundant removes redundant 3/4-degree nodes (Section III-C).
	Redundant bool
	// Workers bounds the parallelism of every stage; <1 means GOMAXPROCS.
	// The result is bit-identical for every worker count (Timings aside) —
	// the sequential pipeline is simply Workers=1.
	Workers int
}

// All enables every stage — the paper's "Cumulative" configuration before
// the biconnected decomposition.
func All() Options { return Options{Twins: true, Chains: true, Redundant: true} }

// Stats reports how much each stage removed; Table I's structural columns
// come from here.
type Stats struct {
	// IdenticalNodes is the number of removed twin nodes.
	IdenticalNodes int
	// IdenticalChainNodes is the number of interior nodes in Type-4
	// identical chains (chains with the same endpoints and equal length,
	// all but one of which are redundant).
	IdenticalChainNodes int
	// ChainNodes is the total number of removed chain interior nodes.
	ChainNodes int
	// RedundantNodes is the number of removed redundant 3/4-degree nodes.
	RedundantNodes int
	// TwinGroups is the number of identical-node groups.
	TwinGroups int
	// NumChains is the number of discovered chains.
	NumChains int
}

// Removed returns the total number of removed nodes.
func (s Stats) Removed() int { return s.IdenticalNodes + s.ChainNodes + s.RedundantNodes }

// Timings records the wall-clock time of each preprocessing stage. Purely
// informational — it is the one field of Reduction outside the determinism
// contract (Events/ToOld/ToNew/Stats/G are bit-identical across worker
// counts; Timings varies run to run).
type Timings struct {
	Twins     time.Duration
	Chains    time.Duration
	Redundant time.Duration
}

// Event is one removal record. Extend recovers the distances of the
// event's removed nodes into dist (indexed by original node id), reading
// the distances of the event's anchors.
type Event interface {
	// Removed lists the original ids this event deleted.
	Removed() []graph.NodeID
	// Anchors lists the original ids whose distances Extend reads.
	Anchors() []graph.NodeID
	// Extend writes distances for the removed nodes.
	Extend(dist []int32)
}

// TwinEvent removes a group of identical nodes, keeping Rep.
type TwinEvent struct {
	Rep graph.NodeID
	// Members are the removed twins (Rep excluded).
	Members []graph.NodeID
	// GroupDist is the pairwise distance inside the group: 1 for closed
	// twins, 2 for open twins.
	GroupDist int32
}

// Removed implements Event.
func (e *TwinEvent) Removed() []graph.NodeID { return e.Members }

// Anchors implements Event.
func (e *TwinEvent) Anchors() []graph.NodeID { return []graph.NodeID{e.Rep} }

// Extend implements Event: every twin sits exactly where its representative
// sits — unless the source *is* the representative, in which case the twins
// are GroupDist away (Fact III.2's equal-farness argument needs exactly this
// correction for the group's own pairwise distances).
func (e *TwinEvent) Extend(dist []int32) {
	d := dist[e.Rep]
	if d == 0 {
		d = e.GroupDist
	}
	for _, m := range e.Members {
		dist[m] = d
	}
}

// ChainEvent removes the interior of one chain (paper Algorithm 2).
type ChainEvent struct {
	// U and V are the anchors in original ids; V is -1 for dangling
	// (Type-1) chains and equals U for pendant cycles (Type-2).
	U, V graph.NodeID
	// Interior lists the removed nodes in path order from U;
	// Interior[i] is i+1 unit steps from U.
	Interior []graph.NodeID
	// Kind is the chain classification.
	Kind chains.Type
	// Identical marks Type-4 members (reporting only).
	Identical bool
}

// Removed implements Event.
func (e *ChainEvent) Removed() []graph.NodeID { return e.Interior }

// Anchors implements Event.
func (e *ChainEvent) Anchors() []graph.NodeID {
	if e.V < 0 || e.V == e.U {
		return []graph.NodeID{e.U}
	}
	return []graph.NodeID{e.U, e.V}
}

func (e *ChainEvent) chain() chains.Chain {
	return chains.Chain{U: e.U, V: e.V, Interior: e.Interior, Type: e.Kind}
}

// Extend implements Event using the split formula of Algorithm 2.
func (e *ChainEvent) Extend(dist []int32) {
	du := dist[e.U]
	var dv int32
	if e.V >= 0 {
		dv = dist[e.V]
	}
	c := e.chain()
	for i := range e.Interior {
		dist[e.Interior[i]] = c.InteriorDistance(du, dv, i)
	}
}

// RedundantEvent removes one redundant 3/4-degree node (paper Algorithm 3).
type RedundantEvent struct {
	V       graph.NodeID
	Nbrs    []graph.NodeID
	Weights []int32
}

// Removed implements Event.
func (e *RedundantEvent) Removed() []graph.NodeID { return []graph.NodeID{e.V} }

// Anchors implements Event.
func (e *RedundantEvent) Anchors() []graph.NodeID { return e.Nbrs }

// Extend implements Event.
func (e *RedundantEvent) Extend(dist []int32) {
	node := redundant.Node{V: e.V, Nbrs: e.Nbrs, Weights: e.Weights}
	dist[e.V] = node.Distance(dist)
}

// Reduction is the result of the pipeline.
type Reduction struct {
	// Orig is the input graph.
	Orig *graph.Graph
	// G is the reduced graph, weighted when a contracted chain left an edge
	// heavier than 1.
	G *graph.Graph
	// ToOld maps reduced ids to original ids; ToNew is the inverse (-1
	// for removed originals).
	ToOld []graph.NodeID
	ToNew []graph.NodeID
	// Events is the removal log in removal order.
	Events []Event
	// Stats summarises the stages.
	Stats Stats
	// Timings holds per-stage wall-clock times (informational only).
	Timings Timings
}

// NumRemoved returns the number of removed original nodes.
func (r *Reduction) NumRemoved() int { return r.Orig.NumNodes() - len(r.ToOld) }

// Run executes the pipeline on the connected simple graph g.
func Run(g *graph.Graph, opts Options) (*Reduction, error) {
	return RunContext(context.Background(), g, opts)
}

// RunContext is Run with cooperative cancellation: the pipeline checks ctx
// between stages (checkpoints "reduce.twins", "reduce.chains",
// "reduce.redundant") and abandons the run with a par.ErrCanceled-wrapping
// error once it is done. The pooled scratch is returned either way; a
// non-nil error means no Reduction is produced.
func RunContext(ctx context.Context, g *graph.Graph, opts Options) (*Reduction, error) {
	n := g.NumNodes()
	p := &pipeline{
		red:     &Reduction{Orig: g},
		workers: par.Workers(opts.Workers),
		sc:      getScratch(n),
	}
	defer putScratch(p.sc)

	if err := fault.Checkpoint(ctx, "reduce.twins"); err != nil {
		return nil, err
	}
	p.stageTwins(g, opts)
	if err := fault.Checkpoint(ctx, "reduce.chains"); err != nil {
		return nil, err
	}
	p.stageChains(opts)
	if err := fault.Checkpoint(ctx, "reduce.redundant"); err != nil {
		return nil, err
	}
	p.stageRedundant(opts)
	p.finish(n)
	return p.red, nil
}

// pipeline carries the mutable state the stages thread through: the current
// graph (weighted once chain contraction left a heavier edge), the pooled
// scratch, and the current-stage→original id map. A nil curToOld is the
// identity — no stage has shrunk the graph yet — which spares the identity
// map the old sequential code allocated and filled up front.
type pipeline struct {
	red      *Reduction
	workers  int
	sc       *scratch
	curToOld []graph.NodeID // nil = identity; else pooled, len = g's size
	g        *graph.Graph
}

func (p *pipeline) oldOf(v graph.NodeID) graph.NodeID {
	if p.curToOld == nil {
		return v
	}
	return p.curToOld[v]
}

// compose folds the stage-local renumbering sc.toNew[:stageN] into
// curToOld, writing the next stage→original map into the spare pooled
// buffer (the two map buffers alternate, so the source is never the
// destination).
func (p *pipeline) compose(stageN, kept int) {
	next := p.sc.nextMap(kept)
	toNew := p.sc.toNew
	if cur := p.curToOld; cur != nil {
		par.ForBlocks(stageN, p.workers, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				if nv := toNew[v]; nv >= 0 {
					next[nv] = cur[v]
				}
			}
		})
	} else {
		par.ForBlocks(stageN, p.workers, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				if nv := toNew[v]; nv >= 0 {
					next[nv] = graph.NodeID(v)
				}
			}
		})
	}
	p.curToOld = next
}

// stageTwins removes identical nodes from the input graph.
func (p *pipeline) stageTwins(g *graph.Graph, opts Options) {
	p.g = g
	if !opts.Twins {
		return
	}
	t0 := time.Now()
	defer func() { p.red.Timings.Twins = time.Since(t0) }()
	tw := twins.FindWorkers(p.g, p.workers)
	if len(tw.Groups) == 0 {
		return
	}
	red := p.red
	stageN := p.g.NumNodes()
	keep := p.sc.keepAll(stageN, p.workers)
	for _, grp := range tw.Groups {
		members := make([]graph.NodeID, 0, len(grp.Members)-1)
		for _, m := range grp.Members[1:] {
			keep[m] = false
			members = append(members, p.oldOf(m))
		}
		red.Events = append(red.Events, &TwinEvent{
			Rep:       p.oldOf(grp.Rep()),
			Members:   members,
			GroupDist: grp.Dist(),
		})
	}
	red.Stats.IdenticalNodes = tw.Removed
	red.Stats.TwinGroups = len(tw.Groups)
	sub := graph.SubgraphInto(p.g, keep, p.sc.toNew[:stageN], p.workers)
	p.compose(stageN, sub.NumNodes())
	p.g = sub
}

// stageChains contracts chains of the (twin-reduced) graph; a contracted
// chain between two anchors becomes an edge of weight ℓ+1.
func (p *pipeline) stageChains(opts Options) {
	if !opts.Chains {
		return
	}
	t0 := time.Now()
	defer func() { p.red.Timings.Chains = time.Since(t0) }()
	ch := chains.FindWorkers(p.g, p.workers)
	// A graph that is (or became, after twin removal) a pure path or cycle
	// has no anchor to hang chains from; skip the stage and leave the
	// degree-≤2 nodes in place. Callers answer the original pure path/cycle
	// case in closed form before reducing. An anchored graph with zero
	// chains likewise has nothing to do.
	if ch.WholeGraph || len(ch.Chains) == 0 {
		return
	}
	red := p.red
	red.Stats.NumChains = len(ch.Chains)
	red.Stats.ChainNodes = ch.Removed
	identical := classifyIdentical(ch.Chains)
	stageN := p.g.NumNodes()
	keep := p.sc.keepAll(stageN, p.workers)
	extra := make([]graph.WEdge, 0, len(ch.Chains))
	for ci := range ch.Chains {
		c := &ch.Chains[ci]
		interior := make([]graph.NodeID, len(c.Interior))
		for i, v := range c.Interior {
			keep[v] = false
			interior[i] = p.oldOf(v)
		}
		v := graph.NodeID(-1)
		if c.V >= 0 {
			v = p.oldOf(c.V)
		}
		ev := &ChainEvent{
			U:         p.oldOf(c.U),
			V:         v,
			Interior:  interior,
			Kind:      c.Type,
			Identical: identical[ci],
		}
		if identical[ci] {
			red.Stats.IdenticalChainNodes += len(interior)
		}
		red.Events = append(red.Events, ev)
		if c.Type == chains.Parallel && c.U != c.V {
			extra = append(extra, graph.WEdge{U: c.U, V: c.V, W: c.EdgeWeight()})
		}
	}
	sub := graph.ContractInto(p.g, keep, p.sc.toNew[:stageN], extra, p.workers)
	p.compose(stageN, sub.NumNodes())
	p.g = sub
}

// stageRedundant removes redundant 3/4-degree nodes.
func (p *pipeline) stageRedundant(opts Options) {
	if !opts.Redundant {
		return
	}
	t0 := time.Now()
	defer func() { p.red.Timings.Redundant = time.Since(t0) }()
	rn := redundant.FindWorkers(p.g, nil, p.workers)
	if len(rn.Nodes) == 0 {
		return
	}
	// rn's Nbrs and Weights slices are freshly allocated per node by
	// redundant.Find, so the events take ownership instead of re-copying.
	red := p.red
	red.Stats.RedundantNodes = len(rn.Nodes)
	stageN := p.g.NumNodes()
	keep := p.sc.keepAll(stageN, p.workers)
	for i := range rn.Nodes {
		nd := &rn.Nodes[i]
		keep[nd.V] = false
		nbrs := make([]graph.NodeID, len(nd.Nbrs))
		for j, x := range nd.Nbrs {
			nbrs[j] = p.oldOf(x)
		}
		red.Events = append(red.Events, &RedundantEvent{
			V:       p.oldOf(nd.V),
			Nbrs:    nbrs,
			Weights: nd.Weights,
		})
	}
	sub := graph.SubgraphInto(p.g, keep, p.sc.toNew[:stageN], p.workers)
	p.compose(stageN, sub.NumNodes())
	p.g = sub
}

// finish materialises the caller-owned ToOld/ToNew from the pooled map and
// hands over the reduced graph.
func (p *pipeline) finish(n int) {
	red := p.red
	red.G = p.g
	kept := p.g.NumNodes()
	red.ToOld = make([]graph.NodeID, kept)
	if p.curToOld == nil {
		par.ForBlocks(kept, p.workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				red.ToOld[i] = graph.NodeID(i)
			}
		})
	} else {
		copy(red.ToOld, p.curToOld)
	}
	red.ToNew = make([]graph.NodeID, n)
	toOld, toNew := red.ToOld, red.ToNew
	par.ForBlocks(n, p.workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			toNew[i] = -1
		}
	})
	par.ForBlocks(kept, p.workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			toNew[toOld[i]] = graph.NodeID(i)
		}
	})
}

// classifyIdentical marks Type-4 chains: Parallel chains sharing both
// endpoints with another chain of equal length. Only used for reporting —
// the contraction's min-weight parallel-edge rule removes redundant
// parallels regardless.
func classifyIdentical(cs []chains.Chain) []bool {
	type key struct {
		a, b graph.NodeID
		l    int
	}
	count := make(map[key]int)
	mk := func(c *chains.Chain) (key, bool) {
		if c.Type != chains.Parallel || c.V < 0 || c.U == c.V {
			return key{}, false
		}
		a, b := c.U, c.V
		if a > b {
			a, b = b, a
		}
		return key{a, b, len(c.Interior)}, true
	}
	for i := range cs {
		if k, ok := mk(&cs[i]); ok {
			count[k]++
		}
	}
	out := make([]bool, len(cs))
	for i := range cs {
		if k, ok := mk(&cs[i]); ok && count[k] >= 2 {
			out[i] = true
		}
	}
	return out
}

// Scatter copies reduced-graph distances into an original-id distance
// array, leaving removed entries untouched. Callers usually follow with
// Extend. distOrig must be pre-filled with -1 (or stale values that Extend
// and Scatter jointly overwrite — every kept and removed entry is written).
// No estimator calls Scatter or Extend: the estimators sum rows over kept
// nodes and give removed nodes their sums through Anchors. The pair stays
// as the reference replay of Algorithms 2–3 that the tests check the
// reduced graph and those sums against.
func (r *Reduction) Scatter(distReduced, distOrig []int32) {
	for newID, old := range r.ToOld {
		distOrig[old] = distReduced[newID]
	}
}

// Extend replays the removal log in reverse, filling distances for every
// removed node. distOrig must already hold distances for all kept nodes
// (see Scatter, which also says why this is a test reference only).
func (r *Reduction) Extend(distOrig []int32) {
	for i := len(r.Events) - 1; i >= 0; i-- {
		r.Events[i].Extend(distOrig)
	}
}
