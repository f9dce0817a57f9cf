package reduce

import (
	"repro/internal/chains"
	"repro/internal/graph"
	"repro/internal/redundant"
)

// Anchors lets an estimator account for the removed nodes of a run of
// removal events without extending every traversal row to them. A traversal
// unit (the reduced graph, or one biconnected block of it) reaches each
// source's kept nodes. The source's anchor row holds its distance to every
// tracked node (every anchor of the covered events, plus any extra node the
// caller asks for): a consumer captures the kept columns as the traversal
// reaches them (KeptColumns), and Fill recovers the removed anchors by
// replaying only the events that removed an anchor, in reverse removal
// order. Account then gives the source's total over all removed nodes with
// one closed form per event, and adds what the per-row rules below need to
// a RowSums. Once every row is in, AddSums gives each removed node its sums
// over the rows, once per run:
//
//   - a twin takes its representative's sums, plus GroupDist for every row
//     whose source is the representative;
//   - a dangling chain or a pendant cycle at offset c from its anchor a uses
//     Σa + k·c, and Σa² + 2c·Σa + k·c² for the squares;
//   - a two-anchor chain counts the rows by their split point (the last
//     offset still closer through U) and reads every interior node's sums
//     off prefix sums over the split points, O(chain length) per chain;
//   - a redundant node takes, for each row, the minimum over its anchors.
//
// The first two rules read their anchor's sums, which the caller holds for
// kept anchors; the last two read the RowSums. All arithmetic is on
// integers, so every sum equals the one a per-source Scatter + Extend
// replay would accumulate, bit for bit.
type Anchors struct {
	nodes []graph.NodeID // column c tracks original node nodes[c]
	colOf map[graph.NodeID]int32
	keep  []int32 // per column: its index in the unit's kept row; -1 when removed
	fills []fill  // removed columns, in reverse removal order
	evs   []anchorEvent
	// The covered events by the rule that sums them: anchor sums (twins,
	// dangling chains, pendant cycles) or row sums (two-anchor chains,
	// redundant nodes, each owning the RowSums buckets from at), each in
	// removal order.
	bySums, byRows []int32
	buckets        int // RowSums buckets over all byRows events

	// Account's compact view of the events. A source's total over the
	// anchor-sum events is linear in its anchor row: Σ coef·cols[col] plus
	// lin, plus bonus[src] when the source is twin representatives' own
	// (Σ members·GroupDist), the one row in which a twin is not where its
	// representative is.
	lin       int64
	linCol    []int32
	linCoef   []int64
	bonus     map[graph.NodeID]int64
	chainEvs  []chainEv
	redundant []redundantEv
}

// chainEv is a two-anchor chain as Account reads it: its anchor columns,
// length and first RowSums bucket.
type chainEv struct{ a, b, l, at int32 }

// redundantEv is a redundant node as Account reads it.
type redundantEv struct {
	at     int32
	n      int32
	anchor [redundant.MaxDegree]int32
	weight [redundant.MaxDegree]int32
}

// fill computes removed column col as node idx of event ev.
type fill struct {
	col, ev, idx int32
}

// anchorEvent is one covered event in column form.
type anchorEvent struct {
	kind    eventKind
	a, b    int32 // anchor columns: the twin's rep or the chain's U; a two-anchor chain's V
	removed []graph.NodeID
	gd      int32   // twin: GroupDist
	anchor  []int32 // redundant: anchor columns and edge weights
	weight  []int32
	node    graph.NodeID // anchor a's original id (twins, dangling chains, pendant cycles)
	at      int          // first RowSums bucket (two-anchor chains, redundant nodes)
}

type eventKind uint8

const (
	evTwin eventKind = iota
	evDangling
	evCycle
	evChain
	evRedundant
)

// NewAnchors builds the column plan for red's events listed in events
// (ascending indices). keptAt maps a kept original node to its index in the
// unit's rows, or -1 when the unit does not hold it; extra lists further
// nodes the caller wants a column for (see Col). A tracked node that is
// neither in the unit nor removed by a covered event reads as unreached (-1).
func NewAnchors(red *Reduction, events []int32, keptAt func(graph.NodeID) int32, extra []graph.NodeID) *Anchors {
	p := &Anchors{colOf: make(map[graph.NodeID]int32)}
	col := func(o graph.NodeID) int32 {
		c, ok := p.colOf[o]
		if !ok {
			c = int32(len(p.nodes))
			p.colOf[o] = c
			p.nodes = append(p.nodes, o)
		}
		return c
	}
	p.evs = make([]anchorEvent, len(events))
	for i, ei := range events {
		ae := &p.evs[i]
		switch e := red.Events[ei].(type) {
		case *TwinEvent:
			*ae = anchorEvent{kind: evTwin, a: col(e.Rep), node: e.Rep, removed: e.Members, gd: e.GroupDist}
		case *ChainEvent:
			if e.Kind == chains.Parallel {
				*ae = anchorEvent{kind: evChain, a: col(e.U), b: col(e.V), removed: e.Interior, at: p.buckets}
				p.buckets += len(e.Interior) + 1
				p.byRows = append(p.byRows, int32(i))
				continue
			}
			*ae = anchorEvent{kind: evDangling, a: col(e.U), node: e.U, removed: e.Interior}
			if e.Kind == chains.Cycle {
				ae.kind = evCycle
			}
			for idx := range e.Interior {
				p.lin += ae.offset(idx)
			}
		case *RedundantEvent:
			*ae = anchorEvent{kind: evRedundant, removed: []graph.NodeID{e.V}, weight: e.Weights, at: p.buckets}
			for _, x := range e.Nbrs {
				ae.anchor = append(ae.anchor, col(x))
			}
			p.buckets++
			p.byRows = append(p.byRows, int32(i))
			continue
		}
		p.bySums = append(p.bySums, int32(i))
	}
	for _, o := range extra {
		col(o)
	}
	coef := map[int32]int64{}
	p.bonus = map[graph.NodeID]int64{}
	for _, i := range p.bySums {
		e := &p.evs[i]
		l := int64(len(e.removed))
		if _, ok := coef[e.a]; !ok {
			p.linCol = append(p.linCol, e.a)
		}
		coef[e.a] += l
		if e.kind == evTwin {
			p.bonus[e.node] += l * int64(e.gd)
		}
	}
	for _, c := range p.linCol {
		p.linCoef = append(p.linCoef, coef[c])
	}
	for _, i := range p.byRows {
		e := &p.evs[i]
		if e.kind == evChain {
			p.chainEvs = append(p.chainEvs, chainEv{e.a, e.b, int32(len(e.removed)), int32(e.at)})
			continue
		}
		r := redundantEv{at: int32(e.at), n: int32(len(e.anchor))}
		copy(r.anchor[:], e.anchor)
		copy(r.weight[:], e.weight)
		p.redundant = append(p.redundant, r)
	}
	p.keep = make([]int32, len(p.nodes))
	for c, o := range p.nodes {
		p.keep[c] = -1
		if red.ToNew[o] >= 0 {
			p.keep[c] = keptAt(o)
		}
	}
	for i := len(p.evs) - 1; i >= 0; i-- {
		for idx, o := range p.evs[i].removed {
			if c, ok := p.colOf[o]; ok {
				p.fills = append(p.fills, fill{c, int32(i), int32(idx)})
			}
		}
	}
	return p
}

// Width returns the length of an anchor row.
func (p *Anchors) Width() int { return len(p.nodes) }

// Col returns the column of a tracked node, or -1.
func (p *Anchors) Col(o graph.NodeID) int {
	if c, ok := p.colOf[o]; ok {
		return int(c)
	}
	return -1
}

// KeptColumns returns, for each of a unit's n nodes, the column that tracks
// it, or -1: the index a traversal consumer captures anchor rows through.
func (p *Anchors) KeptColumns(n int) []int32 {
	at := make([]int32, n)
	for i := range at {
		at[i] = -1
	}
	for c, k := range p.keep {
		if k >= 0 {
			at[k] = int32(c)
		}
	}
	return at
}

// Fill completes one source's anchor row cols (len Width()), whose kept
// columns (see KeptColumns) hold the source's distances and whose other
// columns hold -1: it recovers the removed columns by replaying the
// removing events in reverse.
func (p *Anchors) Fill(cols []int32) {
	for _, f := range p.fills {
		cols[f.col] = p.evs[f.ev].dist(cols, int(f.idx))
	}
}

// offset returns the idx-th removed node's distance beyond anchor a for a
// dangling chain or a pendant cycle.
func (e *anchorEvent) offset(idx int) int64 {
	c := int64(idx) + 1
	if e.kind == evCycle {
		c = min(c, int64(len(e.removed))+1-c)
	}
	return c
}

// dist returns the source's distance to the event's idx-th removed node,
// exactly as the event's Extend computes it.
func (e *anchorEvent) dist(cols []int32, idx int) int32 {
	switch e.kind {
	case evTwin:
		if d := cols[e.a]; d != 0 {
			return d
		}
		return e.gd
	case evDangling, evCycle:
		return cols[e.a] + int32(e.offset(idx))
	case evChain:
		// chains.Chain.InteriorDistance for a two-anchor chain.
		off, l := int32(idx)+1, int32(len(e.removed))+1
		return min(cols[e.a]+off, cols[e.b]+l-off)
	default:
		return e.nearest(cols)
	}
}

// nearest is a redundant node's distance: the minimum of d(s,x) + w(x,v)
// over its reached anchors x, or -1 (redundant.Node.Distance).
func (e *anchorEvent) nearest(cols []int32) int32 {
	best := int32(-1)
	for i, c := range e.anchor {
		dx := cols[c]
		if dx < 0 {
			continue
		}
		if d := dx + e.weight[i]; best < 0 || d < best {
			best = d
		}
	}
	return best
}

// RowSums holds, for one kind of row, what the per-row rules read: the
// rows' total weight, their weight per source, and per two-anchor chain
// and split point (per redundant node) the weighted sums of the anchor
// distances (of the node's distance) and of their squares. Its size
// depends on the covered events, not on the number of rows.
type RowSums struct {
	k       int64
	at      map[graph.NodeID]int64
	buckets []bucket
}

// bucket holds weighted sums over rows: their weight k, Σ w·u and Σ w·u²,
// Σ w·v and Σ w·v². A two-anchor chain's bucket at split point s holds the
// rows split at s with u = d(s,U) and v = d(s,V); a redundant node's holds
// its distance as u.
type bucket struct{ k, u, u2, v, v2 int64 }

func (b *bucket) add(o *bucket) {
	b.k += o.k
	b.u += o.u
	b.u2 += o.u2
	b.v += o.v
	b.v2 += o.v2
}

// NewRowSums returns empty row sums for p's events.
func (p *Anchors) NewRowSums() *RowSums {
	return &RowSums{at: map[graph.NodeID]int64{}, buckets: make([]bucket, p.buckets)}
}

// Reset empties rs for reuse.
func (rs *RowSums) Reset() {
	rs.k = 0
	clear(rs.at)
	clear(rs.buckets)
}

// Add adds o's rows to rs.
func (rs *RowSums) Add(o *RowSums) {
	rs.k += o.k
	for s, w := range o.at {
		rs.at[s] += w
	}
	for i := range o.buckets {
		rs.buckets[i].add(&o.buckets[i])
	}
}

// Account returns Σ d(s, v) over every removed node v of the covered
// events for source src, whose anchor row (see Fill) is cols, with one
// closed form per event. When rs is non-nil it also adds the row, weighted
// w, to rs.
func (p *Anchors) Account(cols []int32, src graph.NodeID, w int64, rs *RowSums) int64 {
	sum := p.lin + p.bonus[src]
	for i, c := range p.linCol {
		sum += p.linCoef[i] * int64(cols[c])
	}
	if rs != nil {
		rs.k += w
		rs.at[src] += w
	}
	for i := range p.chainEvs {
		e := &p.chainEvs[i]
		l, du, dv := int64(e.l), int64(cols[e.a]), int64(cols[e.b])
		// The split point: offsets 1..s are reached through U, the rest
		// through V. (A shift floors where a division would truncate; the
		// two differ only below zero, which the clamp maps to 0 alike.)
		s := max(min((dv-du+l+1)>>1, l), 0)
		// Offsets 1..s: du + off, Σ = s·du + s(s+1)/2; offsets s+1..l:
		// dv + l + 1 − off, Σ = (l−s)(dv+l+1) − (l(l+1)/2 − s(s+1)/2).
		sum += s*du + s*(s+1) + (l-s)*(dv+l+1) - l*(l+1)>>1
		if rs != nil {
			b := &rs.buckets[int64(e.at)+s]
			b.k += w
			b.u += w * du
			b.u2 += w * du * du
			b.v += w * dv
			b.v2 += w * dv * dv
		}
	}
	for i := range p.redundant {
		e := &p.redundant[i]
		x := int64(-1)
		for j, c := range e.anchor[:e.n] {
			if dx := int64(cols[c]); dx >= 0 && (x < 0 || dx+int64(e.weight[j]) < x) {
				x = dx + int64(e.weight[j])
			}
		}
		sum += x
		if rs != nil {
			b := &rs.buckets[e.at]
			b.k += w
			b.u += w * x
			b.u2 += w * x * x
		}
	}
	return sum
}

// AddSums gives every removed node v of the covered events its sums over
// the rows rs holds: Σ_r w_r·d(s_r, v) into sum[v] and, when sq is non-nil,
// Σ_r w_r·d(s_r, v)² into sq[v]. sum and sq are indexed by original id,
// must hold every kept anchor's sums over the same rows and weights, and
// must be zero at the removed nodes. The anchor-sum events run in reverse
// removal order, after the row-sum events, so a removed anchor's sums are
// in place before any event reads them.
func (p *Anchors) AddSums(rs *RowSums, sum, sq []int64) {
	if rs.k == 0 {
		return
	}
	for _, i := range p.byRows {
		e := &p.evs[i]
		bk := rs.buckets[e.at:]
		if e.kind == evRedundant {
			sum[e.removed[0]] += bk[0].u
			if sq != nil {
				sq[e.removed[0]] += bk[0].u2
			}
			continue
		}
		// Offset off is reached through U from the rows split at or beyond
		// off, and from the others through V, at distance dv + (l+1−off).
		l := len(e.removed)
		var tot, below bucket
		for j := range l + 1 {
			tot.add(&bk[j])
		}
		for idx, v := range e.removed {
			off := int64(idx) + 1
			below.add(&bk[idx])
			kU, u1, u2 := tot.k-below.k, tot.u-below.u, tot.u2-below.u2
			back := int64(l) + 1 - off
			sum[v] += u1 + off*kU + below.v + back*below.k
			if sq != nil {
				sq[v] += u2 + 2*off*u1 + off*off*kU + below.v2 + 2*back*below.v + back*back*below.k
			}
		}
	}
	k := rs.k
	for j := len(p.bySums) - 1; j >= 0; j-- {
		e := &p.evs[p.bySums[j]]
		a1 := sum[e.node]
		var a2 int64
		if sq != nil {
			a2 = sq[e.node]
		}
		if e.kind == evTwin {
			z, gd := rs.at[e.node], int64(e.gd)
			for _, v := range e.removed {
				sum[v] += a1 + gd*z
				if sq != nil {
					sq[v] += a2 + gd*gd*z
				}
			}
			continue
		}
		for idx, v := range e.removed {
			c := e.offset(idx)
			sum[v] += a1 + k*c
			if sq != nil {
				sq[v] += a2 + 2*c*a1 + k*c*c
			}
		}
	}
}
