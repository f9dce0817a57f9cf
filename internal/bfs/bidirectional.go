package bfs

import (
	"context"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
)

// PointToPoint returns d(s, t) using bidirectional BFS: both endpoints
// expand level by level, always growing the smaller frontier, and stop one
// level after the frontiers first touch. On small-world graphs this visits
// O(√) of the nodes a full BFS would — it backs the server's /v1/distance
// endpoint. Returns -1 when t is unreachable from s. Its scratch is pooled
// and epoch-stamped, so a call costs the nodes it visits, not O(n), and
// concurrent calls are safe.
func PointToPoint(g *graph.Graph, s, t graph.NodeID) int32 {
	return pointToPointDone(g, s, t, nil)
}

// PointToPointCtx is PointToPoint with cooperative cancellation, polled once
// per expansion level — the form the server's /distance handler uses so a
// closed request or deadline abandons the search. On a non-nil error the
// distance is meaningless and must be discarded.
func PointToPointCtx(ctx context.Context, g *graph.Graph, s, t graph.NodeID) (int32, error) {
	d := pointToPointDone(g, s, t, ctx.Done())
	if err := par.CtxErr(ctx); err != nil {
		return Unreached, err
	}
	return d, nil
}

// p2pCell is one node's distance from one side of a bidirectional search,
// valid only while its epoch is the search's.
type p2pCell struct {
	epoch uint32
	dist  int32
}

// p2pScratch is a bidirectional search's reusable state: both sides'
// distances, epoch-stamped so that a new search starts by bumping the epoch
// instead of filling two n-sized arrays, and the frontier buffers. The
// arrays grow to the largest graph searched and serve smaller ones as they
// are: a stale stamp reads as unreached whatever graph left it.
type p2pScratch struct {
	epoch               uint32
	side                [2][]p2pCell
	front, spare, other []graph.NodeID
}

// p2pPool recycles search scratch across PointToPoint calls.
var p2pPool = sync.Pool{New: func() any { return new(p2pScratch) }}

// begin readies sc for a search over n nodes: grown to n, with a fresh
// epoch (clearing the stamps once the counter wraps).
func (sc *p2pScratch) begin(n int) {
	for i := range sc.side {
		if len(sc.side[i]) < n {
			sc.side[i] = make([]p2pCell, n)
		}
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.side[0])
		clear(sc.side[1])
		sc.epoch = 1
	}
}

func pointToPointDone(g *graph.Graph, s, t graph.NodeID, done <-chan struct{}) int32 {
	if s == t {
		return 0 // covers the single-node graph too: no scratch allocated
	}
	if g.Degree(s) == 0 || g.Degree(t) == 0 {
		// An isolated endpoint can reach nothing but itself; answer the
		// disconnected pair without touching the search scratch.
		return Unreached
	}
	sc := p2pPool.Get().(*p2pScratch)
	defer p2pPool.Put(sc)
	sc.begin(g.NumNodes())
	epoch := sc.epoch
	distS, distT := sc.side[0], sc.side[1]
	distS[s] = p2pCell{epoch, 0}
	distT[t] = p2pCell{epoch, 0}
	frontS := append(sc.front[:0], s)
	frontT := append(sc.other[:0], t)
	spare := sc.spare[:0]
	defer func() { sc.front, sc.other, sc.spare = frontS, frontT, spare }()
	levelS, levelT := int32(0), int32(0)
	best := int32(-1)

	expand := func(front, next []graph.NodeID, level int32, mine, other []p2pCell) []graph.NodeID {
		next = next[:0]
		for _, u := range front {
			for _, w := range g.Neighbors(u) {
				if mine[w].epoch == epoch {
					continue
				}
				mine[w] = p2pCell{epoch, level + 1}
				if o := other[w]; o.epoch == epoch {
					if cand := level + 1 + o.dist; best < 0 || cand < best {
						best = cand
					}
				}
				next = append(next, w)
			}
		}
		return next
	}

	for len(frontS) > 0 && len(frontT) > 0 {
		if par.Interrupted(done) {
			return Unreached // partial search; the ctx wrapper surfaces the error
		}
		// Once the frontiers have met, one more level from each side
		// cannot improve below levelS+levelT+1; stop when best is already
		// that tight.
		if best >= 0 && best <= levelS+levelT+1 {
			return best
		}
		if len(frontS) <= len(frontT) {
			next := expand(frontS, spare, levelS, distS, distT)
			spare, frontS = frontS, next
			levelS++
		} else {
			next := expand(frontT, spare, levelT, distT, distS)
			spare, frontT = frontT, next
			levelT++
		}
	}
	return best
}
