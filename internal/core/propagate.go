package core

import (
	"repro/internal/chains"
	"repro/internal/reduce"
)

// propagateExact replaces sampled estimates with closed-form exact values
// for the removed nodes whose farness is a pure function of an anchor's
// farness:
//
//   - identical nodes: farness(twin) = farness(rep) — the paper's
//     Section III-A observation, exact for both open and closed twins;
//   - dangling (Type-1) chain interiors: every shortest path leaves through
//     the anchor u, so farness(a_i) = farness(u) + pos·(n−ℓ) − Σpos +
//     within-chain term (Fact III.3/III.4 generalised);
//   - pendant-cycle (Type-2) interiors: likewise through u, collapsing to
//     farness(a_i) = farness(u) + off_i·(n−ℓ−1).
//
// Parallel-chain interiors and redundant nodes have no such closed form
// (their distances take a min over two+ anchors) and keep their sampled
// estimates. Events are replayed in reverse removal order so an anchor that
// was itself removed later already carries its final value. A partial
// result then gets its bound invariants back (finishPartial).
func propagateExact(red *reduce.Reduction, res *Result) {
	n := int64(red.Orig.NumNodes())
	// anchorNodes collects every node some event hangs structure off: twin
	// representatives, chain anchors and redundant-node neighbours. A
	// chain whose *interior* contains such a node violates the
	// "everything outside routes through the chain's own anchors"
	// assumption (the hung structure attaches mid-chain), so it keeps its
	// sampled estimate. In the single pass only twin representatives can
	// occur inside interiors (chain anchors have degree ≥ 3 and redundant
	// neighbours survive contraction), but checking every anchor costs no
	// more.
	anchorNodes := make(map[int32]bool)
	// Twins of the chain's own anchor are correctable rather than unsafe:
	// a twin t of u sits at d(a_i, t) = d(a_i, u), while the through-u
	// decomposition charges pos_i + d(u, t) — an overcount of exactly
	// GroupDist per twin, which anchorExcess subtracts.
	anchorExcess := make(map[int32]int64)
	for _, e := range red.Events {
		for _, a := range e.Anchors() {
			anchorNodes[a] = true
		}
		if te, ok := e.(*reduce.TwinEvent); ok {
			anchorExcess[te.Rep] = int64(len(te.Members)) * int64(te.GroupDist)
		}
	}
	chainSafe := func(e *reduce.ChainEvent) bool {
		for _, x := range e.Interior {
			if anchorNodes[x] {
				return false
			}
		}
		return true
	}
	for i := len(red.Events) - 1; i >= 0; i-- {
		switch e := red.Events[i].(type) {
		case *reduce.TwinEvent:
			for _, m := range e.Members {
				res.Farness[m] = res.Farness[e.Rep]
				res.Exact[m] = res.Exact[e.Rep]
				if res.StdErr != nil {
					res.StdErr[m] = res.StdErr[e.Rep]
				}
			}
		case *reduce.ChainEvent:
			if !chainSafe(e) {
				continue
			}
			switch e.Kind {
			case chains.Dangling:
				l := int64(len(e.Interior))
				sumPos := l * (l + 1) / 2
				fu := res.Farness[e.U]
				excess := anchorExcess[e.U]
				for idx, node := range e.Interior {
					pos := int64(idx) + 1
					within := pos*(pos-1)/2 + (l-pos)*(l-pos+1)/2
					res.Farness[node] = float64(pos*(n-l)-sumPos+within-excess) + fu
					res.Exact[node] = res.Exact[e.U]
					if res.StdErr != nil {
						res.StdErr[node] = res.StdErr[e.U]
					}
				}
			case chains.Cycle:
				l := int64(len(e.Interior))
				L := l + 1
				fu := res.Farness[e.U]
				excess := anchorExcess[e.U]
				for idx, node := range e.Interior {
					pos := int64(idx) + 1
					off := pos
					if L-pos < off {
						off = L - pos
					}
					res.Farness[node] = float64(off*(n-l-1)-excess) + fu
					res.Exact[node] = res.Exact[e.U]
					if res.StdErr != nil {
						res.StdErr[node] = res.StdErr[e.U]
					}
				}
			}
		}
	}
	res.finishPartial()
}
