package reduce

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
)

// scratch pools the per-run working buffers of the pipeline — the keep
// mask, the stage-local old→new renumbering, and the double-buffered
// stage→original id maps — so Run stops allocating them per stage.
// Buffers are sized for the input graph once
// and sliced down as the stages shrink it; a sync.Pool recycles them across
// runs. Only the final ToOld/ToNew and the Events (the caller-visible
// output) are freshly allocated.
type scratch struct {
	keep  []bool
	toNew []graph.NodeID
	maps  [2][]graph.NodeID
	flip  int
}

var scratchPool sync.Pool

func getScratch(n int) *scratch {
	s, _ := scratchPool.Get().(*scratch)
	if s == nil {
		s = &scratch{}
	}
	if cap(s.keep) < n {
		s.keep = make([]bool, n)
		s.toNew = make([]graph.NodeID, n)
		s.maps[0] = make([]graph.NodeID, n)
		s.maps[1] = make([]graph.NodeID, n)
	}
	s.flip = 0
	return s
}

func putScratch(s *scratch) { scratchPool.Put(s) }

// keepAll returns the pooled keep mask sliced to k entries, all true.
func (s *scratch) keepAll(k, workers int) []bool {
	keep := s.keep[:k]
	par.ForBlocks(k, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			keep[i] = true
		}
	})
	return keep
}

// nextMap flips to the other pooled id-map buffer and returns it sliced to
// k entries. The pipeline only ever needs the current map and its
// successor, so two alternating buffers suffice.
func (s *scratch) nextMap(k int) []graph.NodeID {
	s.flip ^= 1
	return s.maps[s.flip][:k]
}
