package bfs

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// multiSourceDial runs a lane-masked Dial (bucket-queue) shortest-path
// sweep from up to 64 sources simultaneously over a weighted graph; the
// scratch grows its bucket ring to the graph's maximum edge weight. visit
// receives the lanes newly settled at v for weighted distance d as a
// bitmask. Unlike the unweighted kernel, the same (v, d) pair may be
// reported across several calls — bucket entries arriving from different
// predecessors settle disjoint lane subsets — but each (source, node) pair
// is still covered exactly once over the sweep.
//
// The kernel generalises Dial's monotone bucket ring to lane masks: each
// bucket holds (node, mask) entries meaning "the lanes in mask may reach
// node at this distance"; draining buckets in increasing distance settles
// every lane at its true distance, with stale entries filtered by the
// per-node seen mask. Entries landing on the same node at the same distance
// are coalesced before edge relaxation, so lanes whose frontiers coincide
// share one edge scan — the same win the unweighted kernel gets per level.
func multiSourceDial(g *graph.Graph, sources []graph.NodeID, s *MSScratch, visit func(v graph.NodeID, mask uint64, d int32)) {
	if len(sources) == 0 {
		return
	}
	if len(sources) > MSBFSWidth {
		panic("bfs: a multi-source sweep supports at most 64 sources per batch")
	}
	n := g.NumNodes()
	s.reset(n)
	if len(s.pend) < n {
		s.pend = make([]uint64, n)
	}
	// The ring spans this graph's weights only, however wide a graph the
	// scratch served before, so its buckets are reused lap after lap.
	ring := int(g.MaxWeight()) + 1
	if len(s.buckets) < ring {
		s.buckets = make([][]msEntry, ring)
	}
	seen, pend := s.seen, s.pend
	for i := range s.buckets[:ring] {
		s.buckets[i] = s.buckets[i][:0]
	}
	levelNodes := s.levelNodes[:0]

	pending := 0
	for lane, src := range sources {
		s.buckets[0] = append(s.buckets[0], msEntry{src, uint64(1) << uint(lane)})
		pending++
	}

	for d := int32(0); pending > 0; d++ {
		slot := int(d) % ring
		entries := s.buckets[slot]
		if len(entries) == 0 {
			continue
		}
		if par.Interrupted(s.done) {
			break
		}
		pending -= len(entries)
		// Phase 1: settle new lanes, coalescing same-distance arrivals per
		// node so phase 2 scans each node's edges once for all its lanes.
		levelNodes = levelNodes[:0]
		for _, e := range entries {
			nw := e.mask &^ seen[e.v]
			if nw == 0 {
				continue
			}
			// Branch-avoiding queue insert (see msbfs.go): append
			// speculatively, retract by the already-pending bit.
			levelNodes = append(levelNodes, e.v)
			levelNodes = levelNodes[:len(levelNodes)-int(nzb(pend[e.v]))]
			pend[e.v] |= nw
			seen[e.v] |= nw
			visit(e.v, nw, d)
		}
		s.buckets[slot] = entries[:0]
		// Phase 2: relax. Every push targets a strictly larger distance
		// (weights are ≥ 1), so the slot being drained never grows.
		for _, v := range levelNodes {
			m := pend[v]
			pend[v] = 0
			nbrs := g.Neighbors(v)
			ws := g.Weights(v)
			for i, w := range nbrs {
				fm := m &^ seen[w]
				if fm == 0 {
					continue
				}
				nslot := int(d+ws[i]) % ring
				s.buckets[nslot] = append(s.buckets[nslot], msEntry{w, fm})
				pending++
			}
		}
	}
	s.levelNodes = levelNodes[:0]
}

// MultiSourceW runs one sweep from up to 64 sources over g and hands every
// reached (source, node) pair to visit exactly once, as lane masks the way
// MultiSourceMasksInto does: the level-synchronous bit-parallel sweep when
// g is unweighted, the lane-masked Dial when it is weighted, whose bucket
// ring spans any maximum weight. An interrupted sweep (see
// MSScratch.SetDone) returns with part of its visits delivered.
func MultiSourceW(g *graph.Graph, batch []graph.NodeID, s *MSScratch, visit func(v graph.NodeID, mask uint64, d int32)) {
	if g.Weighted() {
		multiSourceDial(g, batch, s, visit)
		return
	}
	MultiSourceMasksInto(g, batch, s, visit)
}
