package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestMutationsKeepFarnessOutsideAffected drives a seeded sequence of edge
// inserts and removals through the HTTP handler on one graph of each
// generator family, and checks each answer against the test's own edge set.
// A step the edge set refuses (an out-of-range node, a missing edge, a
// removal that disconnects the graph) must answer 400 and leave the
// generation unchanged. Any other step must answer 200 with the next
// generation, whose CSR equals a graph.NewBuilder graph of the edge set array
// for array. Its affected count must be the size of the set bfs.EditEdge
// returns, and every node outside that set must keep its exact farness from
// before the step. An exact farness index (internal/dynamic) replays the
// sequence beside the server: it refuses what the server refuses, and after
// every accepted step its snapshot is the served CSR and its farness the
// exact farness of the served graph. The sequence mixes real inserts and
// removals with no-op inserts of existing edges, self loops, out-of-range
// nodes, removals of missing edges and refused removals of bridges.
func TestMutationsKeepFarnessOutsideAffected(t *testing.T) {
	families := []struct {
		name string
		gen  func(int, int64) *graph.Graph
	}{
		{"web", gen.Web}, {"social", gen.Social}, {"community", gen.Community}, {"road", gen.Road},
	}
	for fi, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			g := fam.gen(150, int64(fi+1))
			n := g.NumNodes()
			edges := map[[2]graph.NodeID]bool{}
			for u := graph.NodeID(0); int(u) < n; u++ {
				for _, v := range g.Neighbors(u) {
					edges[edgeKey(u, v)] = true
				}
			}
			s, err := NewWithConfig(g, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			ix, err := dynamic.New(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(fi + 11)))
			kinds := map[string]int{}
			for step := 0; step < 200; step++ {
				prev := s.gen.Load()
				kind, u, v := pickMutation(rng, prev.g, step)
				kinds[kind]++
				add := kind == "add" || kind == "noop" || kind == "self" || kind == "range"
				key := edgeKey(u, v)
				nextEdges := maps.Clone(edges)
				refused := u < 0 || v < 0 || int(u) >= n || int(v) >= n
				switch {
				case refused:
				case add && u != v:
					nextEdges[key] = true
				case !add && !edges[key]:
					refused = true
				case !add:
					delete(nextEdges, key)
				}
				want := buildEdges(n, nextEdges)
				refused = refused || !graph.IsConnected(want)
				if kind == "bridge" && !refused {
					t.Fatalf("step %d: {%d,%d} is no bridge", step, u, v)
				}
				w := edgeRequest(s, add, u, v)
				after := s.gen.Load()
				edit := ix.RemoveEdge
				if add {
					edit = ix.AddEdge
				}
				ierr := edit(u, v)
				if refused {
					if w.Code != http.StatusBadRequest || after.id != prev.id || ierr == nil {
						t.Fatalf("step %d %s {%d,%d}: want a refusal, server answered %d %s with generation %d -> %d, index %v",
							step, kind, u, v, w.Code, w.Body, prev.id, after.id, ierr)
					}
					continue
				}
				if w.Code != http.StatusOK || after.id != prev.id+1 || ierr != nil {
					t.Fatalf("step %d %s {%d,%d}: server answered %d %s with generation %d -> %d, index %v; want 200, +1 and nil",
						step, kind, u, v, w.Code, w.Body, prev.id, after.id, ierr)
				}
				var res edgeResult
				if err := json.NewDecoder(w.Body).Decode(&res); err != nil {
					t.Fatal(err)
				}
				gotOff, gotAdj := after.g.CSR()
				wantOff, wantAdj := want.CSR()
				if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) || res.Edges != want.NumEdges() {
					t.Fatalf("step %d %s {%d,%d}: served CSR (%d edges reported) differs from the edge set's", step, kind, u, v, res.Edges)
				}
				if err := after.g.Validate(); err != nil {
					t.Fatalf("step %d: served graph invalid: %v", step, err)
				}
				_, affected, err := bfs.EditEdge(prev.g, u, v, add)
				if err != nil || res.Affected != len(affected) || ix.UpdatedLast != len(affected) {
					t.Fatalf("step %d %s {%d,%d}: reported %d affected, index %d, EditEdge %d (%v)",
						step, kind, u, v, res.Affected, ix.UpdatedLast, len(affected), err)
				}
				ixOff, ixAdj := ix.Snapshot().CSR()
				if !slices.Equal(gotOff, ixOff) || !slices.Equal(gotAdj, ixAdj) {
					t.Fatalf("step %d %s {%d,%d}: the index's snapshot differs from the served CSR", step, kind, u, v)
				}
				before, now := bfs.ExactFarness(prev.g, 1), bfs.ExactFarness(after.g, 1)
				for x := range now {
					if now[x] != before[x] && !slices.Contains(affected, graph.NodeID(x)) {
						t.Fatalf("step %d %s {%d,%d}: node %d outside the affected set moved %v -> %v",
							step, kind, u, v, x, before[x], now[x])
					}
					if f := ix.Farness(graph.NodeID(x)); f != now[x] {
						t.Fatalf("step %d %s {%d,%d}: index farness of node %d is %v, exact %v", step, kind, u, v, x, f, now[x])
					}
				}
				edges = nextEdges
			}
			for _, k := range []string{"add", "remove", "noop", "self", "range", "missing", "bridge"} {
				if kinds[k] == 0 {
					t.Errorf("the sequence never exercised %q", k)
				}
			}
		})
	}
}

// edgeKey is the undirected edge {u, v} with its smaller endpoint first.
func edgeKey(u, v graph.NodeID) [2]graph.NodeID {
	return [2]graph.NodeID{min(u, v), max(u, v)}
}

// buildEdges builds the n-node graph of an edge set with graph.NewBuilder.
func buildEdges(n int, edges map[[2]graph.NodeID]bool) *graph.Graph {
	b := graph.NewBuilder(n)
	for e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// pickMutation draws one step of the differential sequence against the
// current graph g. Every tenth step is a special case in rotation (a no-op
// insert, a self loop, an out-of-range node, a missing-edge removal, a bridge
// removal); the rest are inserts of random non-adjacent pairs and removals of
// random edges, half each.
func pickMutation(rng *rand.Rand, g *graph.Graph, step int) (kind string, u, v graph.NodeID) {
	n := g.NumNodes()
	node := func() graph.NodeID { return graph.NodeID(rng.Intn(n)) }
	edge := func() (graph.NodeID, graph.NodeID) {
		for {
			x := node()
			if nb := g.Neighbors(x); len(nb) > 0 {
				return x, nb[rng.Intn(len(nb))]
			}
		}
	}
	nonEdge := func() (graph.NodeID, graph.NodeID) {
		for {
			if x, y := node(), node(); x != y && !g.HasEdge(x, y) {
				return x, y
			}
		}
	}
	if step%10 == 9 {
		switch (step / 10) % 5 {
		case 0:
			u, v = edge()
			return "noop", u, v
		case 1:
			u = node()
			return "self", u, u
		case 2:
			return "range", node(), graph.NodeID(n)
		case 3:
			u, v = nonEdge()
			return "missing", u, v
		default:
			for x := graph.NodeID(0); int(x) < n; x++ {
				if g.Degree(x) == 1 {
					return "bridge", x, g.Neighbors(x)[0]
				}
			}
		}
	}
	if rng.Intn(2) == 0 {
		u, v = nonEdge()
		return "add", u, v
	}
	u, v = edge()
	return "remove", u, v
}

// edgeRequest posts (add) or deletes the edge {u, v} through the handler.
func edgeRequest(s *Server, add bool, u, v graph.NodeID) *httptest.ResponseRecorder {
	if add {
		return doJSON(s, http.MethodPost, "/v1/edges", fmt.Sprintf(`{"u":%d,"v":%d}`, u, v))
	}
	return doJSON(s, http.MethodDelete, fmt.Sprintf("/v1/edges?u=%d&v=%d", u, v), "")
}

// TestLyingAssumeConnectedRefusesFirstMutation: a disconnected graph served
// under a false AssumeConnected flag answers requests, but its first edge
// mutation runs the skipped connectivity check and is refused, even one
// that would join the two components, and the generation stays at 1.
func TestLyingAssumeConnectedRefusesFirstMutation(t *testing.T) {
	g := graph.FromEdges(6, [][2]graph.NodeID{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	s, err := NewWithConfig(g, Config{Workers: 1, AssumeConnected: true})
	if err != nil {
		t.Fatalf("AssumeConnected must skip the constructor's check: %v", err)
	}
	t.Cleanup(s.Close)
	for _, body := range []string{`{"u":0,"v":2}`, `{"u":2,"v":3}`} {
		if w := doJSON(s, http.MethodPost, "/v1/edges", body); w.Code != http.StatusBadRequest {
			t.Fatalf("POST %s on a disconnected graph: %d %s, want 400", body, w.Code, w.Body)
		}
		if gen := statusOf(t, s).Generation; gen != 1 {
			t.Fatalf("generation %d after a refused mutation, want 1", gen)
		}
	}
	if w := doJSON(s, http.MethodDelete, "/v1/edges?u=0&v=1", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("DELETE on a disconnected graph: %d %s, want 400", w.Code, w.Body)
	}
}

// TestEstimateRunsCounter: /v1/status estimateRuns rises by exactly one per
// uncached estimate and not at all on a cache hit, while a lowered cache cap
// makes cacheEntries fall.
func TestEstimateRunsCounter(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	n := s.gen.Load().g.NumNodes()
	old := estimateCacheCap
	estimateCacheCap = int64(3 * 9 * n) // three results: 8 bytes of farness and 1 of exactness per node
	t.Cleanup(func() { estimateCacheCap = old })
	last := statusOf(t, s)
	fell := false
	for seed := 1; seed <= 8; seed++ {
		estimateOK(t, s, seed)
		st := statusOf(t, s)
		if st.EstimateRuns != last.EstimateRuns+1 {
			t.Fatalf("seed %d: estimateRuns %d -> %d, want +1", seed, last.EstimateRuns, st.EstimateRuns)
		}
		fell = fell || st.CacheEntries < last.CacheEntries
		estimateOK(t, s, seed)
		if again := statusOf(t, s); again.EstimateRuns != st.EstimateRuns {
			t.Fatalf("seed %d: a cached estimate moved estimateRuns %d -> %d", seed, st.EstimateRuns, again.EstimateRuns)
		}
		last = st
	}
	if !fell {
		t.Fatal("cacheEntries never fell; the cap did not bind")
	}
}
