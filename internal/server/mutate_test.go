package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestMutationsMatchDynamicIndex drives a seeded sequence of edge inserts
// and removals through the HTTP handler on one graph of each generator
// family, with the exact incremental index of internal/dynamic applying the
// same sequence as the oracle. After every step the two agree on the
// outcome. A 200 must report the oracle's affected-set size and edge count
// and serve a generation whose CSR equals the oracle's snapshot array for
// array. A 400 must leave the generation unchanged. The sequence mixes real
// inserts and removals with no-op inserts of existing edges, self loops,
// out-of-range nodes, removals of missing edges and refused removals of
// bridges.
func TestMutationsMatchDynamicIndex(t *testing.T) {
	families := []struct {
		name string
		gen  func(int, int64) *graph.Graph
	}{
		{"web", gen.Web}, {"social", gen.Social}, {"community", gen.Community}, {"road", gen.Road},
	}
	for fi, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			g := fam.gen(150, int64(fi+1))
			oracle, err := dynamic.New(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewWithConfig(g, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			rng := rand.New(rand.NewSource(int64(fi + 11)))
			kinds := map[string]int{}
			for step := 0; step < 200; step++ {
				snap := oracle.Snapshot()
				kind, u, v := pickMutation(rng, snap, step)
				kinds[kind]++
				add := kind == "add" || kind == "noop" || kind == "self" || kind == "range"
				var oerr error
				if add {
					oerr = oracle.AddEdge(u, v)
				} else {
					oerr = oracle.RemoveEdge(u, v)
				}
				if kind == "bridge" && oerr == nil {
					t.Fatalf("step %d: oracle removed the bridge {%d,%d}", step, u, v)
				}
				before := s.gen.Load().id
				w := edgeRequest(s, add, u, v)
				after := s.gen.Load()
				if oerr != nil {
					if w.Code != http.StatusBadRequest || after.id != before {
						t.Fatalf("step %d %s {%d,%d}: oracle refused (%v), server answered %d %s with generation %d -> %d",
							step, kind, u, v, oerr, w.Code, w.Body, before, after.id)
					}
					continue
				}
				if w.Code != http.StatusOK || after.id != before+1 {
					t.Fatalf("step %d %s {%d,%d}: server answered %d %s with generation %d -> %d, want 200 and +1",
						step, kind, u, v, w.Code, w.Body, before, after.id)
				}
				var res edgeResult
				if err := json.NewDecoder(w.Body).Decode(&res); err != nil {
					t.Fatal(err)
				}
				want := oracle.Snapshot()
				if res.Affected != oracle.UpdatedLast || res.Edges != want.NumEdges() {
					t.Fatalf("step %d %s {%d,%d}: got %+v, oracle affected %d edges %d",
						step, kind, u, v, res, oracle.UpdatedLast, want.NumEdges())
				}
				gotOff, gotAdj := after.g.CSR()
				wantOff, wantAdj := want.CSR()
				if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
					t.Fatalf("step %d %s {%d,%d}: served CSR differs from the oracle's snapshot", step, kind, u, v)
				}
				if err := after.g.Validate(); err != nil {
					t.Fatalf("step %d: served graph invalid: %v", step, err)
				}
			}
			for _, k := range []string{"add", "remove", "noop", "self", "range", "missing", "bridge"} {
				if kinds[k] == 0 {
					t.Errorf("the sequence never exercised %q", k)
				}
			}
		})
	}
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
