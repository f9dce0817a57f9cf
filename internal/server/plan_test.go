package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/topk"
)

// statusOf reads /v1/status.
func statusOf(t *testing.T, s *Server) statusBody {
	t.Helper()
	w := doJSON(s, http.MethodGet, "/v1/status", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status endpoint: %d %s", w.Code, w.Body)
	}
	var b statusBody
	if err := json.NewDecoder(w.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// countPoint counts the hits of a fault point until the test ends; hold, when
// set, runs on every hit after counting it.
func countPoint(t *testing.T, point string, hold func(ctx context.Context) error) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	restore := fault.Set(point, func(ctx context.Context) error {
		n.Add(1)
		if hold != nil {
			return hold(ctx)
		}
		return nil
	})
	t.Cleanup(restore)
	return &n
}

// mutateOnce adds one edge from node 0, installing a fresh generation.
func mutateOnce(t *testing.T, s *Server) {
	t.Helper()
	for v := 200; v < 260; v++ {
		if w := doJSON(s, http.MethodPost, "/v1/edges", fmt.Sprintf(`{"u":0,"v":%d}`, v)); w.Code == http.StatusOK {
			return
		}
	}
	t.Fatal("no edge could be added")
}

func estimateOK(t *testing.T, s *Server, seed int) {
	t.Helper()
	if w := doJSON(s, http.MethodPost, "/v1/estimate", fmt.Sprintf(`{"techniques":"BRIC","fraction":0.3,"seed":%d}`, seed)); w.Code != http.StatusOK {
		t.Fatalf("estimate seed %d: %d %s", seed, w.Code, w.Body)
	}
}

// TestPlanOncePerGenerationAndMask: a generation builds one plan per
// technique mask ("core.reduce" fires once per build) and shares it between
// estimates with distinct seeds and a top-k; two concurrent first requests
// share one build; a canceled build is not kept; a mutation starts a
// generation with no plan.
func TestPlanOncePerGenerationAndMask(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	var gate atomic.Pointer[chan struct{}] // when set, a build waits for it to close
	builds := countPoint(t, "core.reduce", func(ctx context.Context) error {
		if g := gate.Load(); g != nil {
			select {
			case <-*g:
			case <-ctx.Done():
				return par.CtxErr(ctx)
			}
		}
		return nil
	})

	for seed := 1; seed <= 4; seed++ {
		estimateOK(t, s, seed)
	}
	if w := doJSON(s, http.MethodGet, "/v1/topk?k=5&techniques=BRIC&fraction=0.3&seed=9", ""); w.Code != http.StatusOK {
		t.Fatalf("topk: %d %s", w.Code, w.Body)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d plan builds for one mask in one generation, want 1", n)
	}
	if p := statusOf(t, s).Plans; len(p) != 1 || p[0] != "BRICS" {
		t.Fatalf("plans = %v, want [BRICS]", p)
	}

	mutateOnce(t, s)
	if p := statusOf(t, s).Plans; len(p) != 0 {
		t.Fatalf("plans after a mutation = %v, want none", p)
	}

	// Two first requests of the new generation, the build held until both
	// runs are in flight.
	held := make(chan struct{})
	gate.Store(&held)
	builds.Store(0)
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = doJSON(s, http.MethodPost, "/v1/estimate", fmt.Sprintf(`{"techniques":"BRIC","fraction":0.3,"seed":%d}`, 20+i)).Code
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); len(statusOf(t, s).Inflight) < 2; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the two requests never ran concurrently")
		}
	}
	time.Sleep(20 * time.Millisecond) // let the second run reach the plan
	close(held)
	wg.Wait()
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("concurrent first requests answered %v", codes)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("two concurrent first requests built %d plans, want 1", n)
	}

	// A build abandoned by its only request is dropped, and the next
	// request builds afresh.
	mutateOnce(t, s)
	stuck := make(chan struct{})
	gate.Store(&stuck)
	builds.Store(0)
	if w := doJSON(s, http.MethodPost, "/v1/estimate?timeout=100ms", `{"techniques":"BRIC","fraction":0.3,"seed":30}`); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("held build: %d %s, want 504", w.Code, w.Body)
	}
	for deadline := time.Now().Add(5 * time.Second); len(statusOf(t, s).Inflight) > 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned run never ended")
		}
	}
	if p := statusOf(t, s).Plans; len(p) != 0 {
		t.Fatalf("plans after a canceled build = %v, want none", p)
	}
	gate.Store(nil)
	estimateOK(t, s, 31)
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want the canceled one and one more", n)
	}
	if p := statusOf(t, s).Plans; len(p) != 1 {
		t.Fatalf("plans after the rebuild = %v, want one", p)
	}
}

// TestTopKReusesEstimateCache: /v1/topk takes its candidates through the
// estimate cache and flight. After an estimate, a top-k with the same
// parameters starts no run, and ranks exactly as a direct search; after a
// top-k, the estimate is a cache hit. With one admission slot the top-k still
// answers 200: it holds no slot while its candidate run has it.
func TestTopKReusesEstimateCache(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2, MaxInflight: 1})
	runs := countPoint(t, "server.estimate", nil)

	traversals := countPoint(t, "core.traverse", nil)
	estimateOK(t, s, 4)
	before, estimated := statusOf(t, s).CacheEntries, traversals.Load()
	w := doJSON(s, http.MethodGet, "/v1/topk?k=5&techniques=BRIC&fraction=0.3&seed=4", "")
	if w.Code != http.StatusOK {
		t.Fatalf("topk after estimate: %d %s", w.Code, w.Body)
	}
	if n := runs.Load(); n != 1 || traversals.Load() != estimated {
		t.Fatalf("topk after an identical estimate estimated again (%d runs, want 1)", n)
	}
	if after := statusOf(t, s).CacheEntries; after != before {
		t.Fatalf("cache entries %d → %d across a cached topk", before, after)
	}
	var served topkBody
	if err := json.NewDecoder(w.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	direct, err := topk.ClosenessContext(context.Background(), s.gen.Load().g, 5, topk.Options{Estimate: core.Options{
		Techniques: core.TechCumulative, SampleFraction: 0.3, Seed: 4, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(served.Nodes, served.Farness, served.Verified) != fmt.Sprint(direct.Nodes, direct.Farness, direct.Verified) {
		t.Fatalf("served topk %v %v (%d verified), direct %v %v (%d verified)",
			served.Nodes, served.Farness, served.Verified, direct.Nodes, direct.Farness, direct.Verified)
	}

	for seed := 5; seed < 10; seed++ {
		q := fmt.Sprintf("/v1/topk?k=5&techniques=BRIC&fraction=0.3&seed=%d", seed)
		if w := doJSON(s, http.MethodGet, q, ""); w.Code != http.StatusOK {
			t.Fatalf("topk seed %d with one slot: %d %s", seed, w.Code, w.Body)
		}
		n := runs.Load()
		estimateOK(t, s, seed)
		if runs.Load() != n {
			t.Fatalf("estimate after a topk with seed %d was not a cache hit", seed)
		}
	}
}

// TestEstimateCacheBounded: estimates with distinct seeds keep the cached
// bytes within the cap (the cache clears wholesale when an insert would pass
// it), and the newest result always stays served.
func TestEstimateCacheBounded(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	n := s.gen.Load().g.NumNodes()
	old := estimateCacheCap
	estimateCacheCap = int64(3 * 9 * n) // three results: 8 bytes of farness and 1 of exactness per node
	t.Cleanup(func() { estimateCacheCap = old })
	runs := countPoint(t, "server.estimate", nil)
	for seed := 1; seed <= 10; seed++ {
		estimateOK(t, s, seed)
		gen := s.gen.Load()
		gen.mu.Lock()
		bytes, entries := gen.cacheBytes, len(gen.cache)
		gen.mu.Unlock()
		if bytes > estimateCacheCap || entries > 3 {
			t.Fatalf("after seed %d: %d entries, %d bytes (cap %d)", seed, entries, bytes, estimateCacheCap)
		}
		r := runs.Load()
		if w := doJSON(s, http.MethodGet, fmt.Sprintf("/v1/farness/0?techniques=BRIC&fraction=0.3&seed=%d", seed), ""); w.Code != http.StatusOK {
			t.Fatalf("farness seed %d: %d", seed, w.Code)
		}
		if runs.Load() != r {
			t.Fatalf("the newest result (seed %d) was not served from the cache", seed)
		}
	}
	if runs.Load() != 10 {
		t.Fatalf("%d runs for 10 distinct seeds", runs.Load())
	}
}
