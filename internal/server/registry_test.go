package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/bincsr"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

// writeArtifacts builds one connected artifact per name into dir and returns
// id → path.
func writeArtifacts(t *testing.T, dir string, n int, names ...string) map[string]string {
	t.Helper()
	paths := make(map[string]string)
	for i, name := range names {
		g := graph.Connect(gen.Community(n, int64(i+1)))
		p := filepath.Join(dir, name+".bricsbin")
		if err := bincsr.WriteFile(p, g, bincsr.FlagConnected); err != nil {
			t.Fatalf("WriteFile %s: %v", name, err)
		}
		paths[name] = p
	}
	return paths
}

func newTestRegistry(t *testing.T, cfg RegistryConfig, names ...string) (*Registry, *httptest.Server) {
	t.Helper()
	paths := writeArtifacts(t, t.TempDir(), 300, names...)
	r, err := NewRegistry(paths, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r)
	t.Cleanup(func() { ts.Close(); r.Close() })
	return r, ts
}

func TestRegistryRoutesAndLazyLoad(t *testing.T) {
	r, ts := newTestRegistry(t, RegistryConfig{}, "alpha", "beta")

	// Nothing loads at construction or for /healthz and /graphs.
	code, body := httpDo(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", "")
	if code != 200 {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	var st registryStatus
	code, body = httpDo(t, ts.Client(), http.MethodGet, ts.URL+"/graphs", "")
	if code != 200 {
		t.Fatalf("/graphs: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Graphs) != 2 || st.Graphs[0].Loaded || st.Graphs[1].Loaded {
		t.Fatalf("graphs loaded before any request: %+v", st.Graphs)
	}
	if st.DefaultGraph != "alpha" {
		t.Fatalf("default %q, want alpha (lexicographic)", st.DefaultGraph)
	}

	// A per-graph route loads exactly that graph.
	var gb graphBody
	code, body = httpDo(t, ts.Client(), http.MethodGet, ts.URL+"/graphs/beta/v1/graph", "")
	if code != 200 {
		t.Fatalf("/graphs/beta/v1/graph: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &gb); err != nil || gb.Nodes == 0 {
		t.Fatalf("bad graph body %s: %v", body, err)
	}
	if got := loadedIDs(r); len(got) != 1 || got[0] != "beta" {
		t.Fatalf("loaded %v, want [beta]", got)
	}

	// Legacy routes hit the default graph.
	code, _ = httpDo(t, ts.Client(), http.MethodGet, ts.URL+"/v1/graph", "")
	if code != 200 {
		t.Fatalf("legacy /v1/graph: %d", code)
	}
	if got := loadedIDs(r); len(got) != 2 {
		t.Fatalf("loaded %v, want both", got)
	}

	// Unknown ids 404 on both route shapes.
	if code, _ = httpDo(t, ts.Client(), http.MethodGet, ts.URL+"/graphs/nope/v1/graph", ""); code != 404 {
		t.Fatalf("unknown graph: %d", code)
	}
	if code, _ = httpDo(t, ts.Client(), http.MethodGet, ts.URL+"/graphs/nope", ""); code != 404 {
		t.Fatalf("unknown graph info: %d", code)
	}

	// /v1/status carries the registry block and the default graph's state.
	var sb registryStatusBody
	code, body = httpDo(t, ts.Client(), http.MethodGet, ts.URL+"/v1/status", "")
	if code != 200 {
		t.Fatalf("/v1/status: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Graph != "alpha" || sb.Nodes == 0 || len(sb.Registry.Graphs) != 2 {
		t.Fatalf("merged status: %s", body)
	}
	if !sb.Registry.Graphs[0].Mapped && isLinux() {
		t.Fatalf("expected a true mapping on linux: %+v", sb.Registry.Graphs[0])
	}
}

func isLinux() bool { return os.Getenv("GOOS") == "linux" || fileExists("/proc/self/maps") }

func fileExists(p string) bool { _, err := os.Stat(p); return err == nil }

func loadedIDs(r *Registry) []string {
	var out []string
	for _, row := range r.status().Graphs {
		if row.Loaded {
			out = append(out, row.ID)
		}
	}
	return out
}

func TestRegistryEstimateAndMutatePerGraph(t *testing.T) {
	_, ts := newTestRegistry(t, RegistryConfig{}, "a", "b")
	// Estimate on graph a.
	code, body := httpDo(t, ts.Client(), http.MethodPost, ts.URL+"/graphs/a/v1/estimate",
		`{"techniques":"C","fraction":1.0,"seed":1}`)
	if code != 200 {
		t.Fatalf("estimate a: %d %s", code, body)
	}
	// Mutate graph b: its generation advances, a's does not.
	code, body = httpDo(t, ts.Client(), http.MethodPost, ts.URL+"/graphs/b/v1/edges", `{"u":0,"v":7}`)
	if code != 200 && code != 400 { // 400 if the edge already exists
		t.Fatalf("edge insert b: %d %s", code, body)
	}
	var sa, sb statusBody
	_, ba := httpDo(t, ts.Client(), http.MethodGet, ts.URL+"/graphs/a/v1/status", "")
	_, bb := httpDo(t, ts.Client(), http.MethodGet, ts.URL+"/graphs/b/v1/status", "")
	if err := json.Unmarshal(ba, &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bb, &sb); err != nil {
		t.Fatal(err)
	}
	if sa.Generation != 1 {
		t.Fatalf("graph a generation %d, want 1 (untouched)", sa.Generation)
	}
	if code == 200 && sb.Generation != 2 {
		t.Fatalf("graph b generation %d after mutation, want 2", sb.Generation)
	}
	if sa.CacheEntries != 1 {
		t.Fatalf("graph a cache entries %d, want 1 (per-graph cache)", sa.CacheEntries)
	}
}

// TestKernelPanicFailsOneRequest: a panic inside a traversal kernel, raised
// on a par pool worker rather than the request's goroutine, answers that one
// request 500; the next request, on another graph, is answered in full. At
// fraction 1 with no reduction every node is a source of one traversal
// unit, so two workers share its 64-lane sweeps.
func TestKernelPanicFailsOneRequest(t *testing.T) {
	paths := writeArtifacts(t, t.TempDir(), 300, "a", "b")
	r, err := NewRegistry(paths, RegistryConfig{Server: Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r)
	t.Cleanup(func() { ts.Close(); r.Close() })
	t.Cleanup(fault.Clear)
	const params = `{"techniques":"S","fraction":1,"seed":1}`

	restore := fault.Set("bfs.batch", fault.Panic("batched kernel crashed"))
	code, body := httpDo(t, ts.Client(), http.MethodPost, ts.URL+"/graphs/a/v1/estimate", params)
	restore()
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "batched kernel crashed") {
		t.Fatalf("estimate with a crashing kernel: %d %s, want 500 naming the panic", code, body)
	}

	art, err := bincsr.ReadFile(paths["b"])
	if err != nil {
		t.Fatal(err)
	}
	want := bfs.ExactFarness(art.G, 1)
	code, body = httpDo(t, ts.Client(), http.MethodPost, ts.URL+"/graphs/b/v1/estimate", params)
	if code != http.StatusOK {
		t.Fatalf("estimate on graph b after the crash: %d %s", code, body)
	}
	var est estimateBody
	if err := json.Unmarshal(body, &est); err != nil {
		t.Fatal(err)
	}
	if est.Nodes != len(want) || est.ExactCount != len(want) {
		t.Fatalf("graph b: %d nodes, %d exact; want all %d exact", est.Nodes, est.ExactCount, len(want))
	}
	for v := range want {
		code, body := httpDo(t, ts.Client(), http.MethodGet,
			fmt.Sprintf("%s/graphs/b/v1/farness/%d?techniques=S&fraction=1&seed=1", ts.URL, v), "")
		var fb farnessBody
		if code != http.StatusOK || json.Unmarshal(body, &fb) != nil {
			t.Fatalf("farness %d: %d %s", v, code, body)
		}
		if fb.Farness != want[v] || !fb.Exact {
			t.Fatalf("farness[%d] = %v (exact %v), oracle %v", v, fb.Farness, fb.Exact, want[v])
		}
	}
}

func TestRegistryEvictionAndReload(t *testing.T) {
	// Budget fits either artifact alone but never both, so every switch of
	// graphs evicts the idle one.
	paths := writeArtifacts(t, t.TempDir(), 300, "a", "b")
	sizeA, sizeB := artifactSize(t, paths["a"]), artifactSize(t, paths["b"])
	r, err := NewRegistry(paths, RegistryConfig{MaxResidentBytes: sizeA + sizeB - 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ts := httptest.NewServer(r)
	defer ts.Close()

	get := func(id string) {
		code, body := httpDo(t, ts.Client(), http.MethodGet, ts.URL+"/graphs/"+id+"/v1/graph", "")
		if code != 200 {
			t.Fatalf("graph %s: %d %s", id, code, body)
		}
	}
	get("a")
	get("b") // loading b pushes past budget → a (idle, LRU) is evicted
	st := r.status()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1; status %+v", st.Evictions, st)
	}
	if got := loadedIDs(r); len(got) != 1 || got[0] != "b" {
		t.Fatalf("loaded %v, want [b]", got)
	}
	if st.ResidentBytes != sizeB {
		t.Fatalf("resident %d, want %d", st.ResidentBytes, sizeB)
	}
	get("a") // reload after eviction must serve correctly
	for _, row := range r.status().Graphs {
		if row.ID == "a" && row.Loads != 2 {
			t.Fatalf("graph a loads = %d, want 2 (load + reload)", row.Loads)
		}
	}
}

// TestRegistryEvictsOnRelease: a graph that loads while every other
// resident graph is referenced can evict nothing, so the registry runs over
// budget. The first release must bring it back under: three graphs held on a
// budget that fits any two, then released, end with exactly one eviction.
func TestRegistryEvictsOnRelease(t *testing.T) {
	names := []string{"a", "b", "c"}
	paths := writeArtifacts(t, t.TempDir(), 300, names...)
	var total, smallest int64
	for _, id := range names {
		sz := artifactSize(t, paths[id])
		total += sz
		if smallest == 0 || sz < smallest {
			smallest = sz
		}
	}
	r, err := NewRegistry(paths, RegistryConfig{MaxResidentBytes: total - smallest/2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	held := make([]*regEntry, 0, len(names))
	for _, id := range names {
		e, err := r.acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, e)
	}
	if st := r.status(); st.Evictions != 0 || st.ResidentBytes != total {
		t.Fatalf("while held: evictions %d, resident %d; want 0, %d", st.Evictions, st.ResidentBytes, total)
	}
	for _, e := range held {
		r.release(e)
	}
	st := r.status()
	if st.Evictions != 1 {
		t.Fatalf("evictions after release = %d, want 1; status %+v", st.Evictions, st)
	}
	if st.ResidentBytes > st.MaxResidentBytes {
		t.Fatalf("resident %d still over budget %d", st.ResidentBytes, st.MaxResidentBytes)
	}
	if got := loadedIDs(r); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("loaded %v, want [b c] (a was released first, so it is evicted)", got)
	}
}

func artifactSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestChaosRegistryEvictionUnderFire hammers a tight-budget registry from
// many goroutines that keep switching between graphs — every request races
// load, eviction and reload of the graph it targets — with long-running
// estimates mixed in so detached run goroutines are alive while their graph
// becomes an eviction candidate. Invariants: no crash (munmap-after-drain is
// what keeps traversals off freed memory; a violation is a SIGSEGV, not a
// test failure message), every response is a legal status, and afterwards
// every graph still answers exactly and correctly.
func TestChaosRegistryEvictionUnderFire(t *testing.T) {
	names := []string{"g0", "g1", "g2", "g3"}
	paths := writeArtifacts(t, t.TempDir(), 300, names...)
	one := artifactSize(t, paths["g0"])
	r, err := NewRegistry(paths, RegistryConfig{
		// Room for ~2 graphs: constant eviction pressure with 4 in rotation.
		MaxResidentBytes: 2*one + one/2,
		Server:           Config{MaxInflight: 2, DefaultTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ts := httptest.NewServer(r)
	defer ts.Close()

	var wg sync.WaitGroup
	var reqs, evictionsSeen atomic.Int64
	deadline := time.Now().Add(3 * time.Second)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			client := ts.Client()
			for time.Now().Before(deadline) {
				id := names[rng.Intn(len(names))]
				var code int
				var body []byte
				switch rng.Intn(4) {
				case 0:
					code, body = httpDo(t, client, http.MethodPost,
						fmt.Sprintf("%s/graphs/%s/v1/estimate?timeout=500ms", ts.URL, id),
						`{"techniques":"C","fraction":1.0,"seed":1}`)
				case 1:
					code, body = httpDo(t, client, http.MethodGet,
						fmt.Sprintf("%s/graphs/%s/v1/distance?from=0&to=5", ts.URL, id), "")
				case 2:
					code, body = httpDo(t, client, http.MethodGet,
						fmt.Sprintf("%s/graphs/%s/v1/graph", ts.URL, id), "")
				default:
					code, body = httpDo(t, client, http.MethodGet, ts.URL+"/v1/status", "")
				}
				reqs.Add(1)
				switch code {
				case 200, 429, 503, 504:
					// Legal under overload/draining.
				default:
					t.Errorf("illegal status %d: %s", code, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	evictionsSeen.Store(r.status().Evictions)
	if evictionsSeen.Load() == 0 {
		t.Fatalf("chaos run drove no evictions (%d requests) — budget not exercised", reqs.Load())
	}

	// Aftermath: every graph answers an exact estimate with correct shape.
	for _, id := range names {
		code, body := httpDo(t, ts.Client(), http.MethodPost,
			fmt.Sprintf("%s/graphs/%s/v1/estimate", ts.URL, id),
			`{"techniques":"C","fraction":1.0,"seed":7}`)
		if code != 200 {
			t.Fatalf("aftermath estimate %s: %d %s", id, code, body)
		}
		var eb estimateBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Partial || eb.Nodes == 0 {
			t.Fatalf("aftermath %s: partial or empty: %s", id, body)
		}
	}
	t.Logf("chaos: %d requests, %d evictions", reqs.Load(), evictionsSeen.Load())
}

func TestRegistryCloseDrains(t *testing.T) {
	r, ts := newTestRegistry(t, RegistryConfig{}, "solo")
	// Kick off a slow estimate whose waiter gives up, leaving the detached
	// run alive, then Close: it must return only after the run drains.
	code, _ := httpDo(t, ts.Client(), http.MethodPost,
		ts.URL+"/graphs/solo/v1/estimate?timeout=50ms", `{"techniques":"BRIC","fraction":1.0,"seed":3}`)
	if code != 200 && code != 503 && code != 504 {
		t.Fatalf("estimate: %d", code)
	}
	r.Close()
	if code, _ := httpDo(t, ts.Client(), http.MethodGet, ts.URL+"/graphs/solo/v1/graph", ""); code != 503 {
		t.Fatalf("post-close request: %d, want 503", code)
	}
}
