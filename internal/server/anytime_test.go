package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

// slowFlight intercepts the next estimation flight at its entry checkpoint,
// installs a per-source delay on its progress tracker (throttling the run so
// deadlines land mid-flight, deterministically under any scheduler), and
// releases it. Returns after the throttle is installed.
func slowFlight(t *testing.T, s *Server, perSource time.Duration) {
	t.Helper()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	restore := fault.Set("server.estimate", func(ctx context.Context) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	})
	t.Cleanup(restore)
	go func() {
		<-entered
		// The flight is registered (trackRun precedes the run goroutine) and
		// parked before EstimateContext, so its Progress is not yet in use.
		var f *flight
		for f == nil {
			s.runsMu.Lock()
			for ff := range s.runs {
				f = ff
			}
			s.runsMu.Unlock()
			if f == nil {
				time.Sleep(time.Millisecond)
			}
		}
		f.prog.OnAdvance = func(int64, int64) { time.Sleep(perSource) }
		close(release)
	}()
}

func decodeEstimate(t *testing.T, w *httptest.ResponseRecorder) estimateBody {
	t.Helper()
	var b estimateBody
	if err := json.NewDecoder(w.Body).Decode(&b); err != nil {
		t.Fatalf("bad estimate body: %v", err)
	}
	return b
}

// TestDegradeAcceptSoftDeadlineSnapshot: a degrade=accept request whose soft
// deadline lands mid-run is answered from a snapshot of the run so far —
// 200, partial, with proven mean bounds around the estimate. A sweep of up
// to 64 sources completes as a whole, so the one-block RIC run samples
// every one of the 270 reduced nodes: five sweeps, the soft deadline landing
// in the first one's completions. The multi-block BRIC run (gen.Web(400,
// 5), fraction 0.2) plans 20 sources: the 2 cuts in one-lane sweeps of
// their own, then block 0's 18 drawn sources in one sweep. At 200ms per
// completion its soft deadline, 300ms in, lands after both cut sweeps and
// before the drawn one, so its snapshot has the 2 cut rows.
func TestDegradeAcceptSoftDeadlineSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		perSource time.Duration
		body      string
		minBlocks int
	}{
		{"one-block", gen.Community(400, 5), 10 * time.Millisecond, `{"seed":500,"techniques":"RIC","fraction":1}`, 0},
		{"multi-block", gen.Web(400, 5), 200 * time.Millisecond, `{"seed":510,"techniques":"BRIC","fraction":0.2}`, 2},
	} {
		s := newServerOn(t, tc.g, Config{Workers: 1, SoftMargin: 100 * time.Millisecond})
		slowFlight(t, s, tc.perSource)
		w := doJSON(s, http.MethodPost, "/v1/estimate?timeout=400ms&degrade=accept", tc.body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200; body %s", tc.name, w.Code, w.Body)
		}
		b := decodeEstimate(t, w)
		if !b.Partial || b.Blocks < tc.minBlocks {
			t.Fatalf("%s: degraded answer not a partial of the plan: %+v", tc.name, b)
		}
		if b.Completed <= 0 || b.Completed >= b.Planned {
			t.Fatalf("%s: implausible snapshot progress %d/%d", tc.name, b.Completed, b.Planned)
		}
		if b.Progress <= 0 || b.Progress >= 1 {
			t.Fatalf("%s: progress %v out of (0,1)", tc.name, b.Progress)
		}
		if b.MeanLow > b.MeanFarness || b.MeanFarness > b.MeanHigh {
			t.Fatalf("%s: mean %v outside its bounds [%v, %v]", tc.name, b.MeanFarness, b.MeanLow, b.MeanHigh)
		}
	}
}

// TestDegradeAcceptHardDeadlinePartial: with no soft window (margin wider
// than the deadline) the accepting waiter leaves at the hard deadline, the
// cancel propagates, and the waiter serves a snapshot built then — still
// 200, still flagged. The multi-block BRIC inputs offer a snapshot once
// every cut sweep has landed. At fraction 0.05 one plans 6 sources in three
// sweeps: the 2 cuts in one-lane sweeps of their own (one per block), then
// block 0's 4 drawn sources in one sweep; at 150ms per completion the
// deadline lands while the second cut completes, so the drawn sweep never
// runs and 2 of 6 sources are in the snapshot. At fraction 0.2 it plans 20,
// the same two cut sweeps ahead of block 0's 18 drawn sources, so at 200ms
// each the deadline lands between the second cut and the drawn sweep. The
// one-block input samples all 270 reduced nodes, five sweeps of whole
// completions, so at 2ms per completion the deadline lands in the second.
func TestDegradeAcceptHardDeadlinePartial(t *testing.T) {
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		perSource time.Duration
		timeout   string
		body      string
		minBlocks int
	}{
		{"one-block", gen.Community(400, 5), 2 * time.Millisecond, "200ms", `{"seed":510,"techniques":"RIC","fraction":1}`, 0},
		{"cumulative", gen.Web(400, 5), 150 * time.Millisecond, "220ms", `{"seed":510,"techniques":"BRIC","fraction":0.05}`, 2},
		{"cumulative-batched", gen.Web(400, 5), 200 * time.Millisecond, "300ms", `{"seed":510,"techniques":"BRIC","fraction":0.2}`, 2},
	} {
		s := newServerOn(t, tc.g, Config{Workers: 1}) // default SoftMargin 500ms > timeout
		slowFlight(t, s, tc.perSource)
		w := doJSON(s, http.MethodPost, "/v1/estimate?timeout="+tc.timeout+"&degrade=accept", tc.body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200; body %s", tc.name, w.Code, w.Body)
		}
		b := decodeEstimate(t, w)
		if !b.Partial || b.Completed <= 0 || b.Completed >= b.Planned || b.Blocks < tc.minBlocks {
			t.Fatalf("%s: bad hard-deadline partial: %+v", tc.name, b)
		}
	}
}

// TestPartialNeverCached: after a degraded answer, the next identical request
// must run fresh and produce the exact (non-partial) result. The run samples
// all 270 reduced nodes in five sweeps, so the soft deadline lands while
// the first sweep's completions are counted, well before the traversal
// ends.
func TestPartialNeverCached(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	slowFlight(t, s, 5*time.Millisecond)
	w := doJSON(s, http.MethodPost, "/v1/estimate?timeout=250ms&degrade=accept", `{"seed":520,"techniques":"RIC","fraction":1}`)
	if w.Code != http.StatusOK || !decodeEstimate(t, w).Partial {
		t.Fatalf("setup: expected partial 200, got %d %s", w.Code, w.Body)
	}
	gen := s.gen.Load()
	gen.mu.Lock()
	cached := len(gen.cache)
	gen.mu.Unlock()
	if cached != 0 {
		t.Fatalf("partial result entered the estimate cache (%d entries)", cached)
	}
	// Same key, generous deadline: a fresh, full run.
	w = doJSON(s, http.MethodPost, "/v1/estimate?timeout=30s&degrade=accept", `{"seed":520,"techniques":"RIC","fraction":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("full rerun: %d %s", w.Code, w.Body)
	}
	if b := decodeEstimate(t, w); b.Partial {
		t.Fatalf("second run served a partial as if cached: %+v", b)
	}
	gen.mu.Lock()
	cached = len(gen.cache)
	gen.mu.Unlock()
	if cached != 1 {
		t.Fatalf("full result not cached (%d entries)", cached)
	}
}

// TestDegradeRejectStaysExactOrError: the default policy times out with 504
// rather than serving a partial.
func TestDegradeRejectStaysExactOrError(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	slowFlight(t, s, 5*time.Millisecond)
	w := doJSON(s, http.MethodPost, "/v1/estimate?timeout=200ms&degrade=reject", `{"seed":530,"techniques":"RIC"}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body)
	}
	if strings.Contains(w.Body.String(), `"partial":true`) {
		t.Fatalf("reject waiter saw partial data: %s", w.Body)
	}
}

// TestDegradeRejectPartialFlightIs503: a reject waiter whose shared flight
// degrades under it (server drain interrupts the run after progress was made)
// gets 503 + Retry-After, never the partial payload. The run plans five
// sweeps, so the drain lands after the first and before the traversal ends.
func TestDegradeRejectPartialFlightIs503(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	slowFlight(t, s, 5*time.Millisecond)
	respCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		respCh <- doJSON(s, http.MethodPost, "/v1/estimate?timeout=30s&degrade=reject", `{"seed":540,"techniques":"RIC","fraction":1}`)
	}()
	// Let the throttled run bank some sources, then drain the server.
	time.Sleep(150 * time.Millisecond)
	s.Close()
	w := <-respCh
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
}

// TestDegradeAcceptDrainServesPartial: the same drain, on the same
// five-sweep plan, but an accepting waiter keeps the partial the interrupted
// run assembled.
func TestDegradeAcceptDrainServesPartial(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	slowFlight(t, s, 5*time.Millisecond)
	respCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		respCh <- doJSON(s, http.MethodPost, "/v1/estimate?timeout=30s&degrade=accept", `{"seed":550,"techniques":"RIC","fraction":1}`)
	}()
	time.Sleep(150 * time.Millisecond)
	s.Close()
	w := <-respCh
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", w.Code, w.Body)
	}
	if b := decodeEstimate(t, w); !b.Partial || b.Completed <= 0 {
		t.Fatalf("drained accept waiter got %+v, want a partial with progress", b)
	}
}

// TestFarnessPartialBounds: the per-node endpoint carries the node's own
// proven bounds on a degraded answer (every node sampled, for several
// sweeps, as in TestDegradeAcceptSoftDeadlineSnapshot).
func TestFarnessPartialBounds(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1, SoftMargin: 100 * time.Millisecond})
	slowFlight(t, s, 10*time.Millisecond)
	w := doJSON(s, http.MethodGet, "/v1/farness/3?timeout=400ms&degrade=accept&seed=560&techniques=RIC&fraction=1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", w.Code, w.Body)
	}
	var b farnessBody
	if err := json.NewDecoder(w.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !b.Partial {
		t.Fatalf("degraded farness not marked partial: %+v", b)
	}
	if b.Low == nil || b.High == nil {
		t.Fatal("partial farness missing bounds")
	}
	if *b.Low > b.Farness || b.Farness > *b.High {
		t.Fatalf("farness %v outside its bounds [%v, %v]", b.Farness, *b.Low, *b.High)
	}
	if b.Progress <= 0 || b.Progress >= 1 {
		t.Fatalf("progress %v out of (0,1)", b.Progress)
	}
}

// TestDegradeValidation: an unknown degrade value is a 400.
func TestDegradeValidation(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	w := doJSON(s, http.MethodPost, "/v1/estimate?degrade=maybe", `{}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", w.Code, w.Body)
	}
}

// TestStatusEndpoint: /v1/status reports the generation id, in-flight runs
// with live progress fractions, and never blocks behind an estimation.
func TestStatusEndpoint(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	readStatus := func() statusBody {
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
	b := readStatus()
	if !b.Ready || b.Generation != 1 || b.Nodes == 0 || len(b.Inflight) != 0 {
		t.Fatalf("idle status: %+v", b)
	}

	// Hold a throttled run mid-flight and observe it.
	slowFlight(t, s, 5*time.Millisecond)
	respCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		respCh <- doJSON(s, http.MethodPost, "/v1/estimate?timeout=10s", `{"seed":570}`)
	}()
	deadline := time.Now().Add(2 * time.Second)
	var seen bool
	for time.Now().Before(deadline) {
		b = readStatus()
		if len(b.Inflight) == 1 && b.Inflight[0].Completed > 0 {
			run := b.Inflight[0]
			if run.Planned <= 0 || run.Progress <= 0 || run.Progress > 1 || run.Generation != 1 || run.Key == "" {
				t.Fatalf("inflight run status: %+v", run)
			}
			seen = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !seen {
		t.Fatal("in-flight run never appeared in /v1/status with progress")
	}
	if w := <-respCh; w.Code != http.StatusOK {
		t.Fatalf("held run finished with %d %s", w.Code, w.Body)
	}
	b = readStatus()
	if len(b.Inflight) != 0 || b.CacheEntries != 1 || b.MedianRunMillis <= 0 {
		t.Fatalf("post-run status: %+v", b)
	}

	// A mutation bumps the generation id.
	for v := 200; v < 220; v++ {
		if w := doJSON(s, http.MethodPost, "/v1/edges", `{"u":0,"v":`+itoa(v)+`}`); w.Code == http.StatusOK {
			break
		}
	}
	if b = readStatus(); b.Generation != 2 || b.CacheEntries != 0 {
		t.Fatalf("post-mutation status: %+v", b)
	}
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}
