package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// The chaos suite drives a live bricsd (a real HTTP listener, real client
// connections) through overload, injected faults and mutation churn, and
// asserts the invariants the rest of this package promises one at a time:
// every response is a legal status with a parseable body, partial results
// are flagged and never cached or served as exact, generation ids stay
// consistent across (possibly failing) mutations, and drain terminates.
// Run it under -race; `make chaos` and the CI chaos job do.

// httpDo issues one request against a live test server and returns the
// status code and body. A transport error is a test failure — the server
// must always answer, however degraded.
func httpDo(t *testing.T, client *http.Client, method, url, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("build %s %s: %v", method, url, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: transport error: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	return resp.StatusCode, b
}

// TestChaosStormSurvivesOverloadAndFaults floods a live server with a mixed
// workload — estimates under tight deadlines with both degrade policies,
// top-k and per-node reads, status polls, edge mutations — while a seeded
// fault plan stalls flight entries, crashes two traversals, and fails some
// mutations. Invariants: every response has a legal status and a JSON body,
// observed generation ids never move backwards, the injected panics are
// contained to their runs, and afterwards the server serves a clean exact
// answer.
func TestChaosStormSurvivesOverloadAndFaults(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2, MaxInflight: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	errInjected := errors.New("chaos: mutation refused")
	plan := &fault.Plan{
		Seed: 42,
		Rules: []fault.Rule{
			{Point: "server.estimate", Prob: 0.5, Delay: 30 * time.Millisecond},
			{Point: "core.traverse", After: 1, Count: 2, Panic: "chaos: traversal crashed"},
			{Point: "server.mutate", Prob: 0.3, Err: errInjected},
		},
	}
	restore := plan.Install()
	defer restore()

	legal := func(kind string) map[int]bool {
		switch kind {
		case "estimate":
			return map[int]bool{200: true, 429: true, 500: true, 503: true, 504: true}
		case "edges":
			return map[int]bool{200: true, 400: true}
		default: // status, graph, distance
			return map[int]bool{200: true}
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	report := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	check := func(kind, what string, code int, body []byte) {
		if !legal(kind)[code] {
			report("%s: illegal status %d (body %s)", what, code, body)
			return
		}
		var v map[string]any
		if err := json.Unmarshal(body, &v); err != nil {
			report("%s: status %d with unparseable body %q: %v", what, code, body, err)
		}
	}

	// Estimators: distinct keys so runs actually fan out, tight deadlines,
	// alternating degrade policy.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				degrade := "accept"
				if (w+i)%2 == 0 {
					degrade = "reject"
				}
				timeout := []string{"75ms", "150ms", "400ms", "2s"}[i%4]
				url := fmt.Sprintf("%s/v1/estimate?timeout=%s&degrade=%s", ts.URL, timeout, degrade)
				body := fmt.Sprintf(`{"seed":%d,"techniques":"RIC"}`, 700+w*8+i)
				code, b := httpDo(t, client, http.MethodPost, url, body)
				check("estimate", fmt.Sprintf("estimator %d req %d", w, i), code, b)
				// A degraded 200 must carry honest progress accounting.
				if code == 200 {
					var eb estimateBody
					if json.Unmarshal(b, &eb) == nil && eb.Partial {
						if eb.Completed <= 0 || eb.Completed > eb.Planned {
							report("estimator %d req %d: partial with progress %d/%d", w, i, eb.Completed, eb.Planned)
						}
					}
				}
			}
		}(w)
	}
	// Read-side pressure: farness and top-k share the estimation stack.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			code, b := httpDo(t, client, http.MethodGet,
				fmt.Sprintf("%s/v1/farness/%d?timeout=300ms&degrade=accept&seed=%d&techniques=RIC", ts.URL, i, 760+i), "")
			check("estimate", fmt.Sprintf("farness %d", i), code, b)
			code, b = httpDo(t, client, http.MethodGet,
				fmt.Sprintf("%s/v1/topk?k=5&timeout=500ms&degrade=accept&seed=%d", ts.URL, 770+i), "")
			check("estimate", fmt.Sprintf("topk %d", i), code, b)
		}
	}()
	// Mutation churn: some of these are refused by the fault plan (400), the
	// rest install fresh generations under the estimators' feet.
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := s.gen.Load().g.NumNodes()
		for i := 0; i < 12; i++ {
			u, v := (i*17)%n, (i*29+101)%n
			if u == v {
				continue
			}
			code, b := httpDo(t, client, http.MethodPost, ts.URL+"/v1/edges",
				fmt.Sprintf(`{"u":%d,"v":%d}`, u, v))
			check("edges", fmt.Sprintf("mutation %d", i), code, b)
		}
	}()
	// Status poller: generation ids observed by one sequential client must
	// never decrease, and the body must stay coherent mid-chaos.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastGen uint64
		for i := 0; i < 20; i++ {
			code, b := httpDo(t, client, http.MethodGet, ts.URL+"/v1/status", "")
			check("status", fmt.Sprintf("status poll %d", i), code, b)
			var sb statusBody
			if err := json.Unmarshal(b, &sb); err != nil {
				continue
			}
			if sb.Generation < lastGen {
				report("status poll %d: generation went backwards %d -> %d", i, lastGen, sb.Generation)
			}
			lastGen = sb.Generation
			for _, r := range sb.Inflight {
				if r.Progress < 0 || r.Progress > 1 {
					report("status poll %d: inflight progress %v out of [0,1]", i, r.Progress)
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	wg.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	if fired := plan.Fired(1); fired < 1 || fired > 2 {
		t.Errorf("traversal panic rule fired %d times, want 1..2", fired)
	}
	// The storm is over; the daemon must be fully healthy.
	restore()
	if code, _ := httpDo(t, client, http.MethodGet, ts.URL+"/healthz", ""); code != 200 {
		t.Fatalf("healthz after storm: %d", code)
	}
	code, b := httpDo(t, client, http.MethodPost, ts.URL+"/v1/estimate?timeout=30s",
		`{"seed":799,"techniques":"RIC"}`)
	if code != 200 {
		t.Fatalf("clean estimate after storm: %d %s", code, b)
	}
	var eb estimateBody
	if err := json.Unmarshal(b, &eb); err != nil || eb.Partial {
		t.Fatalf("post-storm estimate not exact: err=%v body=%s", err, b)
	}
}

// TestChaosPartialNeverServedAsExact repeatedly interrupts throttled runs
// with mixed-deadline waiters and then compares every answer against the
// true exact result: a response not flagged partial must match the clean
// full run bit-for-bit, and a flagged partial must carry honest progress
// and mean bounds that contain the exact value.
func TestChaosPartialNeverServedAsExact(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	type answer struct {
		seed int
		code int
		body estimateBody
	}
	var mu sync.Mutex
	var answers []answer

	for wave := 0; wave < 3; wave++ {
		seed := 820 + wave
		slowFlight(t, s, 5*time.Millisecond)
		body := fmt.Sprintf(`{"seed":%d,"techniques":"RIC"}`, seed)
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				timeout := []string{"150ms", "250ms", "30s"}[i%3]
				w := doJSON(s, http.MethodPost,
					fmt.Sprintf("/v1/estimate?timeout=%s&degrade=accept", timeout), body)
				var b estimateBody
				if w.Code == http.StatusOK {
					if err := json.NewDecoder(w.Body).Decode(&b); err != nil {
						t.Errorf("wave %d req %d: bad body: %v", wave, i, err)
						return
					}
				}
				mu.Lock()
				answers = append(answers, answer{seed, w.Code, b})
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		time.Sleep(30 * time.Millisecond) // let the wave's run untrack fully
	}

	// Ground truth per seed, computed clean after the chaos.
	fault.Clear()
	exact := make(map[int]estimateBody)
	for wave := 0; wave < 3; wave++ {
		seed := 820 + wave
		w := doJSON(s, http.MethodPost, "/v1/estimate?timeout=30s",
			fmt.Sprintf(`{"seed":%d,"techniques":"RIC"}`, seed))
		if w.Code != http.StatusOK {
			t.Fatalf("ground truth seed %d: %d %s", seed, w.Code, w.Body)
		}
		b := decodeEstimate(t, w)
		if b.Partial {
			t.Fatalf("ground-truth run for seed %d returned partial — a partial was cached", seed)
		}
		exact[seed] = b
	}

	for _, a := range answers {
		if a.code != http.StatusOK {
			continue // timeouts/cancellations are fine; exactness is what's audited
		}
		ex := exact[a.seed]
		if a.body.Partial {
			if a.body.Completed <= 0 || a.body.Completed > a.body.Planned {
				t.Errorf("seed %d: partial with progress %d/%d", a.seed, a.body.Completed, a.body.Planned)
			}
			if a.body.MeanLow > ex.MeanFarness || ex.MeanFarness > a.body.MeanHigh {
				t.Errorf("seed %d: exact mean %v outside partial bounds [%v, %v]",
					a.seed, ex.MeanFarness, a.body.MeanLow, a.body.MeanHigh)
			}
		} else if a.body.MeanFarness != ex.MeanFarness {
			t.Errorf("seed %d: unflagged answer %v differs from exact %v — a partial was served as exact",
				a.seed, a.body.MeanFarness, ex.MeanFarness)
		}
	}
}

// TestChaosGenerationConsistency churns edge mutations through a fault plan
// that refuses some of them mid-swap, with sketch-answered reads racing the
// whole time: the generation id must advance exactly on each successful
// mutation and stay put on each refused one, and every read must succeed.
func TestChaosGenerationConsistency(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	plan := &fault.Plan{
		Seed: 7,
		Rules: []fault.Rule{
			{Point: "server.mutate", Prob: 0.4, Err: errors.New("chaos: swap refused")},
		},
	}
	restore := plan.Install()
	defer restore()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	n := s.gen.Load().g.NumNodes()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u, v := (w*41+i)%n, (w*13+i*7+5)%n
				rec := doJSON(s, http.MethodGet,
					fmt.Sprintf("/v1/distance?from=%d&to=%d&mode=sketch", u, v), "")
				if rec.Code != http.StatusOK {
					t.Errorf("read %d->%d during churn: %d %s", u, v, rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}

	gen := func() uint64 {
		var sb statusBody
		w := doJSON(s, http.MethodGet, "/v1/status", "")
		if err := json.NewDecoder(w.Body).Decode(&sb); err != nil {
			t.Fatalf("status: %v", err)
		}
		return sb.Generation
	}
	last := gen()
	for i := 0; i < 30; i++ {
		u, v := (i*23)%n, (i*31+77)%n
		if u == v {
			continue
		}
		w := doJSON(s, http.MethodPost, "/v1/edges", fmt.Sprintf(`{"u":%d,"v":%d}`, u, v))
		now := gen()
		switch w.Code {
		case http.StatusOK:
			if now != last+1 {
				t.Fatalf("mutation %d succeeded but generation went %d -> %d, want +1", i, last, now)
			}
		case http.StatusBadRequest:
			if now != last {
				t.Fatalf("mutation %d failed (%s) but generation went %d -> %d, want unchanged", i, w.Body, last, now)
			}
		default:
			t.Fatalf("mutation %d: status %d %s", i, w.Code, w.Body)
		}
		last = now
	}
	if plan.Fired(0) == 0 {
		t.Error("fault plan never refused a mutation; churn too small to prove anything")
	}
	close(stop)
	wg.Wait()
}

// TestChaosGracefulDrain parks several estimation runs, flips readiness off
// and closes the server: every waiter — accept and reject alike — must get
// an answer promptly, the inflight registry must empty, and the liveness
// endpoints must keep serving on the drained process.
func TestChaosGracefulDrain(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2, MaxInflight: 8})
	restore := fault.Set("server.estimate", func(ctx context.Context) error {
		return fault.Sleep(ctx, 30*time.Second)
	})
	defer restore()

	const waiters = 4
	codes := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		degrade := []string{"accept", "reject"}[i%2]
		go func(i int, degrade string) {
			w := doJSON(s, http.MethodPost,
				"/v1/estimate?timeout=30s&degrade="+degrade,
				fmt.Sprintf(`{"seed":%d,"techniques":"RIC"}`, 840+i))
			codes <- w.Code
		}(i, degrade)
	}
	// Wait until all runs are registered and parked.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.inflightRuns()) < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d runs in flight after 2s", len(s.inflightRuns()), waiters)
		}
		time.Sleep(5 * time.Millisecond)
	}

	s.SetReady(false)
	if w := doJSON(s, http.MethodGet, "/readyz", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", w.Code)
	}
	s.Close()

	for i := 0; i < waiters; i++ {
		select {
		case code := <-codes:
			// Parked runs made no progress, so accept waiters cannot be
			// handed a partial either: everyone gets a clean 503.
			if code != http.StatusServiceUnavailable {
				t.Errorf("drained waiter answered %d, want 503", code)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("drain did not complete: waiter still blocked 2s after Close")
		}
	}
	deadline = time.Now().Add(2 * time.Second)
	for len(s.inflightRuns()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d runs still tracked 2s after drain", len(s.inflightRuns()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w := doJSON(s, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz on drained server: %d", w.Code)
	}
	var sb statusBody
	w := doJSON(s, http.MethodGet, "/v1/status", "")
	if err := json.NewDecoder(w.Body).Decode(&sb); err != nil {
		t.Fatalf("status on drained server: %v", err)
	}
	if sb.Ready || len(sb.Inflight) != 0 {
		t.Fatalf("drained status = ready %v, %d inflight; want not-ready, none", sb.Ready, len(sb.Inflight))
	}
}
