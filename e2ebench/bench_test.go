package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
)

// benchmarkSpec is the metric list of the repository's BENCHMARK.json.
type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smoke runs a few ops and returns the printed output and its last line.
func smoke(t *testing.T, cfg config) (string, result) {
	t.Helper()
	cfg.seconds, cfg.setups, cfg.workdir = 30, 1, t.TempDir()
	if cfg.maxOps == 0 {
		cfg.maxOps = 3
	}
	rep, err := run(cfg, &bytes.Buffer{})
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if got := exitCode(rep); (got == 0) != res.Correct {
		t.Fatalf("exit code %d with correct=%v", got, res.Correct)
	}
	return out.String(), res
}

// TestSmokeEveryWorkload runs each workload untraced and traced for a
// handful of ops and wants every metric of BENCHMARK.json printed, by name
// and with its unit, and every check passed.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			out, res := smoke(t, config{workload: wl.Name, seed: 3, trace: traced})
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl.Name, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl.Name, traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, "metric "+m.Name+" ") {
					t.Errorf("%s trace=%v: metric %s missing from the text output", wl.Name, traced, m.Name)
				}
			}
		}
	}
}

// TestInjectedFaultFailsTheRun fails one request in the timed phase and
// wants it counted as a failed op and the run reported as incorrect.
func TestInjectedFaultFailsTheRun(t *testing.T) {
	var fired atomic.Bool
	cfg := config{workload: "hit-social", seed: 1, maxOps: 50}
	cfg.beforeTimed = func() {
		restore := fault.Set("server.handle", func(context.Context) error {
			if fired.CompareAndSwap(false, true) {
				return errors.New("injected")
			}
			return nil
		})
		t.Cleanup(restore)
	}
	out, res := smoke(t, cfg)
	if res.Correct || res.Failed != 1 || res.Attempted != 50 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want one failed op of 50\n%s", res.Correct, res.Attempted, res.Failed, out)
	}
	if !strings.Contains(out, "fail_pct=2 ") {
		t.Errorf("want fail_pct=2 in the output:\n%s", out)
	}
	if ok := res.Metrics["ok_pct"].Value; ok != 98 {
		t.Errorf("ok_pct = %v, want 98", ok)
	}
}

// TestOpSequenceFollowsSeed wants the same op sequence from the same seed
// and a different one from another seed, on every workload.
func TestOpSequenceFollowsSeed(t *testing.T) {
	ops := func(wl *workload, seed int64) []op {
		w, err := newWorld(wl, seed)
		if err != nil {
			t.Fatal(err)
		}
		s := newOpStream(w, seed^timedStream)
		out := make([]op, 100)
		for i := range out {
			out[i] = s.take()
		}
		return out
	}
	for _, wl := range workloads {
		a, b, c := ops(wl, 1), ops(wl, 1), ops(wl, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different sequences", wl.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", wl.name)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
	}}
	tr.selfTimes()
	if got := tr.spans[0].Self; got != 40 {
		t.Errorf("self = %d, want 100 - (10..60) - (90..100) = 40", got)
	}
}

func TestQuantileCountsBeyond(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if v, beyond := quantile(xs, 0.9); v != 9 || beyond != 1 {
		t.Errorf("p90 = %v with %d beyond, want 9 with 1", v, beyond)
	}
	if v, _ := quantile(xs, 0.5); v != 5 {
		t.Errorf("p50 = %v, want 5", v)
	}
}
