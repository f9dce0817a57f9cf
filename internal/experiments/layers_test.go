package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
)

// TestLayerStudies runs every layer study at a tiny scale through the one
// runner and checks the written reports: every row is a timed, configured
// cell, each dataset's first cell is its baseline, no row runs more workers
// than the host has, the reduction rows time exactly the three stages, and
// every estimators row records its source count.
func TestLayerStudies(t *testing.T) {
	cfg := Config{Scale: 0.02, Seed: 5}
	dir := t.TempDir()
	for _, name := range LayerStudies {
		var out bytes.Buffer
		if err := RunLayer(cfg, name, dir, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out.String(), "Layer study "+name) {
			t.Errorf("%s: table header missing from %q", name, out.String())
		}
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if rep.Study != name || rep.Host != thisHost() || rep.Baseline == "" || len(rep.Rows) == 0 {
			t.Fatalf("%s: report header %+v, host %+v", name, rep, thisHost())
		}
		prev := ""
		for _, r := range rep.Rows {
			if len(r.Config) == 0 || r.Reps < 1 || r.OpsPerRep < 1 || r.MedianNS <= 0 ||
				r.MinNS > r.MedianNS || r.MedianNS > r.MaxNS {
				t.Errorf("%s %s: bad row %+v", name, r.Dataset, r)
			}
			if r.Dataset != prev {
				prev = r.Dataset
				if r.Speedup != 1 {
					t.Errorf("%s %s: baseline %v has speedup %v", name, r.Dataset, r.Config, r.Speedup)
				}
			}
			if w, ok := r.Config["workers"].(float64); ok && int(w) > rep.GOMAXPROCS {
				t.Errorf("%s %s: %v workers on gomaxprocs %d", name, r.Dataset, w, rep.GOMAXPROCS)
			}
			if name == "estimators" && r.Metrics["sources"] < 1 {
				t.Errorf("estimators %s %v: sources %v", r.Dataset, r.Config, r.Metrics["sources"])
			}
			if name == "reduction" {
				_, tw := r.StagesNS["twins"]
				_, ch := r.StagesNS["chains"]
				_, rd := r.StagesNS["redundant"]
				if len(r.StagesNS) != 3 || !tw || !ch || !rd {
					t.Errorf("reduction %s: stages %v, want exactly twins, chains and redundant", r.Dataset, r.StagesNS)
				}
			}
		}
	}
}

// TestLayerGateFailure: a cell whose gate fails stops the study before its
// op is ever timed, and no report is written.
func TestLayerGateFailure(t *testing.T) {
	timed := false
	broken := study{
		name: "broken",
		setup: func(Config, gen.Dataset) (dataset, error) {
			return dataset{nodes: 1, cells: []cell{{
				config: map[string]any{"workers": 1},
				gate:   func() error { return errors.New("output differs from the reference") },
				op:     func() (map[string]int64, error) { timed = true; return nil, nil },
			}}}, nil
		},
	}
	dir := t.TempDir()
	err := runLayer(Config{Scale: 0.02}, broken, dir, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "differs from the reference") {
		t.Fatalf("err = %v, want the gate's error", err)
	}
	if timed {
		t.Error("op ran although its gate failed")
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("a failed study wrote %v", files)
	}
}

// TestWorkerSweep: powers of two below GOMAXPROCS, then GOMAXPROCS itself.
func TestWorkerSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for p, want := range map[int][]int{1: {1}, 2: {1, 2}, 3: {1, 2, 3}, 4: {1, 2, 4}, 6: {1, 2, 4, 6}} {
		runtime.GOMAXPROCS(p)
		if got := workerSweep(); !slices.Equal(got, want) {
			t.Errorf("gomaxprocs %d: sweep %v, want %v", p, got, want)
		}
	}
}
