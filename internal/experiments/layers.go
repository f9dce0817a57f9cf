package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/gen"
)

// The layer studies time one layer of the stack at a time on one dataset per
// graph class. Each study is a list of cells run by one runner: a cell's
// correctness gate runs first, then one untimed warm-up, then timedReps timed
// reps. Each cell becomes one Row; a study's rows form one Report, written
// as BENCH_<study>.json.

// timedReps is the number of timed reps per cell.
const timedReps = 5

// minRepTime is the shortest timed rep. An op faster than this (a sweep of
// sketch lookups, the reduction of a small road graph) runs several
// times per rep, the count sized from the warm-up; times are per op.
const minRepTime = 10 * time.Millisecond

// Row is one cell of a layer study.
type Row struct {
	Study   string `json:"study"`
	Dataset string `json:"dataset"`
	Class   string `json:"class"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	// Config holds the axes the study varies, such as workers or mode.
	Config    map[string]any `json:"config"`
	Reps      int            `json:"reps"`
	OpsPerRep int            `json:"ops_per_rep"`
	MedianNS  int64          `json:"median_ns"`
	MinNS     int64          `json:"min_ns"`
	MaxNS     int64          `json:"max_ns"`
	// StagesNS is the split the layer itself reports, averaged per op.
	StagesNS map[string]int64 `json:"stages_ns,omitempty"`
	// AllocsPerOp is the Mallocs delta of the timed reps per op.
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Speedup is the median of the dataset's baseline cell over this row's.
	Speedup float64 `json:"speedup_vs_baseline"`
}

// Host fingerprints the machine a report was recorded on. No cell runs more
// workers than GOMAXPROCS, so no row claims scaling the host could not show.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

func thisHost() Host {
	return Host{runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version()}
}

// Report is one layer study, the BENCH_<study>.json document.
type Report struct {
	Study string `json:"study"`
	Host
	Scale    float64 `json:"scale"`
	Baseline string  `json:"baseline"`
	Note     string  `json:"note"`
	Rows     []Row   `json:"rows"`
}

// study is one layer's scenario. setup builds one dataset's cells, the first
// of which is the baseline.
type study struct {
	name, baseline, note string
	setup                func(cfg Config, ds gen.Dataset) (dataset, error)
}

// dataset is one dataset's cells and the size of the graph they run on.
type dataset struct {
	nodes, edges int
	cells        []cell
	cleanup      func() // nil: nothing to release
}

type cell struct {
	config map[string]any
	// gate checks the cell's output against the study's reference, once,
	// before the warm-up (nil: the study has none).
	gate func() error
	// op is one timed operation; it returns the layer's stage split or nil.
	op      func() (map[string]int64, error)
	queries int                // > 0: queries one op answers; adds a qps metric
	metrics map[string]float64 // derived values; the gate may fill them in
}

// LayerStudies names the layer studies in run order.
var LayerStudies = []string{"reduction", "sketch", "load", "estimators"}

var layerStudies = map[string]study{
	"reduction":  reductionStudy,
	"sketch":     sketchStudy,
	"load":       loadStudy,
	"estimators": estimatorsStudy,
}

// RunLayer runs the named layer study, prints its table to w and, when dir
// is not empty, writes its report to dir/BENCH_<name>.json. A failed gate
// returns an error and writes nothing.
func RunLayer(cfg Config, name, dir string, w io.Writer) error {
	s, ok := layerStudies[name]
	if !ok {
		return fmt.Errorf("unknown layer study %q", name)
	}
	return runLayer(cfg, s, dir, w)
}

func runLayer(cfg Config, s study, dir string, w io.Writer) error {
	rep := &Report{Study: s.name, Host: thisHost(), Scale: cfg.scale(), Baseline: s.baseline, Note: s.note}
	for _, ds := range classDatasets(cfg) {
		rows, err := runDataset(cfg, s, ds)
		if err != nil {
			return fmt.Errorf("%s %s: %w", s.name, ds.Name, err)
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	FprintReport(w, rep)
	if dir == "" {
		return nil
	}
	path, err := WriteReportJSON(dir, rep)
	if err == nil {
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return err
}

func runDataset(cfg Config, s study, ds gen.Dataset) ([]Row, error) {
	d, err := s.setup(cfg, ds)
	if err != nil {
		return nil, err
	}
	if d.cleanup != nil {
		defer d.cleanup()
	}
	var rows []Row
	for _, c := range d.cells {
		row := Row{Study: s.name, Dataset: ds.Name, Class: string(ds.Class),
			Nodes: d.nodes, Edges: d.edges, Config: c.config, Speedup: 1}
		if err := measure(c, &row); err != nil {
			return nil, fmt.Errorf("%s: %w", fmtMap(c.config, fmtAny), err)
		}
		if len(rows) > 0 {
			row.Speedup = float64(rows[0].MedianNS) / float64(row.MedianNS)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// measure runs c's gate, one warm-up and timedReps timed reps into row.
func measure(c cell, row *Row) error {
	if c.gate != nil {
		if err := c.gate(); err != nil {
			return err
		}
	}
	start := time.Now()
	if _, err := c.op(); err != nil {
		return err
	}
	warm := max(time.Since(start), 1)
	ops := int((minRepTime + warm - 1) / warm)
	perOp := make([]int64, timedReps)
	row.StagesNS = map[string]int64{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for r := range perOp {
		start := time.Now()
		for i := 0; i < ops; i++ {
			st, err := c.op()
			if err != nil {
				return err
			}
			for k, v := range st {
				row.StagesNS[k] += v
			}
		}
		perOp[r] = int64(time.Since(start)) / int64(ops)
	}
	runtime.ReadMemStats(&ms)
	total := int64(timedReps * ops)

	slices.Sort(perOp)
	row.Reps, row.OpsPerRep = timedReps, ops
	row.MedianNS, row.MinNS, row.MaxNS = max(perOp[timedReps/2], 1), perOp[0], perOp[timedReps-1]
	row.AllocsPerOp = float64(ms.Mallocs-mallocs) / float64(total)
	for k := range row.StagesNS {
		row.StagesNS[k] /= total
	}
	row.Metrics = maps.Clone(c.metrics)
	if c.queries > 0 {
		if row.Metrics == nil {
			row.Metrics = map[string]float64{}
		}
		row.Metrics["qps"] = float64(c.queries) / time.Duration(row.MedianNS).Seconds()
	}
	return nil
}

// FprintReport renders one layer study as a table.
func FprintReport(w io.Writer, rep *Report) {
	h := rep.Host
	fmt.Fprintf(w, "Layer study %s: per-op median of %d timed reps after a gate and a warm-up; speedup vs %s\n",
		rep.Study, timedReps, rep.Baseline)
	fmt.Fprintf(w, "(host: num_cpu=%d gomaxprocs=%d %s %s/%s)\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH)
	fmt.Fprintf(w, "%-26s %-9s %-33s %9s %9s %9s %10s %8s  %s\n",
		"Graph", "Class", "config", "median", "min", "max", "allocs/op", "speedup", "stages | metrics")
	prev := ""
	for _, r := range rep.Rows {
		name, class := r.Dataset, r.Class
		if name == prev {
			name, class = "", ""
		}
		prev = r.Dataset
		extra := fmtMap(r.StagesNS, func(v int64) string { return fmtDur(time.Duration(v)) })
		if len(r.Metrics) > 0 {
			extra = strings.TrimSpace(extra + " | " + fmtMap(r.Metrics, func(v float64) string {
				return strconv.FormatFloat(v, 'g', 7, 64)
			}))
		}
		fmt.Fprintf(w, "%-26s %-9s %-33s %9s %9s %9s %10.0f %7.2fx  %s\n",
			name, class, fmtMap(r.Config, fmtAny),
			fmtDur(time.Duration(r.MedianNS)), fmtDur(time.Duration(r.MinNS)), fmtDur(time.Duration(r.MaxNS)),
			r.AllocsPerOp, r.Speedup, extra)
	}
	fmt.Fprintln(w)
}

// fmtMap renders m as space-separated key=value pairs in key order.
func fmtMap[V any](m map[string]V, val func(V) string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		keys[i] = k + "=" + val(m[k])
	}
	return strings.Join(keys, " ")
}

func fmtAny(v any) string { return fmt.Sprint(v) }

// WriteReportJSON writes rep to dir/BENCH_<study>.json and returns the path.
func WriteReportJSON(dir string, rep *Report) (string, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+rep.Study+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
