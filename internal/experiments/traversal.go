package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TraversalRow is one (dataset, relabel ordering) point of the locality
// matrix: full cumulative-estimate wall-clock at 20% sampling under the one
// traversal policy, the traversal-phase share of it, and the speedup over
// the same dataset's relabel=none cell. Every cell produces bit-identical
// farness (checked by the bench) — the matrix isolates pure memory-layout
// effects.
type TraversalRow struct {
	Dataset  gen.Dataset   `json:"-"`
	Name     string        `json:"name"`
	Class    string        `json:"class"`
	Relabel  string        `json:"relabel"`
	Total    time.Duration `json:"total_ns"`
	Traverse time.Duration `json:"traverse_ns"`
	Speedup  float64       `json:"speedup_vs_default"`
}

// traversalOrderings spans the matrix axis.
var traversalOrderings = []graph.RelabelMode{graph.RelabelNone, graph.RelabelDegree, graph.RelabelBFS}

// TraversalBench measures every relabel ordering on one dataset per graph
// class. Each cell is the best of two runs (the first run pays allocator
// warm-up); the speedup column compares against the relabel=none cell of the
// same dataset, i.e. what the estimator does with no knobs set. A cell whose
// farness differs from that baseline is an error.
func TraversalBench(cfg Config, fraction float64) ([]TraversalRow, error) {
	if fraction <= 0 {
		fraction = 0.2
	}
	var rows []TraversalRow
	seen := map[gen.Class]bool{}
	for _, ds := range gen.Datasets(cfg.scale()) {
		if seen[ds.Class] {
			continue
		}
		seen[ds.Class] = true
		g := ds.Build()
		var baseline time.Duration
		var want []float64
		for _, ord := range traversalOrderings {
			row := TraversalRow{
				Dataset: ds,
				Name:    ds.Name,
				Class:   string(ds.Class),
				Relabel: ord.String(),
			}
			for rep := 0; rep < 2; rep++ {
				start := time.Now()
				res, err := core.Estimate(g, core.Options{
					Techniques:     core.TechCumulative,
					SampleFraction: fraction,
					Workers:        cfg.Workers,
					Seed:           cfg.Seed,
					Relabel:        ord,
				})
				total := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %v", ds.Name, ord, err)
				}
				if want == nil {
					want = res.Farness
				} else if !slices.Equal(want, res.Farness) {
					return nil, fmt.Errorf("%s %s: farness differs from relabel=none", ds.Name, ord)
				}
				if rep == 0 || total < row.Total {
					row.Total = total
					row.Traverse = res.Stats.Traverse
				}
			}
			if ord == graph.RelabelNone {
				baseline = row.Total
			}
			if row.Total > 0 {
				row.Speedup = float64(baseline) / float64(row.Total)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FprintTraversal renders the locality matrix; speedup >1 means the
// ordering beats relabel=none on that dataset.
func FprintTraversal(w io.Writer, fraction float64, rows []TraversalRow) {
	fmt.Fprintf(w, "Traversal locality matrix: relabel ordering, cumulative estimate at %.0f%% sampling\n", fraction*100)
	fmt.Fprintf(w, "(identical farness in every cell; speedup is vs the same dataset's relabel=none run)\n")
	fmt.Fprintf(w, "%-28s %-10s %-8s %10s %10s %8s\n",
		"Graph", "Class", "relabel", "traverse", "total", "speedup")
	prev := ""
	for _, r := range rows {
		name, class := r.Name, r.Class
		if name == prev {
			name, class = "", ""
		} else {
			prev = name
		}
		fmt.Fprintf(w, "%-28s %-10s %-8s %10s %10s %7.2fx\n",
			name, class, r.Relabel, fmtDur(r.Traverse), fmtDur(r.Total), r.Speedup)
	}
}

// traversalReport is the BENCH_traversal.json document.
type traversalReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	Scale      float64        `json:"scale"`
	Fraction   float64        `json:"fraction"`
	Note       string         `json:"note"`
	Rows       []TraversalRow `json:"rows"`
}

// WriteTraversalJSON writes the locality matrix to path as JSON so
// `make bench-traversal` leaves a machine-readable record next to the text
// table.
func WriteTraversalJSON(path string, cfg Config, fraction float64, rows []TraversalRow) error {
	rep := traversalReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Scale:      cfg.scale(),
		Fraction:   fraction,
		Note: "Full cumulative-estimate wall-clock per relabel ordering under the one traversal " +
			"policy; every cell produces bit-identical farness (checked in-bench). speedup_vs_default " +
			"compares against the relabel=none cell of the same dataset.",
		Rows: rows,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
