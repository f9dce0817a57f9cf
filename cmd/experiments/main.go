// Command experiments regenerates the tables and figures of the paper's
// evaluation section on the synthetic dataset stand-ins, and runs the layer
// studies.
//
// Usage:
//
//	experiments [-scale 1.0] [-workers N] [-seed S] [-only table1,fig4a,...] [-bench-dir DIR]
//	experiments -list
//
// Experiments: table1, fig4a, fig4b, fig5, fig6, fig7, fig8, fig9, sweep,
// the layer studies reduction, sketch and load, and ablations (default:
// all, in order); an unknown -only name is an error. See EXPERIMENTS.md for
// the recorded paper-vs-measured comparison. Each layer study times one
// layer (the reduction pipeline, the distance sketch, the artifact load
// paths) cell by cell, after checking each cell against its reference;
// -bench-dir writes each study that ran as
// DIR/BENCH_<study>.json (used by `make bench-layers`).
// -cpuprofile/-memprofile capture pprof profiles of whatever subset runs —
// the intended workflow for chasing kernel regressions spotted in the
// matrix.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/gen"
)

func main() {
	var (
		scale      = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = default stand-in sizes)")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "sampling seed")
		only       = flag.String("only", "", "comma-separated subset: "+strings.Join(targets(), ","))
		benchDir   = flag.String("bench-dir", "", "write each layer study that runs to BENCH_<study>.json in this directory")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		charts     = flag.Bool("charts", false, "render text bar charts in addition to the tables")
		list       = flag.Bool("list", false, "list datasets and exit")
	)
	flag.Parse()
	want, err := parseOnly(*only)
	check(err)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			check(err)
			runtime.GC() // materialise final live-set statistics
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}

	if *list {
		fmt.Printf("%-28s %-10s %10s %10s %10s\n", "Name", "Class", "paper |V|", "paper |E|", "sim |V|")
		for _, ds := range gen.Datasets(*scale) {
			fmt.Printf("%-28s %-10s %10d %10d %10d\n", ds.Name, ds.Class, ds.PaperNodes, ds.PaperEdges, ds.Nodes)
		}
		return
	}

	cfg := experiments.Config{Scale: *scale, Workers: *workers, Seed: *seed}
	run := func(name string) bool { return len(want) == 0 || want[name] }
	start := time.Now()

	if run("table1") {
		rows, err := experiments.TableI(cfg)
		check(err)
		fmt.Println("Table I: dataset characteristics (synthetic stand-ins; see DESIGN.md)")
		experiments.FprintTableI(os.Stdout, rows)
		fmt.Println()
	}
	if run("fig4a") {
		rows, err := experiments.Fig4(cfg, 0.4, 0.4)
		check(err)
		experiments.FprintCompare(os.Stdout, "Fig 4(a): Cumulative vs Random sampling, both at 40% sampling", rows)
		if *charts {
			experiments.FprintCompareChart(os.Stdout, "Fig 4(a)", rows)
		}
		fmt.Println()
	}
	if run("fig4b") {
		rows, err := experiments.Fig4(cfg, 0.2, 0.3)
		check(err)
		experiments.FprintCompare(os.Stdout, "Fig 4(b): Cumulative at 20% vs Random sampling at 30%", rows)
		if *charts {
			experiments.FprintCompareChart(os.Stdout, "Fig 4(b)", rows)
		}
		fmt.Println()
	}
	if run("fig5") {
		res, err := experiments.Fig5(cfg, 0.3)
		check(err)
		experiments.FprintFig5(os.Stdout, res)
		if *charts {
			experiments.FprintFig5Histograms(os.Stdout, res)
		}
		fmt.Println()
	}
	for _, c := range []struct {
		key   string
		class gen.Class
	}{
		{"fig6", gen.ClassWeb},
		{"fig7", gen.ClassSocial},
		{"fig8", gen.ClassCommunity},
		{"fig9", gen.ClassRoad},
	} {
		if !run(c.key) {
			continue
		}
		rows, err := experiments.FigClass(cfg, c.class, 0.4)
		check(err)
		experiments.FprintFigClass(os.Stdout, c.class, rows)
		if *charts {
			experiments.FprintFigClassChart(os.Stdout, c.class, rows)
		}
		fmt.Println()
	}
	if run("sweep") {
		for _, class := range []gen.Class{gen.ClassWeb, gen.ClassRoad} {
			pts, err := experiments.FractionSweep(cfg, class, nil)
			check(err)
			experiments.FprintSweep(os.Stdout, class, pts)
			fmt.Println()
		}
	}
	for _, name := range experiments.LayerStudies {
		if run(name) {
			check(experiments.RunLayer(cfg, name, *benchDir, os.Stdout))
		}
	}
	if run("ablations") {
		// Beyond the paper: estimator/propagation/fixpoint comparisons.
		rows, err := experiments.Ablations(cfg, 0.2)
		check(err)
		experiments.FprintAblations(os.Stdout, rows)
		fmt.Println()
	}
	fmt.Printf("total time %v\n", time.Since(start).Round(time.Millisecond))
}

// paperTargets are the paper's tables and figures, in run order.
var paperTargets = []string{"table1", "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8", "fig9", "sweep"}

// targets lists every name main runs, in run order.
func targets() []string {
	return slices.Concat(paperTargets, experiments.LayerStudies, []string{"ablations"})
}

// parseOnly turns the -only list into the set of targets to run (empty:
// all). An unknown name is an error, so a stale or mistyped name cannot
// silently skip a study.
func parseOnly(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	valid := targets()
	for _, s := range strings.Split(only, ",") {
		name := strings.TrimSpace(strings.ToLower(s))
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown -only target %q; valid: %s", name, strings.Join(valid, ","))
		}
		want[name] = true
	}
	return want, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
