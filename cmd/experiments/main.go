// Command experiments regenerates the tables and figures of the paper's
// evaluation section on the synthetic dataset stand-ins.
//
// Usage:
//
//	experiments [-scale 1.0] [-workers N] [-seed S] [-only table1,fig4a,...]
//	experiments -list
//
// Experiments: table1, fig4a, fig4b, fig5, fig6, fig7, fig8, fig9,
// reduction (default: all, in order). See EXPERIMENTS.md
// for the recorded paper-vs-measured comparison. The reduction experiment
// times the parallel preprocessing pipeline; -json additionally writes its
// rows as a machine-readable report (used by `make bench-reduction`). The
// frontier experiment runs the
// exact-farness engine × worker-count scaling study; -frontier-json writes it
// as BENCH_frontier.json (used by `make bench-frontier`). The sketch
// experiment measures point-to-point distance throughput of the three
// /v1/distance answering modes (exact vs sketch vs auto); -sketch-json writes
// it as BENCH_sketch.json (used by `make bench-sketch`). The bicc experiment
// runs the biconnected-decomposition engine × worker-count scaling study on
// each class's reduced graph; -bicc-json writes it as BENCH_bicc.json (used
// by `make bench-bicc`). The load experiment measures time-to-first-query of
// the three graph load paths (text parse vs buffered binary read vs mmap
// zero-copy); -load-json writes it as BENCH_load.json (used by
// `make bench-load`).
// -cpuprofile/-memprofile capture pprof profiles of
// whatever subset runs — the intended workflow for chasing kernel
// regressions spotted in the matrix.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
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
		only       = flag.String("only", "", "comma-separated subset: table1,fig4a,fig4b,fig5,fig6,fig7,fig8,fig9,frontier,sketch,bicc,load,reduction,ablations,sweep")
		jsonOut    = flag.String("json", "", "write the reduction benchmark rows to this JSON file")
		frontOut   = flag.String("frontier-json", "", "write the frontier scaling study to this JSON file")
		sketchOut  = flag.String("sketch-json", "", "write the distance-sketch query study to this JSON file")
		biccOut    = flag.String("bicc-json", "", "write the BiCC decomposition scaling study to this JSON file")
		loadOut    = flag.String("load-json", "", "write the artifact load-path study to this JSON file")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		charts     = flag.Bool("charts", false, "render text bar charts in addition to the tables")
		list       = flag.Bool("list", false, "list datasets and exit")
	)
	flag.Parse()

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
	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(s))] = true
		}
	}
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
	if run("frontier") {
		rows, err := experiments.FrontierBench(cfg)
		check(err)
		experiments.FprintFrontier(os.Stdout, rows)
		if *frontOut != "" {
			check(experiments.WriteFrontierJSON(*frontOut, cfg, rows))
			fmt.Printf("wrote %s\n", *frontOut)
		}
		fmt.Println()
	}
	if run("sketch") {
		rows, err := experiments.SketchBench(cfg)
		check(err)
		experiments.FprintSketch(os.Stdout, rows)
		if *sketchOut != "" {
			check(experiments.WriteSketchJSON(*sketchOut, cfg, rows))
			fmt.Printf("wrote %s\n", *sketchOut)
		}
		fmt.Println()
	}
	if run("bicc") {
		rows, err := experiments.BiCCBench(cfg)
		check(err)
		experiments.FprintBiCC(os.Stdout, rows)
		if *biccOut != "" {
			check(experiments.WriteBiCCJSON(*biccOut, cfg, rows))
			fmt.Printf("wrote %s\n", *biccOut)
		}
		fmt.Println()
	}
	if run("load") {
		rows, err := experiments.LoadBench(cfg)
		check(err)
		experiments.FprintLoad(os.Stdout, rows)
		if *loadOut != "" {
			check(experiments.WriteLoadJSON(*loadOut, cfg, rows))
			fmt.Printf("wrote %s\n", *loadOut)
		}
		fmt.Println()
	}
	if run("reduction") {
		rows, err := experiments.ReductionBench(cfg)
		check(err)
		experiments.FprintReduction(os.Stdout, rows)
		if *jsonOut != "" {
			check(experiments.WriteReductionJSON(*jsonOut, cfg, rows))
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		fmt.Println()
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

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
