// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV) on the synthetic dataset stand-ins. Each
// experiment returns structured rows and can render itself as an aligned
// text table; cmd/experiments and the root benchmark suite are thin
// wrappers around this package.
//
// Experiment index (see DESIGN.md §3):
//
//	TableI  — dataset structural statistics
//	Fig4    — Cumulative vs Random sampling: quality and speedup
//	Fig5    — per-node approximation-ratio distribution, random vs BiCC
//	FigClass — Fig. 6/7/8/9: per-class relative speedup of C+R, I+C+R,
//	           Cumulative
//	RunLayer — the layer studies (reduction, bicc, sketch, load),
//	           one runner and one row schema (layers.go, scenarios.go)
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bicc"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reduce"
	"repro/internal/stats"
	"repro/internal/viz"
)

// exactCache memoises the exact-farness oracle per (dataset, size): several
// figures evaluate the same datasets and the oracle (one BFS per node) is
// by far the most expensive part of the harness.
var exactCache sync.Map // key string -> []float64

func exactFor(cfg Config, ds gen.Dataset, g *graph.Graph) []float64 {
	key := fmt.Sprintf("%s/%d/%d", ds.Name, g.NumNodes(), g.NumEdges())
	if v, ok := exactCache.Load(key); ok {
		return v.([]float64)
	}
	far := core.ExactFarness(g, cfg.Workers)
	exactCache.Store(key, far)
	return far
}

// Config parameterises a run.
type Config struct {
	// Scale multiplies dataset sizes (1.0 = default stand-in sizes).
	Scale float64
	// Workers caps parallelism (<1 = GOMAXPROCS).
	Workers int
	// Seed drives sampling.
	Seed int64
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// classDatasets returns the first dataset of each graph class.
func classDatasets(cfg Config) []gen.Dataset {
	var out []gen.Dataset
	seen := map[gen.Class]bool{}
	for _, ds := range gen.Datasets(cfg.scale()) {
		if !seen[ds.Class] {
			seen[ds.Class] = true
			out = append(out, ds)
		}
	}
	return out
}

// TableIRow mirrors one row of the paper's Table I.
type TableIRow struct {
	Dataset                    gen.Dataset
	Nodes, Edges               int
	IdenticalNodes             int
	IdenticalChainNodes        int
	RedundantNodes             int
	ChainNodes                 int
	BlockCount, BlockMax       int
	BlockAvg                   float64
	ReducedNodes, ReducedEdges int
}

// TableI computes the structural statistics of every dataset: twin,
// chain and redundant counts from the reduction pipeline, and the
// biconnected decomposition of the input graph.
func TableI(cfg Config) ([]TableIRow, error) {
	var rows []TableIRow
	for _, ds := range gen.Datasets(cfg.scale()) {
		g := ds.Build()
		ropts := reduce.All()
		ropts.Workers = cfg.Workers
		red, err := reduce.Run(g, ropts)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", ds.Name, err)
		}
		d := bicc.DecomposeWorkers(g, cfg.Workers)
		bs := d.Summarize()
		rows = append(rows, TableIRow{
			Dataset:             ds,
			Nodes:               g.NumNodes(),
			Edges:               g.NumEdges(),
			IdenticalNodes:      red.Stats.IdenticalNodes,
			IdenticalChainNodes: red.Stats.IdenticalChainNodes,
			RedundantNodes:      red.Stats.RedundantNodes,
			ChainNodes:          red.Stats.ChainNodes,
			BlockCount:          bs.Count,
			BlockMax:            bs.Max,
			BlockAvg:            bs.Avg,
			ReducedNodes:        red.G.NumNodes(),
			ReducedEdges:        red.G.NumEdges(),
		})
	}
	return rows, nil
}

// FprintTableI renders Table I.
func FprintTableI(w io.Writer, rows []TableIRow) {
	fmt.Fprintf(w, "%-28s %8s %9s %9s %9s %9s %9s %7s %8s %7s\n",
		"Graph", "|V|", "|E|", "Ident.", "Id.ChN", "Redund.", "ChainN", "BiCC#", "BiCCmax", "BiCCavg")
	var class gen.Class
	for _, r := range rows {
		if r.Dataset.Class != class {
			class = r.Dataset.Class
			fmt.Fprintf(w, "-- %s --\n", class)
		}
		fmt.Fprintf(w, "%-28s %8d %9d %9d %9d %9d %9d %7d %8d %7.1f\n",
			r.Dataset.Name, r.Nodes, r.Edges, r.IdenticalNodes, r.IdenticalChainNodes,
			r.RedundantNodes, r.ChainNodes, r.BlockCount, r.BlockMax, r.BlockAvg)
	}
}

// CompareRow is one dataset's Cumulative-vs-Random comparison (Fig. 4).
type CompareRow struct {
	Dataset        gen.Dataset
	RandomQuality  float64
	RandomErrorPct float64
	RandomTime     time.Duration
	CumQuality     float64
	CumErrorPct    float64
	CumTime        time.Duration
	Speedup        float64
	RandomFraction float64
	CumFraction    float64
}

// Fig4 runs the paper's Fig. 4 comparison at the given sampling fractions:
// 4(a) uses 0.4/0.4, 4(b) uses cumulative 0.2 vs random 0.3.
func Fig4(cfg Config, cumFraction, randFraction float64) ([]CompareRow, error) {
	var rows []CompareRow
	for _, ds := range gen.Datasets(cfg.scale()) {
		g := ds.Build()
		row, err := compareOne(cfg, ds, g, cumFraction, randFraction)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func compareOne(cfg Config, ds gen.Dataset, g *graph.Graph, cumFraction, randFraction float64) (CompareRow, error) {
	actual := exactFor(cfg, ds, g)

	start := time.Now()
	rnd, err := core.RandomSampling(g, randFraction, cfg.Workers, cfg.Seed)
	if err != nil {
		return CompareRow{}, fmt.Errorf("%s random: %v", ds.Name, err)
	}
	randTime := time.Since(start)

	start = time.Now()
	cum, err := core.Estimate(g, core.Options{
		Techniques:     core.TechCumulative,
		SampleFraction: cumFraction,
		Workers:        cfg.Workers,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return CompareRow{}, fmt.Errorf("%s: %v", ds.Name, err)
	}
	cumTime := time.Since(start)

	return CompareRow{
		Dataset:        ds,
		RandomQuality:  stats.Quality(rnd.Farness, actual),
		RandomErrorPct: stats.AvgErrorPercent(rnd.Farness, actual),
		RandomTime:     randTime,
		CumQuality:     stats.Quality(cum.Farness, actual),
		CumErrorPct:    stats.AvgErrorPercent(cum.Farness, actual),
		CumTime:        cumTime,
		Speedup:        stats.Speedup(randTime, cumTime),
		RandomFraction: randFraction,
		CumFraction:    cumFraction,
	}, nil
}

// FprintCompare renders a Fig. 4-style table.
func FprintCompare(w io.Writer, title string, rows []CompareRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-28s %10s %8s %10s %10s %8s %10s %8s\n",
		"Graph", "RandQual", "RandErr%", "RandTime", "CumQual", "CumErr%", "CumTime", "Speedup")
	var class gen.Class
	for _, r := range rows {
		if r.Dataset.Class != class {
			class = r.Dataset.Class
			fmt.Fprintf(w, "-- %s --\n", class)
		}
		fmt.Fprintf(w, "%-28s %10.4f %8.2f %10s %10.4f %8.2f %10s %8.2f\n",
			r.Dataset.Name, r.RandomQuality, r.RandomErrorPct, fmtDur(r.RandomTime),
			r.CumQuality, r.CumErrorPct, fmtDur(r.CumTime), r.Speedup)
	}
}

// Fig5Result holds the per-node AR distributions of the two approaches on
// one (social) graph — the scatter of the paper's Fig. 5.
type Fig5Result struct {
	Dataset    gen.Dataset
	RandomAR   []float64
	BiCCAR     []float64
	RandomSumm stats.Summary
	BiCCSumm   stats.Summary
	RandomCorr float64
	BiCCCorr   float64
}

// Fig5 compares per-node approximation ratios of random sampling vs the
// BiCC-based cumulative approach on the first social dataset.
func Fig5(cfg Config, fraction float64) (*Fig5Result, error) {
	var ds gen.Dataset
	for _, d := range gen.Datasets(cfg.scale()) {
		if d.Class == gen.ClassSocial {
			ds = d
			break
		}
	}
	g := ds.Build()
	actual := exactFor(cfg, ds, g)
	rnd, err := core.RandomSampling(g, fraction, cfg.Workers, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cum, err := core.Estimate(g, core.Options{
		Techniques:     core.TechCumulative,
		SampleFraction: fraction,
		Workers:        cfg.Workers,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{
		Dataset:    ds,
		RandomAR:   stats.AR(rnd.Farness, actual),
		BiCCAR:     stats.AR(cum.Farness, actual),
		RandomCorr: stats.Pearson(rnd.Farness, actual),
		BiCCCorr:   stats.Pearson(cum.Farness, actual),
	}
	res.RandomSumm = stats.Summarize(res.RandomAR)
	res.BiCCSumm = stats.Summarize(res.BiCCAR)
	return res, nil
}

// FprintFig5 renders the AR distribution summary.
func FprintFig5(w io.Writer, r *Fig5Result) {
	fmt.Fprintf(w, "Fig 5: per-node approximation ratio on %s\n", r.Dataset.Name)
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s %8s %8s %8s\n", "approach", "min", "p25", "median", "p75", "max", "mean", "corr")
	s := r.RandomSumm
	fmt.Fprintf(w, "%-10s %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f\n", "random", s.Min, s.P25, s.Median, s.P75, s.Max, s.Mean, r.RandomCorr)
	s = r.BiCCSumm
	fmt.Fprintf(w, "%-10s %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f\n", "bicc", s.Min, s.P25, s.Median, s.P75, s.Max, s.Mean, r.BiCCCorr)
}

// ConfigResult is one (dataset, technique-configuration) measurement of
// the Fig. 6–9 ablations.
type ConfigResult struct {
	Dataset  gen.Dataset
	Config   core.Technique
	Label    string
	Time     time.Duration
	Quality  float64
	ErrorPct float64
	Speedup  float64 // vs random sampling at the same fraction
}

// classFigure maps classes to the paper's figure numbers.
var classFigure = map[gen.Class]string{
	gen.ClassWeb:       "Fig 6",
	gen.ClassSocial:    "Fig 7",
	gen.ClassCommunity: "Fig 8",
	gen.ClassRoad:      "Fig 9",
}

// FigureFor returns the paper figure id for a class.
func FigureFor(class gen.Class) string { return classFigure[class] }

// ClassConfigs returns the technique configurations the paper evaluates
// for each class (Section IV-C2): web and community run C+R, I+C+R and
// Cumulative; social skips R (few redundant nodes); road uses the chain
// optimisation and the BiCC variant.
func ClassConfigs(class gen.Class) []core.Technique {
	switch class {
	case gen.ClassSocial:
		return []core.Technique{
			core.TechChains,
			core.TechIdentical | core.TechChains,
			core.TechBiCC | core.TechIdentical | core.TechChains,
		}
	case gen.ClassRoad:
		return []core.Technique{
			core.TechChains,
			core.TechBiCC | core.TechChains,
		}
	default:
		return []core.Technique{
			core.TechCR,
			core.TechICR,
			core.TechCumulative,
		}
	}
}

// FigClass runs the per-class ablation (Figs. 6–9) at the given fraction
// (the paper uses 0.4).
func FigClass(cfg Config, class gen.Class, fraction float64) ([]ConfigResult, error) {
	var out []ConfigResult
	for _, ds := range gen.Datasets(cfg.scale()) {
		if ds.Class != class {
			continue
		}
		g := ds.Build()
		actual := exactFor(cfg, ds, g)

		start := time.Now()
		rnd, err := core.RandomSampling(g, fraction, cfg.Workers, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s random: %v", ds.Name, err)
		}
		randTime := time.Since(start)
		out = append(out, ConfigResult{
			Dataset: ds, Config: 0, Label: "random",
			Time:     randTime,
			Quality:  stats.Quality(rnd.Farness, actual),
			ErrorPct: stats.AvgErrorPercent(rnd.Farness, actual),
			Speedup:  1,
		})
		for _, tech := range ClassConfigs(class) {
			start = time.Now()
			res, err := core.Estimate(g, core.Options{
				Techniques:     tech,
				SampleFraction: fraction,
				Workers:        cfg.Workers,
				Seed:           cfg.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("%s %v: %v", ds.Name, tech, err)
			}
			dur := time.Since(start)
			out = append(out, ConfigResult{
				Dataset: ds, Config: tech, Label: tech.String(),
				Time:     dur,
				Quality:  stats.Quality(res.Farness, actual),
				ErrorPct: stats.AvgErrorPercent(res.Farness, actual),
				Speedup:  stats.Speedup(randTime, dur),
			})
		}
	}
	return out, nil
}

// FprintFigClass renders a Fig. 6–9-style table.
func FprintFigClass(w io.Writer, class gen.Class, rows []ConfigResult) {
	fmt.Fprintf(w, "%s: relative speedup of optimisations on %s graphs (baseline: random sampling)\n",
		classFigure[class], class)
	fmt.Fprintf(w, "%-28s %-8s %10s %9s %8s %8s\n", "Graph", "config", "time", "speedup", "quality", "err%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-8s %10s %9.2f %8.4f %8.2f\n",
			r.Dataset.Name, r.Label, fmtDur(r.Time), r.Speedup, r.Quality, r.ErrorPct)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// FprintCompareChart renders a Fig. 4-style comparison as a speedup bar
// chart with quality annotations (mirroring how the paper annotates its
// histogram bars with speedup values).
func FprintCompareChart(w io.Writer, title string, rows []CompareRow) {
	bars := make([]viz.Bar, 0, len(rows))
	for _, r := range rows {
		bars = append(bars, viz.Bar{
			Label: r.Dataset.Name,
			Value: r.Speedup,
			Note:  fmt.Sprintf("quality %.4f (random %.4f)", r.CumQuality, r.RandomQuality),
		})
	}
	viz.BarChart(w, title+" — speedup over random sampling", bars, 40)
}

// FprintFigClassChart renders a Fig. 6–9-style ablation as grouped speedup
// bars.
func FprintFigClassChart(w io.Writer, class gen.Class, rows []ConfigResult) {
	bars := make([]viz.Bar, 0, len(rows))
	for _, r := range rows {
		bars = append(bars, viz.Bar{
			Label: r.Dataset.Name + " " + r.Label,
			Value: r.Speedup,
			Note:  fmt.Sprintf("quality %.4f", r.Quality),
		})
	}
	viz.BarChart(w, fmt.Sprintf("%s (%s graphs) — relative speedup", classFigure[class], class), bars, 40)
}

// FprintFig5Histograms renders the two AR distributions as histograms —
// the textual analogue of the paper's Fig. 5 scatter plots.
func FprintFig5Histograms(w io.Writer, r *Fig5Result) {
	const bins = 12
	c1, min1, w1 := stats.Histogram(r.RandomAR, bins)
	viz.Histogram(w, fmt.Sprintf("Fig 5(a) random sampling AR distribution on %s", r.Dataset.Name), c1, min1, w1, 36)
	c2, min2, w2 := stats.Histogram(r.BiCCAR, bins)
	viz.Histogram(w, fmt.Sprintf("Fig 5(b) BiCC sampling AR distribution on %s", r.Dataset.Name), c2, min2, w2, 36)
}

// AblationRow is one configuration of the beyond-the-paper ablation table.
type AblationRow struct {
	Dataset  gen.Dataset
	Label    string
	Time     time.Duration
	Quality  float64
	ErrorPct float64
	Reduced  int
}

// Ablations runs the design-choice comparison DESIGN.md calls out, on one
// representative graph per class: the weighted estimator against the
// paper-literal scaling.
func Ablations(cfg Config, fraction float64) ([]AblationRow, error) {
	var out []AblationRow
	for _, ds := range classDatasets(cfg) {
		g := ds.Build()
		actual := exactFor(cfg, ds, g)
		variants := []struct {
			label string
			opts  core.Options
		}{
			{"weighted-est", core.Options{Techniques: core.TechCumulative, SampleFraction: fraction}},
			{"paper-est", core.Options{Techniques: core.TechCumulative, SampleFraction: fraction, Estimator: core.EstimatorPaper}},
		}
		for _, v := range variants {
			v.opts.Workers = cfg.Workers
			v.opts.Seed = cfg.Seed
			start := time.Now()
			res, err := core.Estimate(g, v.opts)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %v", ds.Name, v.label, err)
			}
			out = append(out, AblationRow{
				Dataset:  ds,
				Label:    v.label,
				Time:     time.Since(start),
				Quality:  stats.Quality(res.Farness, actual),
				ErrorPct: stats.AvgErrorPercent(res.Farness, actual),
				Reduced:  res.Stats.ReducedNodes,
			})
		}
	}
	return out, nil
}

// FprintAblations renders the ablation table.
func FprintAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Ablations (beyond the paper): estimator")
	fmt.Fprintf(w, "%-28s %-16s %10s %8s %8s %9s\n", "Graph", "variant", "time", "quality", "err%", "reduced")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-16s %10s %8.4f %8.2f %9d\n",
			r.Dataset.Name, r.Label, fmtDur(r.Time), r.Quality, r.ErrorPct, r.Reduced)
	}
}

// SweepPoint is one sampling fraction's measurement in the crossover sweep.
type SweepPoint struct {
	Fraction                  float64
	RandQuality, CumQuality   float64
	RandErrorPct, CumErrorPct float64
	RandTime, CumTime         time.Duration
}

// FractionSweep measures quality and time for both approaches across
// sampling fractions on one representative graph per class — the series
// behind the paper's Fig. 4 claim that cumulative@20% ≥ random@30%.
func FractionSweep(cfg Config, class gen.Class, fractions []float64) ([]SweepPoint, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	var ds gen.Dataset
	for _, d := range gen.Datasets(cfg.scale()) {
		if d.Class == class {
			ds = d
			break
		}
	}
	g := ds.Build()
	actual := exactFor(cfg, ds, g)
	var out []SweepPoint
	for _, f := range fractions {
		start := time.Now()
		rnd, err := core.RandomSampling(g, f, cfg.Workers, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s random @%g: %v", ds.Name, f, err)
		}
		randTime := time.Since(start)
		start = time.Now()
		cum, err := core.Estimate(g, core.Options{
			Techniques:     core.TechCumulative,
			SampleFraction: f,
			Workers:        cfg.Workers,
			Seed:           cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%s @%g: %v", ds.Name, f, err)
		}
		out = append(out, SweepPoint{
			Fraction:     f,
			RandQuality:  stats.Quality(rnd.Farness, actual),
			CumQuality:   stats.Quality(cum.Farness, actual),
			RandErrorPct: stats.AvgErrorPercent(rnd.Farness, actual),
			CumErrorPct:  stats.AvgErrorPercent(cum.Farness, actual),
			RandTime:     randTime,
			CumTime:      time.Since(start),
		})
	}
	return out, nil
}

// FprintSweep renders the sweep with error sparklines.
func FprintSweep(w io.Writer, class gen.Class, pts []SweepPoint) {
	fmt.Fprintf(w, "Sampling-fraction sweep (%s class): cumulative vs random\n", class)
	fmt.Fprintf(w, "%8s %10s %8s %10s %10s %8s %10s\n",
		"fraction", "RandQual", "RandErr%", "RandTime", "CumQual", "CumErr%", "CumTime")
	var randErr, cumErr []float64
	for _, p := range pts {
		fmt.Fprintf(w, "%8.2f %10.4f %8.2f %10s %10.4f %8.2f %10s\n",
			p.Fraction, p.RandQuality, p.RandErrorPct, fmtDur(p.RandTime),
			p.CumQuality, p.CumErrorPct, fmtDur(p.CumTime))
		randErr = append(randErr, p.RandErrorPct)
		cumErr = append(cumErr, p.CumErrorPct)
	}
	fmt.Fprintf(w, "error%% vs fraction: random %s  cumulative %s\n",
		viz.Sparkline(randErr), viz.Sparkline(cumErr))
}
