package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gen"
)

// The experiment tests run at a small scale: they assert the *shape* of
// the paper's results (who wins, which class shows which structure), not
// wall-clock numbers — timings at this scale are too noisy for speedup
// assertions beyond sanity.

func smallCfg() Config { return Config{Scale: 0.08, Workers: 2, Seed: 5} }

func TestTableIShapes(t *testing.T) {
	rows, err := TableI(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	byClass := map[gen.Class][]TableIRow{}
	for _, r := range rows {
		byClass[r.Dataset.Class] = append(byClass[r.Dataset.Class], r)
		if r.Nodes <= 0 || r.Edges <= 0 || r.BlockCount <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Dataset.Name, r)
		}
		if r.ReducedNodes >= r.Nodes {
			t.Errorf("%s: no reduction (%d -> %d)", r.Dataset.Name, r.Nodes, r.ReducedNodes)
		}
	}
	for _, r := range byClass[gen.ClassWeb] {
		if float64(r.IdenticalNodes)/float64(r.Nodes) < 0.15 {
			t.Errorf("web %s: identical fraction too low", r.Dataset.Name)
		}
		if r.RedundantNodes == 0 {
			t.Errorf("web %s: no redundant nodes", r.Dataset.Name)
		}
	}
	for _, r := range byClass[gen.ClassRoad] {
		if r.IdenticalNodes > r.Nodes/50 {
			t.Errorf("road %s: too many identical nodes (%d)", r.Dataset.Name, r.IdenticalNodes)
		}
		if float64(r.ChainNodes)/float64(r.Nodes) < 0.5 {
			t.Errorf("road %s: chain fraction too low (%d of %d)", r.Dataset.Name, r.ChainNodes, r.Nodes)
		}
		// Road networks: few blocks, the largest covering most nodes.
		if float64(r.BlockMax)/float64(r.Nodes) < 0.5 {
			t.Errorf("road %s: largest block covers only %d of %d", r.Dataset.Name, r.BlockMax, r.Nodes)
		}
	}
	var buf bytes.Buffer
	FprintTableI(&buf, rows)
	for _, want := range []string{"web-NotreDame", "usroads", "-- road --", "BiCC#"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

func TestFig4Quality(t *testing.T) {
	rows, err := Fig4(smallCfg(), 0.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Both approaches must land near quality 1 (paper's plots sit in
		// [0.9, 1.1]); small graphs earn some slack.
		if r.CumQuality < 0.85 || r.CumQuality > 1.15 {
			t.Errorf("%s: cumulative quality %v out of range", r.Dataset.Name, r.CumQuality)
		}
		if r.RandomQuality < 0.85 || r.RandomQuality > 1.15 {
			t.Errorf("%s: random quality %v out of range", r.Dataset.Name, r.RandomQuality)
		}
		if r.Speedup <= 0 {
			t.Errorf("%s: nonpositive speedup", r.Dataset.Name)
		}
	}
	var buf bytes.Buffer
	FprintCompare(&buf, "t", rows)
	if !strings.Contains(buf.String(), "Speedup") {
		t.Error("render missing header")
	}
}

func TestFig5Distribution(t *testing.T) {
	res, err := Fig5(smallCfg(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset.Class != gen.ClassSocial {
		t.Fatalf("fig5 dataset class = %s, want social", res.Dataset.Class)
	}
	if len(res.RandomAR) != len(res.BiCCAR) || len(res.RandomAR) == 0 {
		t.Fatal("AR slices inconsistent")
	}
	if res.BiCCSumm.Mean < 0.85 || res.BiCCSumm.Mean > 1.15 {
		t.Errorf("bicc mean AR = %v", res.BiCCSumm.Mean)
	}
	if res.BiCCCorr < 0.9 {
		t.Errorf("bicc correlation = %v, want near 1", res.BiCCCorr)
	}
	var buf bytes.Buffer
	FprintFig5(&buf, res)
	if !strings.Contains(buf.String(), "bicc") {
		t.Error("render missing bicc row")
	}
}

func TestClassConfigs(t *testing.T) {
	if len(ClassConfigs(gen.ClassWeb)) != 3 {
		t.Error("web wants 3 configs")
	}
	if len(ClassConfigs(gen.ClassRoad)) != 2 {
		t.Error("road wants 2 configs")
	}
	if len(ClassConfigs(gen.ClassSocial)) != 3 {
		t.Error("social wants 3 configs")
	}
}

func TestFigClassShapes(t *testing.T) {
	for _, class := range []gen.Class{gen.ClassWeb, gen.ClassSocial, gen.ClassCommunity, gen.ClassRoad} {
		rows, err := FigClass(smallCfg(), class, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		perDataset := len(ClassConfigs(class)) + 1 // + random baseline
		if len(rows) != 3*perDataset {
			t.Fatalf("%s: rows = %d, want %d", class, len(rows), 3*perDataset)
		}
		for _, r := range rows {
			if r.Quality < 0.8 || r.Quality > 1.25 {
				t.Errorf("%s %s %s: quality %v out of range", class, r.Dataset.Name, r.Label, r.Quality)
			}
		}
		var buf bytes.Buffer
		FprintFigClass(&buf, class, rows)
		if !strings.Contains(buf.String(), FigureFor(class)) {
			t.Errorf("render missing figure id for %s", class)
		}
	}
}

func TestFigureFor(t *testing.T) {
	want := map[gen.Class]string{
		gen.ClassWeb: "Fig 6", gen.ClassSocial: "Fig 7",
		gen.ClassCommunity: "Fig 8", gen.ClassRoad: "Fig 9",
	}
	for c, f := range want {
		if FigureFor(c) != f {
			t.Errorf("FigureFor(%s) = %s, want %s", c, FigureFor(c), f)
		}
	}
}

func TestAblationsShapes(t *testing.T) {
	rows, err := Ablations(smallCfg(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// One representative per class, two variants each.
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	byVariant := map[string][]AblationRow{}
	for _, r := range rows {
		byVariant[r.Label] = append(byVariant[r.Label], r)
		if r.Reduced <= 0 || r.Quality <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	// The calibrated estimator must dominate the paper-literal scaling on
	// average (the key ablation finding).
	var wq, pq float64
	for i := range byVariant["weighted-est"] {
		wq += byVariant["weighted-est"][i].Quality
		pq += byVariant["paper-est"][i].Quality
	}
	if !(absf(wq/4-1) < absf(pq/4-1)) {
		t.Errorf("weighted estimator (avg quality %.4f) should beat paper scaling (%.4f)", wq/4, pq/4)
	}
	var buf bytes.Buffer
	FprintAblations(&buf, rows)
	if !strings.Contains(buf.String(), "paper-est") {
		t.Error("render missing variant")
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestChartRenderers(t *testing.T) {
	cfg := smallCfg()
	rows, err := Fig4(cfg, 0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	FprintCompareChart(&buf, "t", rows)
	if !strings.Contains(buf.String(), "speedup over random") || !strings.Contains(buf.String(), "quality") {
		t.Errorf("compare chart: %q", buf.String())
	}
	fc, err := FigClass(cfg, gen.ClassRoad, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	FprintFigClassChart(&buf, gen.ClassRoad, fc)
	if !strings.Contains(buf.String(), "Fig 9") {
		t.Errorf("class chart: %q", buf.String())
	}
	f5, err := Fig5(cfg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	FprintFig5Histograms(&buf, f5)
	if !strings.Contains(buf.String(), "Fig 5(a)") || !strings.Contains(buf.String(), "Fig 5(b)") {
		t.Errorf("fig5 histograms: %q", buf.String())
	}
}

func TestFractionSweep(t *testing.T) {
	pts, err := FractionSweep(smallCfg(), gen.ClassWeb, []float64{0.2, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Fraction != 0.2 || pts[1].Fraction != 0.4 {
		t.Fatalf("points = %+v", pts)
	}
	for _, p := range pts {
		if p.CumQuality < 0.8 || p.CumQuality > 1.2 {
			t.Errorf("quality %v out of range at %v", p.CumQuality, p.Fraction)
		}
	}
	var buf bytes.Buffer
	FprintSweep(&buf, gen.ClassWeb, pts)
	if !strings.Contains(buf.String(), "sweep (web class)") {
		t.Errorf("render: %q", buf.String())
	}
}
