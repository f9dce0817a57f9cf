package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
)

// goldenPath holds one line per golden cell: the cell's name and the FNV-64a
// hash of its output.
const goldenPath = "testdata/golden.txt"

// readGolden returns the golden hashes of path by cell name.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, hash, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = hash
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// hashResult is the FNV-64a hash of a result's Farness, Exact and StdErr.
func hashResult(res *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, xs := range [][]float64{res.Farness, res.StdErr} {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	for _, e := range res.Exact {
		if e {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenLattice pins the output of every estimator configuration to a
// committed hash: four generator families at 1500 nodes × masks {none, CR,
// ICR, BRICS} × fractions {0.05, 0.2, 1} × workers {1, 2} × both
// extrapolation rules, with standard errors, seed 7. A change of output
// has to show as a change of testdata/golden.txt; a failure names its cell.
func TestGoldenLattice(t *testing.T) {
	want := readGolden(t, goldenPath)
	masks := []struct {
		name string
		t    Technique
	}{{"none", 0}, {"CR", TechCR}, {"ICR", TechICR}, {"BRICS", TechCumulative}}
	for _, fam := range relabelFamilies() {
		g := graph.Connect(fam.gen(1500, 1))
		for _, m := range masks {
			for _, fraction := range []float64{0.05, 0.2, 1} {
				for _, workers := range []int{1, 2} {
					for _, est := range []EstimatorKind{EstimatorWeighted, EstimatorPaper} {
						name := fmt.Sprintf("%s/%s/f=%g/w=%d/est=%d", fam.name, m.name, fraction, workers, est)
						res, err := Estimate(g, Options{Techniques: m.t, SampleFraction: fraction, Workers: workers,
							Seed: 7, Estimator: est, ComputeStdErr: true})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if got := hashResult(res); got != want[name] {
							t.Errorf("%s %s: golden %q", name, got, want[name])
						}
					}
				}
			}
		}
	}
}
