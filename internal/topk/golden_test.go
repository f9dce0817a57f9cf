package topk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sketch"
)

// hashTopK is the FNV-64a hash of a search's Nodes, Farness, Verified,
// Filtered and Certain.
func hashTopK(res *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for i, v := range res.Nodes {
		put(uint64(v))
		put(math.Float64bits(res.Farness[i]))
	}
	put(uint64(res.Verified))
	put(uint64(res.Filtered))
	if res.Certain {
		put(1)
	} else {
		put(0)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenTopK pins top-10 searches to committed hashes: four generator
// families at 1500 nodes × seeds 1–5 × sketch filter off and on × MaxVerify
// {0, 9} (BRICS, fraction 0.2, two workers). A cap of 9 leaves one
// verification after the first 8-wide prefetch group. A failure names its
// cell.
func TestGoldenTopK(t *testing.T) {
	f, err := os.Open("testdata/golden.txt")
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
	families := []struct {
		name string
		gen  func(int, int64) *graph.Graph
	}{{"web", gen.Web}, {"social", gen.Social}, {"community", gen.Community}, {"road", gen.Road}}
	for _, fam := range families {
		g := graph.Connect(fam.gen(1500, 1))
		sk := sketch.Build(g, sketch.Options{Clusters: 8, Workers: 2})
		for seed := int64(1); seed <= 5; seed++ {
			for _, withSketch := range []bool{false, true} {
				for _, maxVerify := range []int{0, 9} {
					name := fmt.Sprintf("%s/seed=%d/sketch=%v/maxverify=%d", fam.name, seed, withSketch, maxVerify)
					opts := Options{
						Estimate:  core.Options{Techniques: core.TechCumulative, SampleFraction: 0.2, Seed: seed, Workers: 2},
						MaxVerify: maxVerify,
					}
					if withSketch {
						opts.Sketch = sk
					}
					res, err := Closeness(g, 10, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := hashTopK(res); got != want[name] {
						t.Errorf("%s %s: golden %q", name, got, want[name])
					}
				}
			}
		}
	}
}
