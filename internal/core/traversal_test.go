package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
)

// pinSweepWidth makes every sweep-width decision in this package return
// width until the test ends. maxK, when non-nil, records the largest source
// count any decision was asked about.
func pinSweepWidth(t *testing.T, width int, maxK *int) {
	old := sweepWidth
	t.Cleanup(func() { sweepWidth = old })
	sweepWidth = func(k int) int {
		if maxK != nil && k > *maxK {
			*maxK = k
		}
		return width
	}
}

// TestTraversalAutoPolicy pins the traversal policy: every unit sweeps
// bfs.MSBFSWidth lanes wide, whatever its source count.
func TestTraversalAutoPolicy(t *testing.T) {
	for _, k := range []int{1, 4, 7, 8, bfs.MSBFSWidth + 1, 1000} {
		if got := sweepWidth(k); got != bfs.MSBFSWidth {
			t.Errorf("sweepWidth(%d) = %d, want %d", k, got, bfs.MSBFSWidth)
		}
	}
}

// sweepCase is a sample fraction of the 1000-node test graphs that puts the
// 64-lane sweeps on one side of the clustering rule: at loFraction no
// traversal unit holds more than one sweep (sample-draw order), at
// hiFraction one does (clustered order).
type sweepCase struct {
	name      string
	fraction  float64
	clustered bool
}

const loFraction, hiFraction = 0.04, 0.5

var (
	traversalCases = []sweepCase{
		{"batched", loFraction, false},
	}
	batchingCases = []sweepCase{
		{"batched", loFraction, false},
		{"batched-clustered", hiFraction, true},
	}
)

// assertSweepWidthsIdentical runs est with 64-lane sweeps for each case at
// workers {1,2,4} and fails unless every run equals the 1-lane run at one
// worker bit for bit — farness, Exact and Samples: every width is an integer
// accumulation over the same sampled rows, so any divergence is a kernel
// bug, not estimator noise. It also checks, through the hook, that the
// largest unit fell on the intended side of the clustering rule.
func assertSweepWidthsIdentical(t *testing.T, cases []sweepCase, est func(fraction float64, workers int) (*Result, error)) {
	t.Helper()
	want := map[float64]*Result{}
	for _, c := range cases {
		if want[c.fraction] != nil {
			continue
		}
		pinSweepWidth(t, 1, nil)
		res, err := est(c.fraction, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[c.fraction] = res
	}
	for _, c := range cases {
		for _, w := range []int{1, 2, 4} {
			maxK := 0
			pinSweepWidth(t, bfs.MSBFSWidth, &maxK)
			got, err := est(c.fraction, w)
			if err != nil {
				t.Fatal(err)
			}
			if clustered := maxK > bfs.MSBFSWidth; clustered != c.clustered {
				t.Fatalf("%s: largest unit has %d sources; want clustered=%v", c.name, maxK, c.clustered)
			}
			assertSameResult(t, fmt.Sprintf("%s workers=%d", c.name, w), want[c.fraction], got)
		}
	}
}

// estimateTechs are the global (C+R, I+C+R) and cumulative (BiCC)
// estimators, whose sweeps run on the reduced graph and inside blocks.
var estimateTechs = []Technique{TechCR, TechICR, TechCumulative}

// TestRandomSamplingTraversalModesIdentical: 64-lane sweeps reproduce 1-lane
// sweeps in the unreduced random-sampling baseline on the four generator
// families.
func TestRandomSamplingTraversalModesIdentical(t *testing.T) {
	for _, fam := range relabelFamilies() {
		g := fam.gen(1000, 5)
		t.Run(fam.name, func(t *testing.T) {
			assertSweepWidthsIdentical(t, traversalCases, func(fraction float64, workers int) (*Result, error) {
				return RandomSampling(g, fraction, workers, 7)
			})
		})
	}
}

// TestEstimateTraversalModesIdentical checks the same invariant through the
// full estimator stack, for every global and cumulative technique.
func TestEstimateTraversalModesIdentical(t *testing.T) {
	for _, fam := range relabelFamilies() {
		g := fam.gen(1000, 5)
		for _, tech := range estimateTechs {
			t.Run(fam.name+"/"+tech.String(), func(t *testing.T) {
				assertSweepWidthsIdentical(t, traversalCases, func(fraction float64, workers int) (*Result, error) {
					return Estimate(g, Options{Techniques: tech, SampleFraction: fraction, Workers: workers, Seed: 3})
				})
			})
		}
	}
}

// TestRandomSamplingBatchingBitIdentical covers the 64-lane sweeps of the
// random-sampling baseline on both sides of the clustering rule.
func TestRandomSamplingBatchingBitIdentical(t *testing.T) {
	for _, fam := range relabelFamilies() {
		g := fam.gen(1000, 11)
		t.Run(fam.name, func(t *testing.T) {
			assertSweepWidthsIdentical(t, batchingCases, func(fraction float64, workers int) (*Result, error) {
				return RandomSampling(g, fraction, workers, 5)
			})
		})
	}
}

// TestEstimateBatchingBitIdentical covers the 64-lane sweeps on both sides
// of the clustering rule in every global and cumulative technique, on the
// generator's layout and on its BFS-ordered copy (relabel=<mode> names the
// input layout; under bfs the graph's own ids already are BFS positions).
func TestEstimateBatchingBitIdentical(t *testing.T) {
	for _, fam := range relabelFamilies() {
		base := fam.gen(1000, 42)
		for _, tech := range estimateTechs {
			for _, rel := range []string{"none", "bfs"} {
				g := base
				if rel == "bfs" {
					g = graph.Permute(base, graph.BFSOrder(base.ToWeighted(), 0))
				}
				t.Run(fmt.Sprintf("%s/%s/relabel=%s", fam.name, tech, rel), func(t *testing.T) {
					assertSweepWidthsIdentical(t, batchingCases, func(fraction float64, workers int) (*Result, error) {
						return Estimate(g, Options{Techniques: tech, SampleFraction: fraction, Workers: workers, Seed: 7})
					})
				})
			}
		}
	}
}

// TestClusterOrder: sources that fit one batch keep sample-draw order
// without computing positions; larger sets sort by position, ties by index.
func TestClusterOrder(t *testing.T) {
	few := make([]graph.NodeID, bfs.MSBFSWidth)
	if clusterOrder(few, func() []graph.NodeID { panic("positions computed for one batch") }) != nil {
		t.Fatal("one batch was reordered")
	}
	many := make([]graph.NodeID, bfs.MSBFSWidth+2)
	pos := make([]graph.NodeID, len(many))
	for i := range many {
		many[i] = graph.NodeID(i)
		pos[i] = graph.NodeID(len(many) - 1 - i)
	}
	many[0] = many[1] // a tie: index order must break it
	order := clusterOrder(many, func() []graph.NodeID { return pos })
	got := permuted(many, order)
	for i := 1; i < len(got); i++ {
		if pos[got[i-1]] > pos[got[i]] || (got[i-1] == got[i] && order[i-1] > order[i]) {
			t.Fatalf("not sorted by position then index at %d: %v", i, order)
		}
	}
}

// traverseTestUnits returns an unweighted and a weighted unit, each with
// more than one batch of distinct sources.
func traverseTestUnits() []unit {
	rng := rand.New(rand.NewSource(3))
	social := gen.Social(600, 2).ToWeighted()
	road := gen.Road(700, 4)
	wb := graph.NewWBuilder(road.NumNodes())
	for u := 0; u < road.NumNodes(); u++ {
		for _, v := range road.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < v {
				_ = wb.AddEdge(graph.NodeID(u), v, 1+rng.Int31n(6))
			}
		}
	}
	weighted := wb.Build()
	units := []unit{{unitGraph: newUnitGraph(social)}, {unitGraph: newUnitGraph(weighted)}}
	for i, k := range []int{100, 70} {
		for _, j := range rng.Perm(units[i].g.NumNodes())[:k] {
			units[i].sources = append(units[i].sources, graph.NodeID(j))
		}
	}
	return units
}

// rowSink is the row-space reference consumer: it rebuilds every lane's
// distance row from the sweep's visits and hands the rows to row when the
// sweep finishes. It counts (lane, node) pairs visited twice in dups.
type rowSink struct {
	units []unit
	row   func(u int, src graph.NodeID, dist []int32)
	u     int
	srcs  []graph.NodeID
	rows  [][]int32
	dups  int
}

func rowSinks(units []unit, row func(u int, src graph.NodeID, dist []int32), sinks *[]*rowSink, mu *sync.Mutex) func(int) laneSink {
	return func(int) laneSink {
		s := &rowSink{units: units, row: row}
		mu.Lock()
		*sinks = append(*sinks, s)
		mu.Unlock()
		return laneSink{s.start, s.visit, s.finish}
	}
}

func (s *rowSink) start(u int, srcs []graph.NodeID) {
	s.u, s.srcs, s.rows = u, srcs, make([][]int32, len(srcs))
	for i := range s.rows {
		s.rows[i] = make([]int32, s.units[u].g.NumNodes())
		bfs.Fill(s.rows[i])
	}
}

func (s *rowSink) visit(v graph.NodeID, mask uint64, d int32) {
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		if s.rows[lane][v] != bfs.Unreached {
			s.dups++
		}
		s.rows[lane][v] = d
	}
}

func (s *rowSink) finish() {
	for i, src := range s.srcs {
		s.row(s.u, src, s.rows[i])
	}
}

// TestTraverseRowsMatchKernels pins 1- and 64-lane sweeps at workers {1,2,4} and
// requires the driver to deliver every (unit, source) row exactly once,
// each (lane, node) pair once, equal to the plain Dial kernel; a
// pre-canceled context to deliver nothing and return ErrCanceled; a cancel
// mid-run to return nil exactly when every row landed; and, at one worker,
// every row of a first source to arrive before any other row.
func TestTraverseRowsMatchKernels(t *testing.T) {
	units := traverseTestUnits()
	want := make([]map[graph.NodeID][]int32, len(units))
	for u, un := range units {
		want[u] = map[graph.NodeID][]int32{}
		for _, src := range un.sources {
			row := make([]int32, un.g.NumNodes())
			bfs.WDistances(un.g, src, row, nil)
			want[u][src] = row
		}
	}
	// first picks every third source of each unit.
	first := func(u int, src graph.NodeID) bool { return int(src)%3 == u }
	for _, width := range []int{1, bfs.MSBFSWidth} {
		for _, workers := range []int{1, 2, 4} {
			pinSweepWidth(t, width, nil)
			label := fmt.Sprintf("width=%d workers=%d", width, workers)
			var mu sync.Mutex
			seen := make([]map[graph.NodeID]bool, len(units))
			for u := range seen {
				seen[u] = map[graph.NodeID]bool{}
			}
			var order []bool // whether each delivered row was a first source
			var sinks []*rowSink
			err := traverse(context.Background(), units, workers, first, rowSinks(units, func(u int, src graph.NodeID, dist []int32) {
				mu.Lock()
				defer mu.Unlock()
				if seen[u][src] {
					t.Errorf("%s: unit %d source %d delivered twice", label, u, src)
				}
				seen[u][src] = true
				order = append(order, first(u, src))
				for v, d := range dist {
					if d != want[u][src][v] {
						t.Errorf("%s: unit %d source %d node %d: %d, want %d", label, u, src, v, d, want[u][src][v])
						return
					}
				}
			}, &sinks, &mu))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, s := range sinks {
				if s.dups != 0 {
					t.Fatalf("%s: %d (lane, node) pairs visited twice", label, s.dups)
				}
			}
			for u, un := range units {
				if len(seen[u]) != len(un.sources) {
					t.Fatalf("%s: unit %d delivered %d of %d rows", label, u, len(seen[u]), len(un.sources))
				}
			}
			// First sources run in sweeps of their own, ahead of the others.
			if workers == 1 {
				for i := 1; i < len(order); i++ {
					if order[i] && !order[i-1] {
						t.Fatalf("%s: a first-source row arrived after another row (row %d)", label, i)
					}
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			rows := 0
			err = traverse(ctx, units, workers, first, rowSinks(units, func(int, graph.NodeID, []int32) {
				mu.Lock()
				rows++
				mu.Unlock()
			}, &sinks, &mu))
			if !errors.Is(err, ErrCanceled) || rows != 0 {
				t.Fatalf("%s pre-canceled: err %v, %d rows; want ErrCanceled and none", label, err, rows)
			}

			// A cancel that lands while a sweep lands stops the run after
			// it; the run reports nil exactly when every row landed, so a
			// cancel while the last row lands leaves a whole run.
			total := len(units[0].sources) + len(units[1].sources)
			for _, at := range []int{1, total} {
				ctx, cancel := context.WithCancel(context.Background())
				rows := 0
				err := traverse(ctx, units, workers, first, rowSinks(units, func(int, graph.NodeID, []int32) {
					mu.Lock()
					if rows++; rows == at {
						cancel()
					}
					mu.Unlock()
				}, &sinks, &mu))
				cancel()
				if whole := rows == total; whole != (err == nil) || (err != nil && !errors.Is(err, ErrCanceled)) {
					t.Fatalf("%s canceled at row %d: err %v after %d of %d rows", label, at, err, rows, total)
				}
			}
		}
	}
}
