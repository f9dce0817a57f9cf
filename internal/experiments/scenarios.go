package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/bfs"
	"repro/internal/bincsr"
	"repro/internal/gen"
	"repro/internal/graph"
	repro_io "repro/internal/io"
	"repro/internal/reduce"
	"repro/internal/sketch"
)

// workerSweep is the one worker axis of the layer studies: 1, 2, 4, ... up
// to GOMAXPROCS, and GOMAXPROCS itself.
func workerSweep() []int {
	p := runtime.GOMAXPROCS(0)
	var sweep []int
	for w := 1; w < p; w *= 2 {
		sweep = append(sweep, w)
	}
	return append(sweep, p)
}

// reductionStudy times the preprocessing pipeline per worker count.
var reductionStudy = study{
	name:     "reduction",
	baseline: "workers=1",
	note: "One op is reduce.Run(g, reduce.All()), the pipeline core.Estimate runs for every " +
		"request, on the generated graph. Its output is identical at every worker count. stages_ns " +
		"is reduce.Timings; rounds (the iterative fixpoint) is zero because no request iterates.",
	setup: func(cfg Config, ds gen.Dataset) (dataset, error) {
		g := ds.Build()
		d := dataset{nodes: g.NumNodes(), edges: g.NumEdges()}
		for _, w := range workerSweep() {
			opts := reduce.All()
			opts.Workers = w
			d.cells = append(d.cells, cell{
				config: map[string]any{"workers": w},
				op: func() (map[string]int64, error) {
					red, err := reduce.Run(g, opts)
					if err != nil {
						return nil, err
					}
					t := red.Timings
					return map[string]int64{"twins": int64(t.Twins), "chains": int64(t.Chains),
						"redundant": int64(t.Redundant), "rounds": int64(t.Rounds)}, nil
				},
			})
		}
		return d, nil
	},
}

// sketchPairs is the size of the sketch study's random pair set.
const sketchPairs = 256

// sketchStudy times the three /v1/distance answering modes and the build.
var sketchStudy = study{
	name:     "sketch",
	baseline: "op=query mode=exact",
	note: "A query op is one sweep of bfs.PointToPoint (exact), sketch.Bounds (sketch) or Bounds " +
		"with a BFS when lower != upper (auto) over a fixed random pair set of the connected " +
		"graph; qps counts pairs. The build op is sketch.Build, so its speedup is the fraction of " +
		"a build one exact sweep costs. Gate: lower <= exact <= upper on every pair.",
	setup: func(cfg Config, ds gen.Dataset) (dataset, error) {
		g := graph.Connect(ds.Build())
		n := g.NumNodes()
		rng := rand.New(rand.NewSource(cfg.Seed))
		pairs := make([][2]graph.NodeID, sketchPairs)
		for i := range pairs {
			pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		}
		sopts := sketch.Options{Workers: cfg.Workers}
		sk := sketch.Build(g, sopts)
		bounds := map[string]float64{}
		gate := func() error {
			tight, gap, overshoot := 0, 0.0, 0.0
			for _, p := range pairs {
				d := bfs.PointToPoint(g, p[0], p[1])
				lo, hi, ok := sk.Bounds(p[0], p[1])
				if !ok || lo > d || d > hi {
					return fmt.Errorf("bounds [%d,%d] (ok=%v) exclude exact d(%d,%d)=%d", lo, hi, ok, p[0], p[1], d)
				}
				if lo == hi {
					tight++
				}
				gap += float64(hi - lo)
				overshoot += float64(hi - d)
			}
			bounds["tight_bound_fraction"] = float64(tight) / sketchPairs
			bounds["mean_bound_gap"] = gap / sketchPairs
			bounds["mean_upper_error"] = overshoot / sketchPairs
			return nil
		}
		query := func(mode string, q func(u, v graph.NodeID)) cell {
			return cell{
				config: map[string]any{"op": "query", "mode": mode},
				gate:   gate,
				op: func() (map[string]int64, error) {
					for _, p := range pairs {
						q(p[0], p[1])
					}
					return nil, nil
				},
				queries: sketchPairs,
				metrics: bounds,
			}
		}
		return dataset{nodes: n, edges: g.NumEdges(), cells: []cell{
			query("exact", func(u, v graph.NodeID) { bfs.PointToPoint(g, u, v) }),
			query("sketch", func(u, v graph.NodeID) { sk.Bounds(u, v) }),
			query("auto", func(u, v graph.NodeID) {
				if lo, hi, ok := sk.Bounds(u, v); !ok || lo != hi {
					bfs.PointToPoint(g, u, v)
				}
			}),
			{
				config:  map[string]any{"op": "build"},
				op:      func() (map[string]int64, error) { sketch.Build(g, sopts); return nil, nil },
				metrics: map[string]float64{"clusters": float64(sk.Clusters()), "bytes": float64(sk.Bytes())},
			},
		}}, nil
	},
}

// loadStudy times time-to-first-query through the three load paths, with a
// warm page cache: the registry's steady state.
var loadStudy = study{
	name:     "load",
	baseline: "path=text",
	note: "One op loads the connected graph through one path (text edge-list parse, buffered " +
		"binary CSR read, mmap zero-copy open) and runs one full BFS from node 0. stages_ns splits " +
		"open (for mmap: map + header/offsets verify, no edge page touched) from first_traversal " +
		"(where mmap's edge pages fault in). Gate: every path's CSR is word-identical to the " +
		"generated graph and its BFS checksum matches.",
	setup: func(cfg Config, ds gen.Dataset) (dataset, error) {
		g := graph.Connect(ds.Build())
		dir, err := os.MkdirTemp("", "brics-load")
		if err != nil {
			return dataset{}, err
		}
		d := dataset{nodes: g.NumNodes(), edges: g.NumEdges(), cleanup: func() { os.RemoveAll(dir) }}
		txt, bin := filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.bricsbin")
		var text bytes.Buffer
		err = errors.Join(repro_io.WriteEdgeList(&text, g), bincsr.WriteFile(bin, g, bincsr.FlagConnected))
		if err == nil {
			err = os.WriteFile(txt, text.Bytes(), 0o644)
		}
		var st os.FileInfo
		if err == nil {
			st, err = os.Stat(bin)
		}
		if err != nil {
			d.cleanup()
			return dataset{}, err
		}
		size := map[string]int64{"text": int64(text.Len()), "binary": st.Size(), "mmap": st.Size()}
		// load opens the graph through one path; done unmaps an mmap.
		load := func(path string) (got *graph.Graph, done func() error, err error) {
			done = func() error { return nil }
			switch path {
			case "text":
				got, err = repro_io.ReadAny(txt)
			case "binary":
				var a *bincsr.Artifact
				if a, err = bincsr.ReadFile(bin); err == nil {
					got = a.G
				}
			default:
				var m *bincsr.Mapped
				if m, err = bincsr.OpenMapped(bin, bincsr.Options{Workers: cfg.Workers}); err == nil {
					got, done = m.G, m.Close
				}
			}
			return got, done, err
		}
		want := firstQuery(g)
		for _, path := range []string{"text", "binary", "mmap"} {
			d.cells = append(d.cells, cell{
				config:  map[string]any{"path": path},
				metrics: map[string]float64{"bytes": float64(size[path])},
				gate: func() error {
					got, done, err := load(path)
					if err == nil {
						err = checkLoaded(g, got, want)
					}
					return errors.Join(err, done())
				},
				op: func() (map[string]int64, error) {
					start := time.Now()
					got, done, err := load(path)
					if err != nil {
						return nil, err
					}
					opened := time.Since(start)
					firstQuery(got)
					traversed := time.Since(start) - opened
					return map[string]int64{"open": int64(opened), "first_traversal": int64(traversed)}, done()
				},
			})
		}
		return d, nil
	},
}

// firstQuery answers one full BFS from node 0 and folds the distances so
// the traversal cannot be optimised away. It walks every CSR page once,
// exactly the access pattern that makes a lazy mmap load pay its deferred
// cost.
func firstQuery(g *graph.Graph) int64 {
	dist := make([]int32, g.NumNodes())
	bfs.Distances(g, 0, dist, nil)
	var sum int64
	for _, d := range dist {
		sum += int64(d)
	}
	return sum
}

// checkLoaded fails unless got holds want's CSR words and answers the first
// query with checksum sum. Every traversal kernel is deterministic on the
// CSR words, so identical CSR means bit-identical farness at every worker
// count.
func checkLoaded(want, got *graph.Graph, sum int64) error {
	wo, wa := want.CSR()
	gotO, gotA := got.CSR()
	if !slices.Equal(wo, gotO) || !slices.Equal(wa, gotA) {
		return errors.New("load path returned a different CSR")
	}
	if q := firstQuery(got); q != sum {
		return fmt.Errorf("BFS checksum %d, want %d", q, sum)
	}
	return nil
}
