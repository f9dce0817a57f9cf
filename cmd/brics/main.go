// Command brics estimates (or exactly computes) the farness centrality of
// every node of a graph.
//
// Usage:
//
//	brics -input graph.txt[.gz] [-techniques BRIC] [-fraction 0.2]
//	      [-exact] [-workers N] [-seed S] [-output out.csv] [-top K]
//	brics convert -input graph.txt[.gz] [-output graph.bricsbin]
//	      [-connect] [-verify] [-workers N]
//
// The input is a SNAP edge list, Matrix Market, DIMACS or .bricsbin file;
// disconnected inputs are connected with bridge edges (the paper's
// preprocessing). Without -input, a synthetic dataset can be selected with
// -dataset (see cmd/experiments -list).
//
// The convert subcommand parses the input once and writes a binary CSR
// artifact (.bricsbin) that bricsd and every other tool load back at
// page-cache speed — mmap on linux — instead of re-parsing text.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bincsr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	repro_io "repro/internal/io"
	"repro/internal/topk"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "convert" {
		convertMain(os.Args[2:])
		return
	}
	var (
		input      = flag.String("input", "", "input graph file (SNAP edge list or .mtx, optionally .gz)")
		dataset    = flag.String("dataset", "", "synthetic dataset name instead of -input (e.g. 'osm-luxembourg')")
		scale      = flag.Float64("scale", 1.0, "synthetic dataset scale factor")
		techniques = flag.String("techniques", "BRIC", "enabled reductions: any of B,R,I,C (S is implied)")
		fraction   = flag.Float64("fraction", 0.2, "sampling fraction in (0,1]")
		exact      = flag.Bool("exact", false, "compute exact farness (one BFS per node) instead of estimating")
		baseline   = flag.Bool("random", false, "run the random-sampling baseline instead of BRICS")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "sampling seed")
		output     = flag.String("output", "", "write node,farness,exact CSV here ('-' = stdout)")
		top        = flag.Int("top", 10, "print the K most central (lowest farness) nodes")
		topkExact  = flag.Int("topk-exact", 0, "verified top-K mode: print the exact K most central nodes via estimate-then-verify and exit")
		adaptive   = flag.Bool("adaptive", false, "escalate the sampling fraction until estimates stabilise")
	)
	flag.Parse()

	g, name, err := loadInput(*input, *dataset, *scale)
	if err != nil {
		fatal(err)
	}
	if !graph.IsConnected(g) {
		fmt.Fprintf(os.Stderr, "input disconnected; adding bridge edges (paper preprocessing)\n")
		g = graph.Connect(g)
	}
	fmt.Printf("graph %s: %d nodes, %d edges\n", name, g.NumNodes(), g.NumEdges())

	if *topkExact > 0 {
		tech, err := parseTechniques(*techniques)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		res, err := topk.Closeness(g, *topkExact, topk.Options{
			Estimate: core.Options{
				Techniques:     tech,
				SampleFraction: *fraction,
				Workers:        *workers,
				Seed:           *seed,
			},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("verified top-%d in %v (%d exact traversals, certain=%v):\n",
			*topkExact, time.Since(start).Round(time.Millisecond), res.Verified, res.Certain)
		for i, v := range res.Nodes {
			fmt.Printf("  %2d. node %8d  farness %14.1f\n", i+1, v, res.Farness[i])
		}
		return
	}

	var farness []float64
	var exactFlags []bool
	start := time.Now()
	switch {
	case *exact:
		farness = core.ExactFarness(g, *workers)
		exactFlags = make([]bool, len(farness))
		for i := range exactFlags {
			exactFlags[i] = true
		}
		fmt.Printf("exact farness in %v\n", time.Since(start).Round(time.Millisecond))
	case *baseline:
		res, err := core.RandomSampling(g, *fraction, *workers, *seed)
		if err != nil {
			fatal(err)
		}
		farness, exactFlags = res.Farness, res.Exact
		fmt.Printf("random sampling (%d sources) in %v\n", res.Stats.Samples, time.Since(start).Round(time.Millisecond))
	default:
		tech, err := parseTechniques(*techniques)
		if err != nil {
			fatal(err)
		}
		var res *core.Result
		if *adaptive {
			ares, aerr := core.EstimateAdaptive(g, core.AdaptiveOptions{
				Base: core.Options{Techniques: tech, Workers: *workers, Seed: *seed},
			})
			if aerr != nil {
				fatal(aerr)
			}
			fmt.Printf("adaptive rounds (fractions): %v  drifts: %v\n", ares.Rounds, ares.Drifts)
			res = &ares.Result
		} else {
			res, err = core.Estimate(g, core.Options{
				Techniques:     tech,
				SampleFraction: *fraction,
				Workers:        *workers,
				Seed:           *seed,
			})
			if err != nil {
				fatal(err)
			}
		}
		farness, exactFlags = res.Farness, res.Exact
		s := res.Stats
		fmt.Printf("%s estimate in %v: reduced %d->%d nodes (%d twins, %d chain, %d redundant), %d blocks (max %d), %d samples\n",
			tech, time.Since(start).Round(time.Millisecond),
			g.NumNodes(), s.ReducedNodes,
			s.Reduction.IdenticalNodes, s.Reduction.ChainNodes, s.Reduction.RedundantNodes,
			s.Blocks.Count, s.Blocks.Max, s.Samples)
	}

	printTop(farness, *top)

	if *output != "" {
		w := os.Stdout
		if *output != "-" {
			f, err := os.Create(*output)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := repro_io.WriteFarnessCSV(w, farness, exactFlags); err != nil {
			fatal(err)
		}
		if *output != "-" {
			fmt.Printf("wrote %s\n", *output)
		}
	}
}

// convertMain implements `brics convert`: parse once, write a .bricsbin
// artifact. Connectivity is resolved at convert time — either the input is
// already connected or -connect (default) bridges it — so the artifact
// carries FlagConnected and servers loading it skip the O(n+m) scan.
func convertMain(args []string) {
	fs := flag.NewFlagSet("brics convert", flag.ExitOnError)
	var (
		input   = fs.String("input", "", "input graph file (edge list, .mtx, .gr, .bricsbin, optionally .gz)")
		dataset = fs.String("dataset", "", "synthetic dataset name instead of -input")
		scale   = fs.Float64("scale", 1.0, "synthetic dataset scale factor")
		output  = fs.String("output", "", "output artifact path (default: input with a .bricsbin extension)")
		connect = fs.Bool("connect", true, "bridge a disconnected input (paper preprocessing); the artifact then records connectivity")
		verify  = fs.Bool("verify", true, "re-read the artifact with full checksum and structure verification after writing")
		workers = fs.Int("workers", 0, "verification scan width (0 = GOMAXPROCS)")
	)
	_ = fs.Parse(args)

	g, name, err := loadInput(*input, *dataset, *scale)
	if err != nil {
		fatal(err)
	}
	out := *output
	if out == "" {
		if *input == "" {
			fatal(fmt.Errorf("-output is required with -dataset"))
		}
		base := strings.TrimSuffix(*input, ".gz")
		if i := strings.LastIndexByte(base, '.'); i > strings.LastIndexByte(base, '/') {
			base = base[:i]
		}
		out = base + ".bricsbin"
	}

	var flags bincsr.Flags
	switch {
	case graph.IsConnected(g):
		flags |= bincsr.FlagConnected
	case *connect:
		fmt.Fprintln(os.Stderr, "input disconnected; adding bridge edges (paper preprocessing)")
		g = graph.Connect(g)
		flags |= bincsr.FlagConnected
	}

	start := time.Now()
	if err := bincsr.WriteFile(out, g, flags); err != nil {
		fatal(err)
	}
	wrote := time.Since(start)
	st, err := os.Stat(out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("converted %s -> %s: %d nodes, %d edges, %d bytes, connected=%v, in %v\n",
		name, out, g.NumNodes(), g.NumEdges(), st.Size(),
		flags&bincsr.FlagConnected != 0, wrote.Round(time.Millisecond))

	if *verify {
		start = time.Now()
		f, err := os.Open(out)
		if err != nil {
			fatal(err)
		}
		art, err := bincsr.ReadWorkers(bufio.NewReaderSize(f, 1<<20), *workers)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("verify: %w", err))
		}
		if art.G.NumNodes() != g.NumNodes() || art.G.NumEdges() != g.NumEdges() {
			fatal(fmt.Errorf("verify: artifact shape (%d,%d) differs from source (%d,%d)",
				art.G.NumNodes(), art.G.NumEdges(), g.NumNodes(), g.NumEdges()))
		}
		fmt.Printf("verified (checksums + structure) in %v\n", time.Since(start).Round(time.Millisecond))
	}
}

func loadInput(input, dataset string, scale float64) (*graph.Graph, string, error) {
	switch {
	case input != "":
		g, err := repro_io.ReadAny(input)
		return g, input, err
	case dataset != "":
		ds, ok := gen.ByName(dataset, scale)
		if !ok {
			return nil, "", fmt.Errorf("unknown dataset %q (see cmd/experiments -list)", dataset)
		}
		return ds.Build(), ds.Name, nil
	default:
		return nil, "", fmt.Errorf("one of -input or -dataset is required")
	}
}

func parseTechniques(s string) (core.Technique, error) {
	return core.ParseTechniques(s)
}

func printTop(farness []float64, k int) {
	if k <= 0 || len(farness) == 0 {
		return
	}
	if k > len(farness) {
		k = len(farness)
	}
	ord := make([]int, len(farness))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(i, j int) bool { return farness[ord[i]] < farness[ord[j]] })
	fmt.Printf("top %d most central nodes (lowest farness):\n", k)
	for _, v := range ord[:k] {
		fmt.Printf("  node %8d  farness %14.1f  closeness %.3e\n", v, farness[v], 1/farness[v])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brics:", err)
	os.Exit(1)
}
