package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// workers is the estimation width of the served handler and of every direct
// call the traced replay makes: the benchmark VM has two vCPUs.
const workers = 2

// Oracle sizes: farness answers are drawn from sampleSize nodes whose exact
// farness is known, and distance queries start from poolSize sources whose
// full BFS rows are known, so every served value is checked by a lookup.
const (
	sampleSize = 512
	poolSize   = 32
	topK       = 10
	// datasetSeed fixes the oracle's node sample and distance sources.
	datasetSeed = 1
	// writePlan is how many add/remove pairs the write workload draws its
	// ops from; every pair returns the graph to its start, so any pair may
	// follow any other.
	writePlan = 800
)

// opKind is what one closed-loop iteration sends.
type opKind int

const (
	// opMiss: POST /v1/estimate with a fresh seed, farness reads of the
	// same run and, for miss-web, GET /v1/topk with the same seed.
	opMiss opKind = iota
	// opFarness, opDistance and opEstimate are hit-social's single-request
	// ops: a cached farness read, a mode=auto distance, a cached estimate.
	opFarness
	opDistance
	opEstimate
	// opWrite: add a non-edge between two nodes with a common neighbour,
	// read farness and two exact distances, remove the edge again and read
	// the same.
	opWrite
)

// op is one closed-loop iteration with every input it sends and, for the
// write workload, the exact answers on the mutated graph.
type op struct {
	id    int
	kind  opKind
	seed  int64
	nodes []graph.NodeID
	pairs [][2]graph.NodeID
	edge  [2]graph.NodeID
	// addFarness and addDist are the exact farness of the nodes read and
	// the exact distances of pairs[0:2] with edge present (write only).
	addFarness []float64
	addDist    [2]int32
}

// workload is one traffic mix over one generated graph.
type workload struct {
	name  string
	conns int
	// graph generates the served graph. It is the same for every workload
	// seed, and so is the node sample the oracle knows, the way a dataset
	// and its evaluation set are: the seed varies the requests, so runs with
	// different seeds measure the same system on the same data.
	graph func() *graph.Graph
	// fraction is the sampling fraction of every estimate the workload
	// requests.
	fraction float64
	// farnessReads is the number of farness reads of a miss op, and of
	// each generation of a write op.
	farnessReads int
	topk         bool
	// warmOps run after the last set-up and before the timed phase.
	warmOps int
	// rssOps is the op count after which peak_rss_mb is read: a fixed
	// amount of work, because miss ops each add a cached result and a
	// faster server would otherwise be charged for doing more ops.
	rssOps int
	// paramSeeds is how many fixed estimate seeds hit-social's cached reads
	// spread over, so the error metric averages that many independent runs.
	// Each costs one warm estimate per set-up.
	paramSeeds int
}

// workloads are the benchmark's traffic mixes; README.md gives the reason
// for each.
var workloads = []*workload{
	{
		// Uncached estimate, farness hits and a sketch-filtered topk:
		// core traversal, bfs and topk verification do the work.
		name: "miss-web", conns: 1, fraction: 0.2, farnessReads: 4, topk: true, warmOps: 2, rssOps: 60,
		graph: func() *graph.Graph { return gen.Web(6000, 1) },
	},
	{
		// Uncached estimate on a 33k-node road graph: chain reduction,
		// bicc and the weighted traversal carry more of the cost.
		name: "miss-road", conns: 1, fraction: 0.02, farnessReads: 16, warmOps: 2, rssOps: 60,
		graph: func() *graph.Graph { return gen.Road(24000, 1) },
	},
	{
		// Cached reads over two connections: server, cache, sketch and
		// bfs.PointToPoint only.
		name: "hit-social", conns: 2, fraction: 0.2, warmOps: 500, paramSeeds: 4, rssOps: 50000,
		graph: func() *graph.Graph { return gen.Social(12000, 1) },
	},
	{
		// Edge add/remove pairs: the dynamic index and the generation swap.
		name: "write-community", conns: 1, fraction: 0.2, farnessReads: 8, warmOps: 2, rssOps: 60,
		graph: func() *graph.Graph { return gen.Community(1000, 1) },
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// world is everything the benchmark derives from the seed before set-up:
// the graph, the request inputs and the oracle that checks the answers.
type world struct {
	wl *workload
	g  *graph.Graph
	// sample holds the nodes farness reads ask for, exact their true
	// farness on the unmodified graph.
	sample []graph.NodeID
	exact  map[graph.NodeID]float64
	// pool holds the distance sources and poolDist their BFS rows.
	pool     []graph.NodeID
	poolDist map[graph.NodeID][]int32
	// allExact is every node's exact farness and topkRef its topK
	// smallest values (miss-web only).
	allExact []float64
	topkRef  []float64
	// paramSeeds are the estimate seeds of hit-social's ops; base holds the
	// direct estimate with each.
	paramSeeds []int64
	base       map[int64]*core.Result
	// plan holds the add/remove pairs write ops are drawn from.
	plan []op
}

// newWorld generates the graph and the oracle. Nothing here is timed.
func newWorld(wl *workload, seed int64) (*world, error) {
	w := &world{wl: wl, g: wl.graph()}
	n := w.g.NumNodes()
	data := rand.New(rand.NewSource(datasetSeed))
	w.sample = distinctNodes(data, n, sampleSize)
	w.pool = distinctNodes(data, n, poolSize)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < wl.paramSeeds; i++ {
		w.paramSeeds = append(w.paramSeeds, rng.Int63())
	}

	w.exact = make(map[graph.NodeID]float64, len(w.sample))
	if wl.topk {
		w.allExact = core.ExactFarness(w.g, workers)
		for _, v := range w.sample {
			w.exact[v] = w.allExact[v]
		}
		sorted := append([]float64(nil), w.allExact...)
		sort.Float64s(sorted)
		w.topkRef = sorted[:topK]
	} else {
		for _, v := range w.sample {
			w.exact[v] = farnessOf(w.g, v)
		}
	}
	w.poolDist = make(map[graph.NodeID][]int32, len(w.pool))
	for _, s := range w.pool {
		w.poolDist[s] = bfsRow(w.g, s)
	}
	w.base = make(map[int64]*core.Result, len(w.paramSeeds))
	for _, s := range w.paramSeeds {
		res, err := core.Estimate(w.g, w.options(s))
		if err != nil {
			return nil, fmt.Errorf("oracle estimate: %w", err)
		}
		w.base[s] = res
	}
	if wl.name == "write-community" {
		w.plan = planWrites(w, rand.New(rand.NewSource(seed^0x3217e)), writePlan)
	}
	return w, nil
}

func distinctNodes(rng *rand.Rand, n, k int) []graph.NodeID {
	if k > n {
		k = n
	}
	seen := make(map[graph.NodeID]bool, k)
	out := make([]graph.NodeID, 0, k)
	for len(out) < k {
		v := graph.NodeID(rng.Intn(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func bfsRow(g *graph.Graph, s graph.NodeID) []int32 {
	dist := make([]int32, g.NumNodes())
	bfs.Distances(g, s, dist, nil)
	return dist
}

// farnessOf is one node's exact farness: one BFS.
func farnessOf(g *graph.Graph, v graph.NodeID) float64 {
	sum, _ := bfs.Sum(bfsRow(g, v))
	return float64(sum)
}

// meanOf averages farness the way the server's estimate body does.
func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if len(xs) > 0 {
		s /= float64(len(xs))
	}
	return s
}

// options are the estimation options the server resolves for the
// workload's parameters with the given seed.
func (w *world) options(seed int64) core.Options {
	tech, _ := core.ParseTechniques("BRIC")
	return core.Options{
		Techniques:     tech,
		SampleFraction: w.wl.fraction,
		Seed:           seed,
		Workers:        workers,
	}
}

// query is the URL query of a farness or topk read with the given seed.
func (w *world) query(seed int64) string {
	return "techniques=BRIC&fraction=" + strconv.FormatFloat(w.wl.fraction, 'g', -1, 64) +
		"&seed=" + strconv.FormatInt(seed, 10)
}

// distExact is the oracle distance of a pair whose source is in the pool.
func (w *world) distExact(p [2]graph.NodeID) int32 { return w.poolDist[p[0]][p[1]] }

// opStream hands out the workload's deterministic op sequence; the clients
// of one run share it, so op i is the same whatever client sends it.
type opStream struct {
	w    *world
	mu   sync.Mutex
	rng  *rand.Rand
	next int
}

// newOpStream starts the sequence of the given stream seed; the timed phase
// and the warm-up use different ones.
func newOpStream(w *world, seed int64) *opStream {
	return &opStream{w: w, rng: rand.New(rand.NewSource(seed))}
}

func (s *opStream) take() op {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.gen()
	s.next++
	return o
}

func (s *opStream) gen() op {
	w, rng, id := s.w, s.rng, s.next
	pick := func() graph.NodeID { return w.sample[rng.Intn(len(w.sample))] }
	param := func() int64 { return w.paramSeeds[rng.Intn(len(w.paramSeeds))] }
	pair := func() [2]graph.NodeID {
		return [2]graph.NodeID{w.pool[rng.Intn(len(w.pool))], graph.NodeID(rng.Intn(w.g.NumNodes()))}
	}
	switch w.wl.name {
	case "hit-social":
		switch r := rng.Intn(10); {
		case r < 5:
			return op{id: id, kind: opFarness, seed: param(), nodes: []graph.NodeID{pick()}}
		case r < 8:
			return op{id: id, kind: opDistance, pairs: [][2]graph.NodeID{pair()}}
		default:
			return op{id: id, kind: opEstimate, seed: param()}
		}
	case "write-community":
		o := w.plan[rng.Intn(len(w.plan))]
		o.id = id
		return o
	}
	o := op{id: id, kind: opMiss, seed: rng.Int63()}
	for i := 0; i < w.wl.farnessReads; i++ {
		o.nodes = append(o.nodes, pick())
	}
	return o
}

// planWrites draws the write workload's add/remove pairs and computes their
// oracle on the mutated graph, rebuilt from the benchmark's own edge list.
//
// Each edge closes a triangle: its endpoints share a neighbour, the way most
// new links in social and community networks form. The dynamic index
// refreshes every node the filter marks, so an op's cost is its refresh
// count; of 2k candidates the plan keeps the middle k by that count, which
// keeps every op near the same cost.
func planWrites(w *world, rng *rand.Rand, k int) []op {
	g, n := w.g, w.g.NumNodes()
	type candidate struct {
		edge    [2]graph.NodeID
		refresh int
	}
	var cands []candidate
	for len(cands) < 2*k {
		u := graph.NodeID(rng.Intn(n))
		mid := g.Neighbors(u)[rng.Intn(g.Degree(u))]
		v := g.Neighbors(mid)[rng.Intn(g.Degree(mid))]
		if u == v || g.HasEdge(u, v) {
			continue
		}
		cands = append(cands, candidate{[2]graph.NodeID{u, v}, refreshCount(g, u, v)})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].refresh < cands[j].refresh })
	cands = cands[k/2 : k/2+k]

	edges := make([][2]graph.NodeID, 0, g.NumEdges()+1)
	g.Edges(func(u, v graph.NodeID) { edges = append(edges, [2]graph.NodeID{u, v}) })
	plan := make([]op, 0, k)
	for _, c := range cands {
		o := op{kind: opWrite, seed: rng.Int63(), edge: c.edge}
		for i := 0; i < 2*w.wl.farnessReads; i++ {
			o.nodes = append(o.nodes, w.sample[rng.Intn(len(w.sample))])
		}
		for i := 0; i < 4; i++ {
			o.pairs = append(o.pairs, [2]graph.NodeID{w.pool[rng.Intn(len(w.pool))], graph.NodeID(rng.Intn(n))})
		}
		mut := graph.FromEdges(n, append(edges, o.edge))
		for _, x := range o.nodes[:w.wl.farnessReads] {
			o.addFarness = append(o.addFarness, farnessOf(mut, x))
		}
		for i := 0; i < 2; i++ {
			o.addDist[i] = bfsRow(mut, o.pairs[i][0])[o.pairs[i][1]]
		}
		plan = append(plan, o)
	}
	return plan
}

// refreshCount is how many nodes the dynamic index refreshes to add the
// non-edge {u,v} and remove it again: the add refreshes x when
// |d(x,u) − d(x,v)| ≥ 2, and the remove, where the edge makes that
// difference 1, when d(x,u) ≠ d(x,v).
func refreshCount(g *graph.Graph, u, v graph.NodeID) int {
	du, dv := bfsRow(g, u), bfsRow(g, v)
	count := 0
	for x := range du {
		switch diff := du[x] - dv[x]; {
		case diff >= 2 || diff <= -2:
			count += 2
		case diff != 0:
			count++
		}
	}
	return count
}
