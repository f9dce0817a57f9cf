package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bfs"
	"repro/internal/bicc"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/reduce"
	"repro/internal/sketch"
	"repro/internal/topk"
)

// Request headers that carry the op id and the client span into the traced
// handler wrapper.
const (
	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Parent"
)

// span is one timed call. Op is the op it belongs to (-1 for none), Parent
// the span that caused it (0 for a root). Self is filled in when the spans
// are written: the duration minus the time its children cover.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// value is a count or a duration a layer reports about one call (a RunStats
// field, a reduce.Timings stage), recorded beside the call's span.
type value struct {
	Name string  `json:"name"`
	Op   int     `json:"op"`
	V    float64 `json:"value"`
}

// tracer keeps spans and values in memory until the run ends. A nil tracer
// records nothing.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	values []value
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans) + 1, Parent: parent, Start: now, End: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) value(op int, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values = append(t.values, value{name, op, v})
	t.mu.Unlock()
}

// tracedHandler wraps the server's ServeHTTP in a span when the request
// names the op and client span it belongs to.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, err1 := strconv.Atoi(r.Header.Get(hdrOp))
	parent, err2 := strconv.Atoi(r.Header.Get(hdrParent))
	if err1 != nil || err2 != nil {
		th.h.ServeHTTP(w, r)
		return
	}
	id := th.tr.begin("server.handler", op, parent)
	th.h.ServeHTTP(w, r)
	th.tr.end(id)
}

// selfTimes fills every span's Self: its duration minus the union of its
// children's intervals, clipped to it.
func (t *tracer) selfTimes() {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered, cur := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write stores every span and value as JSON lines.
func (t *tracer) write(path string) error {
	t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, v := range t.values {
		if err := enc.Encode(v); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer repeats ops through direct calls into each layer, with the
// inputs the server got, and compares the results with what it served.
type replayer struct {
	w  *world
	tr *tracer
	sk *sketch.Sketch
	ix *dynamic.Index
	// sketchMS and dynamicMS time the benchmark's own sketch.Build and
	// dynamic.New (0 when the workload needs neither).
	sketchMS, dynamicMS float64
}

func newReplayer(w *world, tr *tracer) *replayer { return &replayer{w: w, tr: tr} }

func (r *replayer) sketch() *sketch.Sketch {
	if r.sk == nil {
		id := r.tr.begin("sketch.build", -1, 0)
		start := time.Now()
		r.sk = sketch.Build(r.w.g, sketch.Options{Workers: workers})
		r.sketchMS = ms(time.Since(start))
		r.tr.end(id)
	}
	return r.sk
}

func (r *replayer) index() (*dynamic.Index, error) {
	if r.ix == nil {
		id := r.tr.begin("dynamic.build", -1, 0)
		start := time.Now()
		ix, err := dynamic.New(r.w.g, workers)
		r.dynamicMS = ms(time.Since(start))
		r.tr.end(id)
		if err != nil {
			return nil, err
		}
		r.ix = ix
	}
	return r.ix, nil
}

// estimate runs core.EstimateContext with the op's options, then the
// reduction and the BiCC decomposition it is built on, each in its own span.
func (r *replayer) estimate(op, parent int, g *graph.Graph, opts core.Options) (*core.Result, error) {
	ctx := context.Background()
	id := r.tr.begin("core.estimate", op, parent)
	res, err := core.EstimateContext(ctx, g, opts)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	st := res.Stats
	r.tr.value(op, "core.preprocess_ms", ms(st.Preprocess))
	r.tr.value(op, "core.traverse_ms", ms(st.Traverse))
	r.tr.value(op, "core.aggregate_ms", ms(st.Aggregate))
	r.tr.value(op, "core.samples", float64(st.Samples))

	ropts := reduce.Options{
		Twins:     opts.Techniques&core.TechIdentical != 0,
		Chains:    opts.Techniques&core.TechChains != 0,
		Redundant: opts.Techniques&core.TechRedundant != 0,
		Workers:   opts.Workers,
	}
	id = r.tr.begin("reduce.run", op, parent)
	red, err := reduce.RunContext(ctx, g, ropts)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	r.tr.value(op, "reduce.twins_ms", ms(red.Timings.Twins))
	r.tr.value(op, "reduce.chains_ms", ms(red.Timings.Chains))
	r.tr.value(op, "reduce.redundant_ms", ms(red.Timings.Redundant))
	r.tr.value(op, "reduce.kept_ratio", float64(red.G.NumNodes())/float64(g.NumNodes()))

	id = r.tr.begin("bicc.decompose", op, parent)
	d, _ := bicc.DecomposeTimed(red.G, bicc.AlgoAuto, opts.Workers)
	r.tr.end(id)
	r.tr.value(op, "bicc.blocks", float64(d.NumBlocks()))
	return res, nil
}

func (r *replayer) p2p(op, parent int, g *graph.Graph, p [2]graph.NodeID) int32 {
	id := r.tr.begin("bfs.p2p", op, parent)
	d := bfs.PointToPoint(g, p[0], p[1])
	r.tr.end(id)
	return d
}

// sameFarness compares served farness answers with a direct result.
func sameFarness(served []farnessBody, res *core.Result) error {
	for _, fb := range served {
		v := fb.Node
		if fb.Farness != res.Farness[v] || fb.Exact != res.Exact[v] {
			return fmt.Errorf("farness %d: served %v (exact %v), direct %v (exact %v)",
				v, fb.Farness, fb.Exact, res.Farness[v], res.Exact[v])
		}
	}
	return nil
}

// replay repeats one op and returns the first difference from the served
// answers.
func (r *replayer) replay(rec record) error {
	w, o, a := r.w, rec.op, rec.ans
	root := r.tr.begin("replay", o.id, 0)
	defer r.tr.end(root)
	switch o.kind {
	case opMiss:
		opts := w.options(o.seed)
		res, err := r.estimate(o.id, root, w.g, opts)
		if err != nil {
			return err
		}
		if a.mean != meanOf(res.Farness) {
			return fmt.Errorf("meanFarness: served %v, direct %v", a.mean, meanOf(res.Farness))
		}
		if err := sameFarness(a.farness, res); err != nil {
			return err
		}
		if a.topk != nil {
			sk := r.sketch()
			id := r.tr.begin("topk.closeness", o.id, root)
			tk, err := topk.ClosenessContext(context.Background(), w.g, topK, topk.Options{Estimate: opts, Sketch: sk})
			r.tr.end(id)
			if err != nil {
				return err
			}
			r.tr.value(o.id, "topk.verified", float64(tk.Verified))
			r.tr.value(o.id, "topk.filtered", float64(tk.Filtered))
			if fmt.Sprint(tk.Nodes, tk.Farness) != fmt.Sprint(a.topk.Nodes, a.topk.Farness) {
				return fmt.Errorf("topk: served %v %v, direct %v %v", a.topk.Nodes, a.topk.Farness, tk.Nodes, tk.Farness)
			}
		}
	case opFarness:
		return sameFarness(a.farness, w.base[o.seed])
	case opEstimate:
		if mean := meanOf(w.base[o.seed].Farness); a.mean != mean {
			return fmt.Errorf("meanFarness: served %v, direct %v", a.mean, mean)
		}
	case opDistance:
		sk := r.sketch()
		p, db := o.pairs[0], a.dists[0]
		id := r.tr.begin("sketch.bounds", o.id, root)
		lo, hi, ok := sk.Bounds(p[0], p[1])
		r.tr.end(id)
		d := r.p2p(o.id, root, w.g, p)
		if ok && lo == hi {
			if db.Method != "sketch" || db.Distance != hi || *db.Lower != lo || *db.Upper != hi {
				return fmt.Errorf("distance %v: served %+v, sketch bounds [%d,%d]", p, db, lo, hi)
			}
		} else if db.Method != "exact" {
			return fmt.Errorf("distance %v: served method %q, sketch gap [%d,%d] wants exact", p, db.Method, lo, hi)
		}
		if db.Distance != d || (ok && (lo > d || d > hi)) {
			return fmt.Errorf("distance %v: served %d, PointToPoint %d, sketch [%d,%d]", p, db.Distance, d, lo, hi)
		}
	case opWrite:
		return r.replayWrite(o, a, root)
	}
	return nil
}

// replayWrite repeats an add/remove pair on the benchmark's own dynamic
// index and checks each generation's farness, distances and edge count.
func (r *replayer) replayWrite(o op, a answer, root int) error {
	ix, err := r.index()
	if err != nil {
		return err
	}
	k := r.w.wl.farnessReads
	if len(a.edges) != 2 || len(a.farness) != 2*k || len(a.dists) != 4 {
		return fmt.Errorf("write op incomplete: %d edges, %d farness, %d distances", len(a.edges), len(a.farness), len(a.dists))
	}
	u, v := o.edge[0], o.edge[1]
	for step, mutate := range []func() error{
		func() error { return ix.AddEdge(u, v) },
		func() error { return ix.RemoveEdge(u, v) },
	} {
		id := r.tr.begin("dynamic.update", o.id, root)
		err := mutate()
		r.tr.end(id)
		if err != nil {
			return err
		}
		r.tr.value(o.id, "dynamic.affected", float64(ix.UpdatedLast))
		id = r.tr.begin("dynamic.snapshot", o.id, root)
		g := ix.Snapshot()
		r.tr.end(id)
		if g.NumEdges() != a.edges[step] {
			return fmt.Errorf("edges after step %d: served %d, direct %d", step, a.edges[step], g.NumEdges())
		}
		res, err := r.estimate(o.id, root, g, r.w.options(o.seed))
		if err != nil {
			return err
		}
		if err := sameFarness(a.farness[step*k:(step+1)*k], res); err != nil {
			return err
		}
		for i := 2 * step; i < 2*step+2; i++ {
			if d := r.p2p(o.id, root, g, o.pairs[i]); a.dists[i].Distance != d {
				return fmt.Errorf("distance %v: served %d, PointToPoint %d", o.pairs[i], a.dists[i].Distance, d)
			}
		}
	}
	return nil
}

// traced is the per-layer run: a short untraced phase for the overhead
// baseline, a traced phase, then the replay of every traced op.
func (b *bench) traced(rep *report) error {
	tr := newTracer()
	in, _, err := b.prepare(tr)
	if err != nil {
		return err
	}
	s := b.timedStream()
	base := b.runPhase(in, s, b.duration(0.25), nil)
	tp := b.runPhase(in, s, b.duration(0.25), tr)
	in.close()
	rep.host = hostRecord(tp.steal)
	b.logErrs(base.errs)
	b.logErrs(tp.errs)

	r := newReplayer(b.w, tr)
	for _, rec := range tp.records {
		if err := r.replay(rec); err != nil {
			rep.mismatches++
			b.logErrs([]string{fmt.Sprintf("replay op %d: %v", rec.op.id, err)})
		}
	}
	rep.attempted = base.attempted + tp.attempted
	rep.failed = base.failed + tp.failed + rep.mismatches
	rep.metrics = b.layerMetrics(tr, r, base, tp)
	rep.lines = spanSummary(tr)
	path := filepath.Join(b.cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.wl.name, b.cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.lines = append(rep.lines, "spans written to "+path)
	return nil
}

// perOp sums, per traced op, the durations (ms) of the spans and the values
// with the given name; ops without one count as 0.
func perOp(tr *tracer, ops []int, name string) map[int]float64 {
	sum := make(map[int]float64, len(ops))
	for _, op := range ops {
		sum[op] = 0
	}
	for _, s := range tr.spans {
		if _, ok := sum[s.Op]; ok && s.Name == name {
			sum[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	for _, v := range tr.values {
		if _, ok := sum[v.Op]; ok && v.Name == name {
			sum[v.Op] += v.V
		}
	}
	return sum
}

func medianOf(m map[int]float64) float64 {
	xs := make([]float64, 0, len(m))
	for _, x := range m {
		xs = append(xs, x)
	}
	return median(xs)
}

// perCall is the median over calls of a value, or of a span's duration in
// µs; 0 when there was no call.
func perCall(tr *tracer, name string) float64 {
	var xs []float64
	for _, s := range tr.spans {
		if s.Name == name && s.Op >= 0 {
			xs = append(xs, float64(s.End-s.Start)/1e3)
		}
	}
	for _, v := range tr.values {
		if v.Name == name {
			xs = append(xs, v.V)
		}
	}
	return median(xs)
}

// layerMetrics derives every per-layer metric from the traced phase and its
// replay.
func (b *bench) layerMetrics(tr *tracer, r *replayer, base, tp *phase) []metric {
	ops := make([]int, len(tp.records))
	runs, auto, autoExact := 0, 0, 0
	for i, rec := range tp.records {
		ops[i] = rec.op.id
		runs += rec.ans.runs
		if rec.op.kind == opDistance {
			for _, d := range rec.ans.dists {
				auto++
				if d.Method == "exact" {
					autoExact++
				}
			}
		}
	}
	nops := float64(max(len(ops), 1))
	client, handler := perOp(tr, ops, "client.request"), perOp(tr, ops, "server.handler")
	transport := make(map[int]float64, len(ops))
	for op := range client {
		transport[op] = client[op] - handler[op]
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	p50base, _ := quantile(base.lat, 0.5)
	p50traced, _ := quantile(tp.lat, 0.5)
	overhead := 0.0
	if p50base > 0 {
		overhead = 100 * (p50traced - p50base) / p50base
	}
	layer := func(name string) metric {
		return metric{name: name, unit: "ms", value: medianOf(perOp(tr, ops, name[:len(name)-3]))}
	}
	valueMS := func(name string) metric {
		return metric{name: name, unit: "ms", value: medianOf(perOp(tr, ops, name))}
	}
	return []metric{
		{name: "server.handler_ms", unit: "ms", value: medianOf(handler)},
		{name: "server.transport_ms", unit: "ms", value: medianOf(transport)},
		{name: "server.runs_per_op", unit: "count", value: float64(runs) / nops},
		{name: "server.rejected", unit: "count", value: float64(b.rejected.Load())},
		{name: "io.load_ms", unit: "ms", value: median(b.loadMS), note: fmt.Sprintf("%d set-ups", len(b.loadMS))},
		layer("core.estimate_ms"),
		valueMS("core.preprocess_ms"),
		valueMS("core.traverse_ms"),
		valueMS("core.aggregate_ms"),
		{name: "core.samples", unit: "count", value: perCall(tr, "core.samples")},
		layer("reduce.run_ms"),
		valueMS("reduce.twins_ms"),
		valueMS("reduce.chains_ms"),
		valueMS("reduce.redundant_ms"),
		{name: "reduce.kept_ratio", unit: "ratio", value: perCall(tr, "reduce.kept_ratio")},
		layer("bicc.decompose_ms"),
		{name: "bicc.blocks", unit: "count", value: perCall(tr, "bicc.blocks")},
		layer("topk.closeness_ms"),
		{name: "topk.verified", unit: "count", value: perCall(tr, "topk.verified")},
		{name: "topk.filtered", unit: "count", value: perCall(tr, "topk.filtered")},
		{name: "sketch.build_ms", unit: "ms", value: r.sketchMS},
		{name: "sketch.bounds_us", unit: "us", value: perCall(tr, "sketch.bounds")},
		{name: "sketch.exact_ratio", unit: "ratio", value: ratio(autoExact, auto), note: fmt.Sprintf("%d mode=auto answers", auto)},
		{name: "bfs.p2p_us", unit: "us", value: perCall(tr, "bfs.p2p")},
		{name: "dynamic.build_ms", unit: "ms", value: r.dynamicMS},
		layer("dynamic.update_ms"),
		{name: "dynamic.affected", unit: "count", value: perCall(tr, "dynamic.affected")},
		layer("dynamic.snapshot_ms"),
		{name: "runtime.alloc_mb_per_op", unit: "MB", value: float64(tp.allocB) / 1e6 / nops},
		{name: "runtime.gc_cycles_per_op", unit: "count", value: float64(tp.gcCycles) / nops},
		{name: "trace.overhead_pct", unit: "%", value: overhead,
			note: fmt.Sprintf("traced p50 %.4g ms over %d ops, untraced %.4g ms over %d", p50traced, len(tp.lat), p50base, len(base.lat))},
	}
}

// spanSummary prints, per span name, the call count and the median total
// and self time of a call.
func spanSummary(tr *tracer) []string {
	tr.selfTimes()
	total := map[string][]float64{}
	self := map[string][]float64{}
	for _, s := range tr.spans {
		total[s.Name] = append(total[s.Name], float64(s.End-s.Start)/1e6)
		self[s.Name] = append(self[s.Name], float64(s.Self)/1e6)
	}
	var lines []string
	for _, name := range sortedKeys(total) {
		lines = append(lines, fmt.Sprintf("span %-18s calls %6d  median %10.4f ms  self %10.4f ms",
			name, len(total[name]), median(total[name]), median(self[name])))
	}
	return lines
}
