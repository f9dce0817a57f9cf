package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Response bodies of the routes the benchmark calls, as bricsd sends them.
type estimateBody struct {
	Nodes       int     `json:"nodes"`
	MeanFarness float64 `json:"meanFarness"`
	Partial     bool    `json:"partial"`
}

type farnessBody struct {
	Node    graph.NodeID `json:"node"`
	Farness float64      `json:"farness"`
	Exact   bool         `json:"exact"`
	Partial bool         `json:"partial"`
}

type topkBody struct {
	Nodes   []graph.NodeID `json:"nodes"`
	Farness []float64      `json:"farness"`
	Partial bool           `json:"partial"`
}

type distanceBody struct {
	Distance int32  `json:"distance"`
	Method   string `json:"method"`
	Lower    *int32 `json:"lower"`
	Upper    *int32 `json:"upper"`
}

type edgeBody struct {
	Edges int `json:"edges"`
}

type statusBody struct {
	Generation   uint64 `json:"generation"`
	CacheEntries int    `json:"cacheEntries"`
}

// answer is everything the server returned for one op, kept in traced runs
// so the replay can compare it with direct calls.
type answer struct {
	mean    float64
	farness []farnessBody
	topk    *topkBody
	dists   []distanceBody
	edges   []int
	// runs counts estimate runs the op made the server cache (traced only).
	runs int
}

// errPair is one served farness beside its exact value.
type errPair struct{ served, exact float64 }

// client sends one workload's requests over a shared transport whose
// connection limit is the workload's connection count.
type client struct {
	w        *world
	base     string
	hc       *http.Client
	tr       *tracer // nil when untraced
	rejected *atomic.Int64
	// probe makes the client read /v1/status around every request to count
	// estimate runs (traced phase only); probeTime is what that cost.
	probe     bool
	probeTime time.Duration
	status    statusBody
	runs      int
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// trace identifies the op and parent span a request belongs to; op < 0
// means the request is not part of a traced op.
type trace struct{ op, parent int }

var untraced = trace{op: -1}

// do sends one request and decodes a 2xx JSON answer into out. A non-2xx
// status is an error; 429 and 503 are also counted as rejections.
func (c *client) do(t trace, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	span := 0
	if c.tr != nil && t.op >= 0 {
		span = c.tr.begin("client.request", t.op, t.parent)
		req.Header.Set(hdrOp, strconv.Itoa(t.op))
		req.Header.Set(hdrParent, strconv.Itoa(span))
	}
	err = c.roundTrip(req, out)
	if span != 0 {
		c.tr.end(span)
	}
	if err == nil && c.probe && t.op >= 0 {
		err = c.probeRuns()
	}
	return err
}

func (c *client) roundTrip(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		c.rejected.Add(1)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// probeRuns reads /v1/status and adds the estimate runs cached since the
// last probe to the current op's count; its time is kept out of the op.
func (c *client) probeRuns() error {
	start := time.Now()
	defer func() { c.probeTime += time.Since(start) }()
	var st statusBody
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/status", nil)
	if err != nil {
		return err
	}
	if err := c.roundTrip(req, &st); err != nil {
		return err
	}
	runs := st.CacheEntries
	if st.Generation == c.status.Generation {
		runs -= c.status.CacheEntries
	}
	if runs > 0 {
		c.runs += runs
	}
	c.status = st
	return nil
}

// exec sends op o, checks every answer against the oracle and returns the
// answers plus the (served, exact) farness pairs for the error metric.
func (c *client) exec(t trace, o op) (answer, []errPair, error) {
	var a answer
	var pairs []errPair
	w := c.w
	c.runs = 0
	farness := func(v graph.NodeID, seed int64, exact float64, want *float64) error {
		var fb farnessBody
		if err := c.do(t, http.MethodGet, "/v1/farness/"+strconv.Itoa(int(v))+"?"+w.query(seed), nil, &fb); err != nil {
			return err
		}
		a.farness = append(a.farness, fb)
		pairs = append(pairs, errPair{fb.Farness, exact})
		return checkFarness(fb, v, exact, want)
	}
	distance := func(p [2]graph.NodeID, mode string, exact int32) error {
		var db distanceBody
		path := fmt.Sprintf("/v1/distance?from=%d&to=%d&mode=%s", p[0], p[1], mode)
		if err := c.do(t, http.MethodGet, path, nil, &db); err != nil {
			return err
		}
		a.dists = append(a.dists, db)
		return checkDistance(db, exact)
	}
	estimate := func(seed int64, want *float64) error {
		var eb estimateBody
		body := map[string]any{"techniques": "BRIC", "fraction": w.wl.fraction, "seed": seed}
		if err := c.do(t, http.MethodPost, "/v1/estimate", body, &eb); err != nil {
			return err
		}
		a.mean = eb.MeanFarness
		switch {
		case eb.Partial || eb.Nodes != w.g.NumNodes():
			return fmt.Errorf("estimate: partial=%v nodes=%d, want a full run over %d", eb.Partial, eb.Nodes, w.g.NumNodes())
		case want != nil && eb.MeanFarness != *want:
			return fmt.Errorf("estimate: meanFarness %v, want %v", eb.MeanFarness, *want)
		case !(eb.MeanFarness > 0):
			return fmt.Errorf("estimate: meanFarness %v", eb.MeanFarness)
		}
		return nil
	}
	mutate := func(method, path string, body any, wantEdges int) error {
		var eb edgeBody
		if err := c.do(t, method, path, body, &eb); err != nil {
			return err
		}
		a.edges = append(a.edges, eb.Edges)
		if eb.Edges != wantEdges {
			return fmt.Errorf("%s %s: %d edges, want %d", method, path, eb.Edges, wantEdges)
		}
		return nil
	}

	var err error
	switch o.kind {
	case opMiss:
		err = estimate(o.seed, nil)
		for _, v := range o.nodes {
			if err == nil {
				err = farness(v, o.seed, w.exact[v], nil)
			}
		}
		if err == nil && w.wl.topk {
			var tb topkBody
			path := fmt.Sprintf("/v1/topk?k=%d&sketch=1&%s", topK, w.query(o.seed))
			if err = c.do(t, http.MethodGet, path, nil, &tb); err == nil {
				a.topk = &tb
				err = checkTopK(tb, w)
			}
		}
	case opFarness:
		v := o.nodes[0]
		err = farness(v, o.seed, w.exact[v], &w.base[o.seed].Farness[v])
	case opDistance:
		err = distance(o.pairs[0], "auto", w.distExact(o.pairs[0]))
	case opEstimate:
		mean := meanOf(w.base[o.seed].Farness)
		err = estimate(o.seed, &mean)
	case opWrite:
		u, v := o.edge[0], o.edge[1]
		m, k := w.g.NumEdges(), w.wl.farnessReads
		err = mutate(http.MethodPost, "/v1/edges", map[string]graph.NodeID{"u": u, "v": v}, m+1)
		for i, x := range o.nodes[:k] {
			if err == nil {
				err = farness(x, o.seed, o.addFarness[i], nil)
			}
		}
		for i := 0; i < 2 && err == nil; i++ {
			err = distance(o.pairs[i], "exact", o.addDist[i])
		}
		if err == nil {
			err = mutate(http.MethodDelete, fmt.Sprintf("/v1/edges?u=%d&v=%d", u, v), nil, m)
		}
		for _, y := range o.nodes[k:] {
			if err == nil {
				err = farness(y, o.seed, w.exact[y], nil)
			}
		}
		for i := 2; i < 4 && err == nil; i++ {
			err = distance(o.pairs[i], "exact", w.distExact(o.pairs[i]))
		}
	}
	a.runs = c.runs
	return a, pairs, err
}

// checkFarness rejects partial answers, non-positive values, exact-flagged
// values that differ from the oracle and, where the served run is known,
// any value not bit-identical to it.
func checkFarness(fb farnessBody, v graph.NodeID, exact float64, want *float64) error {
	switch {
	case fb.Partial || fb.Node != v:
		return fmt.Errorf("farness %d: partial=%v node=%d", v, fb.Partial, fb.Node)
	case !(fb.Farness > 0):
		return fmt.Errorf("farness %d: %v", v, fb.Farness)
	case fb.Exact && fb.Farness != exact:
		return fmt.Errorf("farness %d: exact-flagged %v, oracle %v", v, fb.Farness, exact)
	case want != nil && fb.Farness != *want:
		return fmt.Errorf("farness %d: %v, direct estimate %v", v, fb.Farness, *want)
	}
	return nil
}

// checkDistance wants the exact distance from every mode; a sketch answer
// must also bracket it.
func checkDistance(db distanceBody, exact int32) error {
	if db.Distance != exact {
		return fmt.Errorf("distance %d (%s), oracle %d", db.Distance, db.Method, exact)
	}
	if db.Method == "sketch" && (db.Lower == nil || db.Upper == nil || *db.Lower > exact || exact > *db.Upper) {
		return errors.New("distance: sketch bounds missing or not bracketing the exact distance")
	}
	return nil
}

// checkTopK wants the k smallest exact farness values, in order, each
// belonging to the node it is reported for.
func checkTopK(tb topkBody, w *world) error {
	if tb.Partial || len(tb.Nodes) != topK || len(tb.Farness) != topK {
		return fmt.Errorf("topk: partial=%v with %d nodes", tb.Partial, len(tb.Nodes))
	}
	for i, f := range tb.Farness {
		if f != w.topkRef[i] {
			return fmt.Errorf("topk: rank %d farness %v, oracle %v", i, f, w.topkRef[i])
		}
		if got := w.allExact[tb.Nodes[i]]; got != f {
			return fmt.Errorf("topk: node %d reported %v, oracle %v", tb.Nodes[i], f, got)
		}
	}
	return nil
}
