package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bincsr"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/stats"
)

// Stream seeds of the op sequences, mixed with the workload seed so the
// warm-up never sends an op of the timed phase.
const (
	timedStream = 0x7173d
	warmStream  = 0x3a53
)

type bench struct {
	cfg  config
	w    *world
	logw io.Writer
	path string
	// loadMS holds the bincsr.OpenMapped time of every set-up.
	loadMS   []float64
	rejected atomic.Int64
}

func (b *bench) writeArtifact() error {
	return bincsr.WriteFile(b.path, b.w.g, bincsr.FlagConnected)
}

// instance is one served graph: the mapped artifact, the handler and its
// loopback listener.
type instance struct {
	mapped *bincsr.Mapped
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	hc     *http.Client
}

func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = in.hs.Shutdown(ctx)
	<-in.served
	in.hc.CloseIdleConnections()
	in.srv.Close()
	in.srv.WaitRuns()
	_ = in.mapped.Close()
}

// setUp loads the artifact and builds the server the way bricsd -input does,
// then warms it until every lazily built structure of the workload exists:
// the first estimate, the sketch, the dynamic index. tr, when non-nil, wraps
// the handler so the traced phase can record handler spans.
func (b *bench) setUp(tr *tracer) (*instance, time.Duration, error) {
	start := time.Now()
	m, err := bincsr.OpenMapped(b.path, bincsr.Options{Workers: workers})
	if err != nil {
		return nil, 0, err
	}
	b.loadMS = append(b.loadMS, ms(time.Since(start)))
	srv, err := server.NewWithConfig(m.G, server.Config{Workers: workers, AssumeConnected: m.Header.Connected()})
	if err != nil {
		_ = m.Close()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		_ = m.Close()
		return nil, 0, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = &tracedHandler{h: srv, tr: tr}
	}
	in := &instance{
		mapped: m, srv: srv,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		hc:     newHTTPClient(b.w.wl.conns),
	}
	go func() { in.served <- in.hs.Serve(ln) }()
	c := b.client(in, nil)
	for _, o := range b.warmUpOps() {
		if _, _, err := c.exec(untraced, o); err != nil {
			in.close()
			return nil, 0, fmt.Errorf("set-up warm-up: %w", err)
		}
	}
	return in, time.Since(start), nil
}

// warmUpOps are the set-up's requests: the ones that make the server build
// what the workload's steady state relies on.
func (b *bench) warmUpOps() []op {
	w := b.w
	switch w.wl.name {
	case "hit-social":
		ops := []op{{kind: opDistance, pairs: [][2]graph.NodeID{{w.pool[0], w.sample[0]}}}}
		for _, s := range w.paramSeeds {
			ops = append(ops, op{kind: opEstimate, seed: s})
		}
		return ops
	case "write-community":
		return []op{w.plan[0]}
	}
	return []op{{kind: opMiss, seed: -1, nodes: w.sample[:1]}}
}

func (b *bench) client(in *instance, tr *tracer) *client {
	return &client{w: b.w, base: in.base, hc: in.hc, tr: tr, rejected: &b.rejected}
}

// setUps runs the configured number of set-ups, keeps the last instance and
// returns the median set-up time.
func (b *bench) setUps(tr *tracer) (*instance, float64, error) {
	var times []float64
	var in *instance
	for i := 0; i < b.cfg.setups; i++ {
		if in != nil {
			in.close()
		}
		var d time.Duration
		var err error
		if in, d, err = b.setUp(tr); err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return in, median(times), nil
}

// warmUp sends the workload's warm-up ops and leaves the heap collected and
// the peak-RSS counter reset, so the timed phase starts from a steady state.
func (b *bench) warmUp(in *instance) error {
	c := b.client(in, nil)
	s := newOpStream(b.w, b.cfg.seed^warmStream)
	for i := 0; i < b.w.wl.warmOps; i++ {
		if _, _, err := c.exec(untraced, s.take()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// record is one op with what the server answered.
type record struct {
	op  op
	ans answer
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	lat               []float64 // per-op latency, ms
	attempted, failed int
	wall, cpu         time.Duration
	pairs             []errPair
	records           []record
	steal             float64
	allocB, gcCycles  uint64
	// peakMB is VmHWM read when the rssOps-th op finished, or at the end
	// of a shorter phase.
	rssOps int
	peakMB float64
	errs   []string
}

// runPhase drives the workload's clients in a closed loop for dur, or until
// cfg.maxOps ops were sent when that is set. With tr set it records op and
// request spans, probes the server's run count after every request and
// keeps the record of every successful op; otherwise it keeps only the first
// and the last for the spot replay.
func (b *bench) runPhase(in *instance, s *opStream, dur time.Duration, tr *tracer) *phase {
	p := &phase{rssOps: b.w.wl.rssOps}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var taken atomic.Int64
	keep := func(r record) {
		switch {
		case tr != nil:
			p.records = append(p.records, r)
		case len(p.records) < 2:
			p.records = append(p.records, r)
		case r.op.id > p.records[1].op.id:
			p.records[1] = r
		}
	}
	alloc0, gc0 := allocStats()
	st0, cpu0, start := readCPUStat(), cpuTime(), time.Now()
	for i := 0; i < b.w.wl.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := b.client(in, tr)
			if tr != nil {
				c.probe = true
				if err := c.probeRuns(); err != nil {
					mu.Lock()
					p.errs = append(p.errs, err.Error())
					mu.Unlock()
				}
			}
			for time.Since(start) < dur {
				if n := b.cfg.maxOps; n > 0 && taken.Add(1) > int64(n) {
					return
				}
				o := s.take()
				t0 := time.Now()
				c.probeTime = 0
				t := untraced
				if tr != nil {
					t = trace{op: o.id, parent: tr.begin("op", o.id, 0)}
				}
				a, pairs, err := c.exec(t, o)
				if tr != nil {
					tr.end(t.parent)
				}
				lat := ms(time.Since(t0) - c.probeTime)
				mu.Lock()
				p.attempted++
				if p.attempted == p.rssOps {
					p.readPeak()
				}
				if err != nil {
					p.failed++
					if len(p.errs) < 5 {
						p.errs = append(p.errs, fmt.Sprintf("op %d: %v", o.id, err))
					}
				} else {
					p.lat = append(p.lat, lat)
					p.pairs = append(p.pairs, pairs...)
					keep(record{o, a})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	if p.attempted < p.rssOps {
		p.readPeak()
	}
	p.steal = stealPct(st0, readCPUStat())
	alloc1, gc1 := allocStats()
	p.allocB, p.gcCycles = alloc1-alloc0, gc1-gc0
	return p
}

func (p *phase) readPeak() {
	var err error
	if p.peakMB, err = peakRSSMB(); err != nil {
		p.errs = append(p.errs, err.Error())
		p.failed++
	}
}

// errorPct is the paper's average error percentage of the served farness
// against the oracle.
func (p *phase) errorPct() float64 {
	est := make([]float64, len(p.pairs))
	act := make([]float64, len(p.pairs))
	for i, e := range p.pairs {
		est[i], act[i] = e.served, e.exact
	}
	return stats.AvgErrorPercent(est, act)
}

// endToEnd turns an untraced phase into the eight end-to-end metrics.
func (p *phase) endToEnd(setupS float64) []metric {
	n := len(p.lat)
	p50, _ := quantile(p.lat, 0.5)
	p90, beyond := quantile(p.lat, 0.9)
	okPct := 0.0
	if p.attempted > 0 {
		okPct = 100 * float64(p.attempted-p.failed) / float64(p.attempted)
	}
	cpuPerOp := 0.0
	if p.attempted > 0 {
		cpuPerOp = ms(p.cpu) / float64(p.attempted)
	}
	return []metric{
		{name: "setup_s", unit: "s", value: setupS},
		{name: "p50_ms", unit: "ms", value: p50, note: fmt.Sprintf("%d samples", n)},
		{name: "p90_ms", unit: "ms", value: p90, note: fmt.Sprintf("%d samples, %d beyond", n, beyond)},
		{name: "throughput_ops", unit: "ops/s", value: float64(n) / p.wall.Seconds(), note: fmt.Sprintf("%d ops in %.3f s", n, p.wall.Seconds())},
		{name: "cpu_ms_per_op", unit: "ms", value: cpuPerOp},
		{name: "peak_rss_mb", unit: "MB", value: p.peakMB, note: fmt.Sprintf("VmHWM over the first %d ops", min(p.attempted, p.rssOps))},
		{name: "avg_error_pct", unit: "%", value: p.errorPct(), note: fmt.Sprintf("%d farness answers", len(p.pairs))},
		{name: "ok_pct", unit: "%", value: okPct, note: fmt.Sprintf("%d of %d ops", p.attempted-p.failed, p.attempted)},
	}
}

// prepare runs the set-ups and the warm-up and arms the test hook.
func (b *bench) prepare(tr *tracer) (*instance, float64, error) {
	in, setupS, err := b.setUps(tr)
	if err != nil {
		return nil, 0, err
	}
	if err := b.warmUp(in); err != nil {
		in.close()
		return nil, 0, err
	}
	if b.cfg.beforeTimed != nil {
		b.cfg.beforeTimed()
	}
	return in, setupS, nil
}

func (b *bench) timedStream() *opStream {
	return newOpStream(b.w, b.cfg.seed^timedStream)
}

func (b *bench) duration(share float64) time.Duration {
	return time.Duration(share * b.cfg.seconds * float64(time.Second))
}

// untraced is the end-to-end run.
func (b *bench) untraced(rep *report) error {
	in, setupS, err := b.prepare(nil)
	if err != nil {
		return err
	}
	p := b.runPhase(in, b.timedStream(), b.duration(1), nil)
	in.close()
	rep.host = hostRecord(p.steal)
	rep.metrics = p.endToEnd(setupS)
	b.logErrs(p.errs)
	// Spot replay: the first and the last op again through direct calls,
	// bit-for-bit.
	r := newReplayer(b.w, nil)
	for _, rec := range p.records {
		if err := r.replay(rec); err != nil {
			rep.mismatches++
			b.logErrs([]string{fmt.Sprintf("replay op %d: %v", rec.op.id, err)})
		}
	}
	rep.attempted, rep.failed = p.attempted, p.failed+rep.mismatches
	return nil
}

func (b *bench) logErrs(errs []string) {
	for _, e := range errs {
		fmt.Fprintln(b.logw, "e2ebench:", e)
	}
}
