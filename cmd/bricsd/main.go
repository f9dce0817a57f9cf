// Command bricsd serves farness/closeness centrality over HTTP: estimates
// (cached per option set, deduplicated across identical concurrent
// requests), verified top-k queries, and exact dynamic edge updates. See
// internal/server for the endpoint reference and robustness model.
//
// Single-graph mode serves one graph on the classic routes:
//
//	bricsd -input graph.txt -addr :8080
//	bricsd -input graph.bricsbin              (mmap zero-copy load)
//	bricsd -dataset usroads -inflight 2 -timeout 10s
//
// Registry mode serves a directory of .bricsbin artifacts, each lazily
// mmap-loaded on first request and evicted LRU under a resident budget; the
// classic routes alias the default graph:
//
//	bricsd -graphs ./artifacts -max-resident 2GiB -default web-Stanford
//
//	curl localhost:8080/v1/farness/42?fraction=0.2
//	curl localhost:8080/graphs                      # registry: load states
//	curl localhost:8080/graphs/usroads/v1/topk?k=10
//	curl -X POST localhost:8080/v1/estimate?timeout=5s -d '{"techniques":"BRIC","fraction":0.2}'
//	curl -X POST localhost:8080/v1/edges -d '{"u":1,"v":2}'
//	curl localhost:8080/v1/status                   # + registry block in registry mode
//
// On SIGINT/SIGTERM the daemon drains gracefully: /readyz flips to 503 so
// load balancers stop routing, in-flight requests get -drain to finish, and
// whatever is still running is then canceled through the estimation stack's
// cooperative cancellation before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bincsr"
	"repro/internal/gen"
	"repro/internal/graph"
	repro_io "repro/internal/io"
	"repro/internal/server"
)

func main() {
	var (
		input      = flag.String("input", "", "input graph file (edge list, .mtx, .gr or .bricsbin, optionally .gz)")
		dataset    = flag.String("dataset", "", "synthetic dataset name instead of -input")
		scale      = flag.Float64("scale", 1.0, "synthetic dataset scale factor")
		graphsDir  = flag.String("graphs", "", "registry mode: serve every .bricsbin artifact in this directory under /graphs/{id}/")
		maxRes     = flag.String("max-resident", "", "registry mode: resident-byte budget for loaded artifacts, e.g. 512MiB (empty = unlimited); idle graphs are evicted LRU")
		defGraph   = flag.String("default", "", "registry mode: graph id behind the legacy single-graph routes (default: first id)")
		verifyMode = flag.String("verify-artifacts", "fast", "registry artifact verification at load: fast (header+offsets) or full (all checksums + structure scan)")
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "worker goroutines per estimation run (0 = GOMAXPROCS)")
		inflight   = flag.Int("inflight", 4, "max simultaneous estimation runs; excess requests get 429")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request estimation deadline (override per request with ?timeout=)")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested ?timeout= deadlines")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown grace period for in-flight requests")
		softMargin = flag.Duration("soft-margin", 500*time.Millisecond, "answer degraded requests this long before their hard deadline, from a snapshot of the completed traversals")
		degrade    = flag.Bool("degrade", false, "serve partial results on deadline by default (per-request override with ?degrade=accept|reject)")
	)
	flag.Parse()

	cfg := server.Config{
		Workers:          *workers,
		MaxInflight:      *inflight,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		SoftMargin:       *softMargin,
		DegradeByDefault: *degrade,
	}

	var handler http.Handler
	var setReady func(bool)
	var closeAll func()

	if *graphsDir != "" {
		budget, err := parseBytes(*maxRes)
		if err != nil {
			fatal(err)
		}
		verify := bincsr.VerifyFast
		switch *verifyMode {
		case "fast":
		case "full":
			verify = bincsr.VerifyFull
		default:
			fatal(fmt.Errorf("bad -verify-artifacts %q (want fast or full)", *verifyMode))
		}
		paths, err := server.DiscoverArtifacts(*graphsDir)
		if err != nil {
			fatal(err)
		}
		reg, err := server.NewRegistry(paths, server.RegistryConfig{
			Server:           cfg,
			MaxResidentBytes: budget,
			Verify:           verify,
			DefaultGraph:     *defGraph,
		})
		if err != nil {
			fatal(err)
		}
		log.Printf("registry: %d artifacts in %s, default %q, budget %s; listening on %s",
			len(paths), *graphsDir, reg.DefaultGraph(), orUnlimited(budget), *addr)
		handler = reg
		setReady = func(bool) {} // per-graph servers manage their own readiness
		closeAll = reg.Close
	} else {
		g, name, err := loadSingle(*input, *dataset, *scale, cfg.Workers)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		s, err := server.NewWithConfig(g.g, serverConfigFor(cfg, g))
		if err != nil {
			fatal(err)
		}
		log.Printf("graph %s ready in %v (%d nodes, %d edges, %s); listening on %s",
			name, time.Since(start).Round(time.Millisecond),
			g.g.NumNodes(), g.g.NumEdges(), g.source, *addr)
		handler = s
		setReady = s.SetReady
		closeAll = func() {
			s.Close()
			if g.mapped != nil {
				s.WaitRuns()
				_ = g.mapped.Close()
			}
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		// Responses stream after estimation completes; allow the longest
		// permitted run plus margin before the connection is cut.
		WriteTimeout: *maxTimeout + 15*time.Second,
		IdleTimeout:  60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutdown signal received; draining for up to %v", *drain)
	setReady(false) // /readyz → 503: stop new traffic at the balancer
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v; aborting in-flight estimations", err)
	}
	closeAll() // cancel whatever outlived the grace period; drain runs; unmap
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("shutdown complete")
}

// loaded is a single-mode graph plus its provenance: a mapped artifact must
// outlive the server and be unmapped after run draining.
type loaded struct {
	g         *graph.Graph
	mapped    *bincsr.Mapped
	connected bool // proven at load time (artifact flag), skip the rescan
	source    string
}

// loadSingle resolves the single-graph-mode input. A .bricsbin input goes
// through the mmap zero-copy path — connectivity comes from the artifact's
// flag when present; everything else takes the text parsers and is bridged
// if disconnected, exactly as before.
func loadSingle(input, dataset string, scale float64, workers int) (loaded, string, error) {
	switch {
	case strings.HasSuffix(input, ".bricsbin"):
		m, err := bincsr.OpenMapped(input, bincsr.Options{Workers: workers})
		if err != nil {
			return loaded{}, "", err
		}
		src := "heap copy"
		if m.Mapped() {
			src = "mmap zero-copy"
		}
		return loaded{g: m.G, mapped: m, connected: m.Header.Connected(), source: src}, input, nil
	case input != "":
		g, err := repro_io.ReadAny(input)
		if err != nil {
			return loaded{}, "", err
		}
		return connectIfNeeded(g), input, nil
	case dataset != "":
		ds, ok := gen.ByName(dataset, scale)
		if !ok {
			return loaded{}, "", fmt.Errorf("unknown dataset %q", dataset)
		}
		return connectIfNeeded(ds.Build()), ds.Name, nil
	default:
		return loaded{}, "", fmt.Errorf("one of -input, -dataset or -graphs is required")
	}
}

func connectIfNeeded(g *graph.Graph) loaded {
	if !graph.IsConnected(g) {
		log.Printf("input disconnected; adding bridge edges")
		g = graph.Connect(g)
	}
	return loaded{g: g, connected: true, source: "parsed"}
}

func serverConfigFor(cfg server.Config, l loaded) server.Config {
	cfg.AssumeConnected = l.connected
	return cfg
}

// parseBytes parses a human byte size: plain bytes, or a KB/MB/GB/TB,
// KiB/MiB/GiB/TiB suffix. Empty means unlimited (0).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	units := []struct {
		suffix string
		mult   int64
	}{
		{"TiB", 1 << 40}, {"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
		{"TB", 1e12}, {"GB", 1e9}, {"MB", 1e6}, {"KB", 1e3}, {"B", 1},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(s, u.suffix)), 64)
			if err != nil || v < 0 {
				return 0, fmt.Errorf("bad size %q", s)
			}
			return int64(v * float64(u.mult)), nil
		}
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad size %q (want bytes or a KiB/MiB/GiB suffix)", s)
	}
	return v, nil
}

func orUnlimited(b int64) string {
	if b <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d bytes", b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bricsd:", err)
	os.Exit(1)
}
