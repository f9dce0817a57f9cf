// Command e2ebench is the end-to-end benchmark of bricsd. It generates the
// workload's graph, writes it as a .bricsbin artifact, serves it
// with the real internal/server handler over loopback exactly as
// `bricsd -input g.bricsbin` would (bincsr.OpenMapped + server.NewWithConfig
// with AssumeConnected, 2 estimation workers), and drives one closed-loop
// workload, generated from the seed, against it for a fixed time. Every
// answer is checked against an exact oracle computed before set-up.
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
// records spans around the client round trip, the handler and a replay of
// every op through direct calls into each layer, and prints the per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload miss-web --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setups is how many times a run sets the server up; setup_s is their
// median, because a single 0.1–0.4 s set-up moves with one scheduler hiccup.
const setups = 7

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// setups is how many times a run sets the server up (tests use 1).
	setups int
	// maxOps ends the timed phase early after that many ops (0 = time
	// only); tests use it for short smokes.
	maxOps int
	// beforeTimed, when set, runs right before the timed phase (tests arm
	// fault hooks there).
	beforeTimed func()
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: request sequence and oracle sample")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for artifacts and span files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	cfg.trace, cfg.setups = trace == 1, setups
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	os.Exit(exitCode(rep))
}

// exitCode is 0 only for a run in which every op succeeded and every check
// passed.
func exitCode(rep *report) int {
	if rep.correct() {
		return 0
	}
	return 1
}

// metric is one printed figure; note says how many samples it summarises.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// report is a finished run.
type report struct {
	cfg       config
	nodes     int
	edges     int
	host      host
	attempted int
	failed    int
	// mismatches are correctness failures found after the timed phase (spot
	// or full replay); each also counts as a failed op.
	mismatches int
	metrics    []metric
	lines      []string
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *report) print(out io.Writer) error {
	fmt.Fprintf(out, "workload %s seed %d trace %v nodes %d edges %d\n",
		r.cfg.workload, r.cfg.seed, r.cfg.trace, r.nodes, r.edges)
	fmt.Fprintln(out, r.host)
	failPct := 0.0
	if r.attempted > 0 {
		failPct = 100 * float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(out, "ops sent=%d succeeded=%d failed=%d fail_pct=%.4g (replay mismatches %d)\n",
		r.attempted, r.attempted-r.failed, r.failed, failPct, r.mismatches)
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		note := ""
		if m.note != "" {
			note = " (" + m.note + ")"
		}
		fmt.Fprintf(out, "metric %-26s %14.6g %s%s\n", m.name, m.value, m.unit, note)
		ms[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// run executes one benchmark run: oracle, set-ups, warm-up, timed phase(s),
// checks and, when traced, the replay. Diagnostics go to logw.
func run(cfg config, logw io.Writer) (*report, error) {
	wl, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	w, err := newWorld(wl, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w, logw: logw,
		path: filepath.Join(cfg.workdir, fmt.Sprintf("%s-seed%d.bricsbin", wl.name, cfg.seed))}
	if err := b.writeArtifact(); err != nil {
		return nil, err
	}
	defer os.Remove(b.path)
	rep := &report{cfg: cfg, nodes: w.g.NumNodes(), edges: w.g.NumEdges()}
	if cfg.trace {
		err = b.traced(rep)
	} else {
		err = b.untraced(rep)
	}
	return rep, err
}

// sortedKeys lists a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
