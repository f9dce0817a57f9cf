package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sketch"
)

// errBusy sheds load when every estimation slot is taken; handlers map it to
// 429 + Retry-After.
var errBusy = errors.New("server: estimation capacity saturated")

// errPartialOnly is what a degrade=reject waiter gets when the run it joined
// could only produce a partial result (another waiter's soft deadline, a
// drain, or the shared flight being interrupted). Handlers map it to 503: the
// caller asked for exact-or-nothing and got nothing.
var errPartialOnly = errors.New("server: run degraded to a partial result (degrade=reject)")

// panicError wraps a value recovered from a crashed estimation run so the
// handler can answer 500 while the daemon keeps serving.
type panicError struct{ val any }

func (p *panicError) Error() string { return fmt.Sprintf("estimation run panicked: %v", p.val) }

// generation is one immutable version of the served graph together with its
// estimation plans, result cache and in-flight estimate runs. Readers load
// the current generation from Server.gen with a single atomic pointer read —
// they never contend with estimates — and edge mutations install a fresh
// generation, which atomically invalidates the plans and the cache and
// detaches (but does not abort) runs still computing against the old
// snapshot.
type generation struct {
	g  *graph.Graph
	id uint64 // monotone across mutations; reported by /v1/status

	mu         sync.Mutex // guards plans, cache, cacheBytes and flights; held only for map ops
	plans      map[core.Technique]*planBuild
	cache      map[string]*core.Result
	cacheBytes int64 // Σ resultBytes over cache
	flights    map[string]*flight

	// sketch is the generation's cluster-BFS distance index, built lazily on
	// the first sketch/auto distance (or sketch-filtered topk) request and
	// shared by every subsequent one. Tied to the generation, it dies with
	// the snapshot on the next edge mutation — the sketch can never answer
	// against a stale graph. Guarded by skMu rather than a sync.Once: a build
	// that loses the race against a generation swap must not be stored (see
	// Server.sketchFor), and a Once cannot express "ran, kept nothing".
	skMu   sync.Mutex
	sketch *sketch.Sketch

	// distCache memoises /v1/distance answers per (pair, mode, tolerance).
	// The mode is part of the key — a sketch upper bound must never be
	// served to an exact-mode caller — and the map is cleared wholesale when
	// it reaches distCacheCap (simpler than LRU and rare at that size).
	distMu    sync.Mutex
	distCache map[distKey]distVal
}

// distKey canonicalises one distance query: endpoints ordered (the graph is
// undirected), plus the answering mode and its tolerance.
type distKey struct {
	u, v graph.NodeID
	mode distMode
	tol  int32
}

// distVal is one cached distance answer.
type distVal struct {
	d      int32
	lo, hi int32
	method string
}

// distCacheCap bounds the per-generation distance cache (~1.5 MB of
// entries); see generation.distCache.
const distCacheCap = 1 << 16

// estimateCacheCap bounds the bytes of the results a generation caches (see
// resultBytes): an insert that would pass it clears the cache first, the way
// distCacheCap does. 32 MiB holds about 110 results of a 33.6k-node graph.
// A variable only so that tests can lower it.
var estimateCacheCap int64 = 32 << 20

// resultBytes is what a cached result's per-node arrays take.
func resultBytes(res *core.Result) int64 {
	return int64(8*len(res.Farness) + len(res.Exact) + 8*len(res.StdErr))
}

func newGeneration(g *graph.Graph, id uint64) *generation {
	return &generation{
		g:         g,
		id:        id,
		plans:     make(map[core.Technique]*planBuild),
		cache:     make(map[string]*core.Result),
		flights:   make(map[string]*flight),
		distCache: make(map[distKey]distVal),
	}
}

// storeResult caches a full result under key, clearing the cache first when
// it would pass estimateCacheCap. The caller holds gen.mu.
func (gen *generation) storeResult(key string, res *core.Result) {
	b := resultBytes(res)
	if gen.cacheBytes+b > estimateCacheCap {
		clear(gen.cache)
		gen.cacheBytes = 0
	}
	if old, ok := gen.cache[key]; ok {
		gen.cacheBytes -= resultBytes(old)
	}
	gen.cache[key] = res
	gen.cacheBytes += b
}

// planBuild is one technique mask's plan in a generation: built by the
// first run that needs it and shared by every later run, a singleflight per
// mask. done is closed once plan or err is set.
type planBuild struct {
	done chan struct{}
	plan *core.Plan
	err  error
}

// planFor returns gen's plan for the mask, building it on first use (built
// reports that this call did). A run that asks while another builds waits
// for that build, or for its own ctx. A failed build is dropped from the
// generation, so it is never served: when it failed by cancellation (the
// builder's run was abandoned) a waiter whose own ctx is live builds afresh,
// and any other failure is every waiter's.
func (s *Server) planFor(ctx context.Context, gen *generation, tech core.Technique) (plan *core.Plan, built bool, err error) {
	for {
		gen.mu.Lock()
		pb, ok := gen.plans[tech]
		if !ok {
			pb = &planBuild{done: make(chan struct{})}
			gen.plans[tech] = pb
		}
		gen.mu.Unlock()
		if !ok {
			plan, err := s.buildPlan(ctx, gen, tech, pb)
			return plan, err == nil, err
		}
		select {
		case <-pb.done:
		case <-ctx.Done():
			return nil, false, par.CtxErr(ctx)
		}
		if pb.err == nil {
			return pb.plan, false, nil
		}
		if !errors.Is(pb.err, core.ErrCanceled) {
			return nil, false, pb.err
		}
	}
}

// buildPlan runs core.Prepare for pb and publishes the outcome, a panic
// included, to pb's waiters.
func (s *Server) buildPlan(ctx context.Context, gen *generation, tech core.Technique, pb *planBuild) (plan *core.Plan, err error) {
	defer func() {
		if v := recover(); v != nil {
			plan, err = nil, &panicError{val: v}
		}
		gen.mu.Lock()
		pb.plan, pb.err = plan, err
		if err != nil && gen.plans[tech] == pb {
			delete(gen.plans, tech)
		}
		gen.mu.Unlock()
		close(pb.done)
	}()
	return core.Prepare(ctx, gen.g, tech, s.cfg.Workers)
}

// preparedPlans lists the masks of gen's finished plans, in letter order.
func (gen *generation) preparedPlans() []string {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	out := []string{}
	for tech, pb := range gen.plans {
		if pb.plan != nil {
			out = append(out, tech.String())
		}
	}
	sort.Strings(out)
	return out
}

// sketchFor returns gen's sketch, building it on first use. The build runs
// outside the generation lock; when it completes against a generation that an
// edge mutation has meanwhile replaced, the sketch is served to the caller
// that asked but NOT stored — storing it would pin the dead snapshot's memory
// for as long as the generation object lives, and no future request will ever
// load that generation again anyway.
func (s *Server) sketchFor(gen *generation) *sketch.Sketch {
	gen.skMu.Lock()
	if sk := gen.sketch; sk != nil {
		gen.skMu.Unlock()
		return sk
	}
	gen.skMu.Unlock()
	sk := sketch.Build(gen.g, s.cfg.Sketch)
	gen.skMu.Lock()
	defer gen.skMu.Unlock()
	if gen.sketch != nil {
		return gen.sketch // a concurrent builder won; share its copy
	}
	if s.gen.Load() == gen {
		gen.sketch = sk
	}
	return sk
}

// lookupDist returns a cached distance answer for key.
func (gen *generation) lookupDist(key distKey) (distVal, bool) {
	gen.distMu.Lock()
	v, ok := gen.distCache[key]
	gen.distMu.Unlock()
	return v, ok
}

// storeDist caches a distance answer, clearing the map when it is full.
func (gen *generation) storeDist(key distKey, v distVal) {
	gen.distMu.Lock()
	if len(gen.distCache) >= distCacheCap {
		clear(gen.distCache)
	}
	gen.distCache[key] = v
	gen.distMu.Unlock()
}

// flight is one in-flight estimation run, deduplicating concurrent requests
// with identical parameters (singleflight). The run's context derives from
// the server's base context — not any single request's — and is canceled
// when the last waiter walks away (client disconnects, deadlines expire) or
// the server closes, so abandoned work stops burning CPU. Every flight runs
// in anytime mode: prog carries live progress (surfaced by /v1/status and the
// Retry-After hint) and builds the partial snapshot a degrading waiter takes
// when its soft or hard deadline lands.
type flight struct {
	done    chan struct{} // closed when res/err are set
	res     *core.Result
	err     error
	waiters int // guarded by the generation's mu
	cancel  context.CancelFunc
	prog    *core.Progress
	key     string
	genID   uint64
	started time.Time
}

// estimate returns gen's cached result for key, joins an identical in-flight
// run, or starts one (subject to admission control). ctx is the request's
// context: its cancellation abandons only this caller's wait, aborting the
// compute itself only when no other request still wants the result. degrade
// selects the caller's deadline policy: an accepting waiter takes a partial
// snapshot at its soft deadline instead of timing out, a rejecting waiter
// insists on the exact result or an error.
func (s *Server) estimate(ctx context.Context, gen *generation, key string, opts core.Options, degrade bool) (*core.Result, error) {
	gen.mu.Lock()
	if res, ok := gen.cache[key]; ok {
		gen.mu.Unlock()
		return res, nil
	}
	if f, ok := gen.flights[key]; ok {
		f.waiters++
		gen.mu.Unlock()
		return s.wait(ctx, gen, key, f, degrade)
	}
	// Leader: take an estimation slot or shed the request.
	select {
	case s.sem <- struct{}{}:
	default:
		gen.mu.Unlock()
		return nil, errBusy
	}
	fctx, fcancel := context.WithCancel(s.baseCtx)
	f := &flight{
		done: make(chan struct{}), waiters: 1, cancel: fcancel,
		prog: &core.Progress{}, key: key, genID: gen.id, started: time.Now(),
	}
	opts.Anytime = true
	opts.Progress = f.prog
	gen.flights[key] = f
	gen.mu.Unlock()

	s.trackRun(f)
	s.runWG.Add(1)
	go s.run(fctx, gen, key, f, opts)
	return s.wait(ctx, gen, key, f, degrade)
}

// run executes one estimation flight on the generation's plan for its mask:
// panic-safe, cancellable, publishing into the generation's cache on
// success. A partial result (the run was interrupted and degraded) is handed
// to its waiters but never cached — the next identical request starts a
// fresh run. Always releases the admission slot, before waking the waiters
// (one of them may want a slot next: a top-k's verification), and retires
// the flight from the status registry.
func (s *Server) run(fctx context.Context, gen *generation, key string, f *flight, opts core.Options) {
	defer s.runWG.Done()
	defer f.cancel()
	res, err := func() (res *core.Result, err error) {
		defer func() {
			if v := recover(); v != nil {
				res, err = nil, &panicError{val: v}
			}
		}()
		if err := fault.Checkpoint(fctx, "server.estimate"); err != nil {
			return nil, err
		}
		plan, built, err := s.planFor(fctx, gen, opts.Techniques)
		if err != nil {
			return nil, err
		}
		s.estimateRuns.Add(1)
		if res, err = plan.Estimate(fctx, opts); err == nil && built {
			res.Stats.Preprocess += plan.BuildTime()
		}
		return res, err
	}()
	<-s.sem
	gen.mu.Lock()
	f.res, f.err = res, err
	if gen.flights[key] == f {
		delete(gen.flights, key)
	}
	if err == nil && res != nil && !res.Partial {
		gen.storeResult(key, res)
		s.recordRunDuration(time.Since(f.started))
	}
	gen.mu.Unlock()
	// Retire the flight from the status registry before waking its waiters,
	// so a status read after the response never lists the finished run.
	s.untrackRun(f)
	close(f.done)
}

// wait blocks until the flight completes or the caller's deadline policy
// fires. The last waiter to walk away aborts the flight's compute and
// retires it from the dedup map, so a later identical request starts fresh.
//
// Degraded-mode state machine (degrade=true):
//
//	waiting ──soft deadline, snapshot available──▶ serve snapshot (200 partial)
//	waiting ──soft deadline, no snapshot─────────▶ keep waiting to the hard deadline
//	waiting ──hard deadline──▶ leave (the last waiter's cancel propagates);
//	          serve a snapshot built then, else 504
//	waiting ──flight done────▶ exact result, or the run's own partial
//
// A snapshot exists once the run has a partial: a source has completed and,
// on a plan with cut vertices, every cut sweep has landed. A degrade=false
// waiter skips the soft timer entirely and converts any partial outcome
// into errPartialOnly (503).
func (s *Server) wait(ctx context.Context, gen *generation, key string, f *flight, degrade bool) (*core.Result, error) {
	finish := func() (*core.Result, error) {
		gen.mu.Lock()
		f.waiters--
		gen.mu.Unlock()
		if f.err == nil && f.res != nil && f.res.Partial && !degrade {
			return nil, errPartialOnly
		}
		return f.res, f.err
	}
	// leave retires this waiter; the last one out cancels the compute.
	leave := func() {
		gen.mu.Lock()
		f.waiters--
		abandoned := f.waiters == 0
		if abandoned && gen.flights[key] == f {
			delete(gen.flights, key)
		}
		gen.mu.Unlock()
		if abandoned {
			f.cancel()
		}
	}

	var soft <-chan time.Time
	if degrade {
		if dl, ok := ctx.Deadline(); ok {
			if d := time.Until(dl) - s.cfg.SoftMargin; d > 0 {
				t := time.NewTimer(d)
				defer t.Stop()
				soft = t.C
			}
		}
	}
	select {
	case <-f.done:
		return finish()
	case <-soft:
		// Soft deadline: serve a snapshot of the sources completed so far,
		// leaving the run to any remaining waiters (or cancellation if we
		// were the last — the snapshot is this waiter's own copy either way).
		if snap := f.prog.Snapshot(); snap != nil {
			leave()
			return snap, nil
		}
		// No partial yet; hold on until the run finishes or the hard
		// deadline fires.
		select {
		case <-f.done:
			return finish()
		case <-ctx.Done():
		}
	case <-ctx.Done():
	}
	// Hard deadline (or client disconnect).
	leave()
	if degrade {
		if snap := f.prog.Snapshot(); snap != nil {
			return snap, nil
		}
	}
	return nil, par.CtxErr(ctx)
}

// trackRun registers a started flight in the status registry behind
// /v1/status and the Retry-After hint.
func (s *Server) trackRun(f *flight) {
	s.runsMu.Lock()
	s.runs[f] = struct{}{}
	s.runsMu.Unlock()
}

func (s *Server) untrackRun(f *flight) {
	s.runsMu.Lock()
	delete(s.runs, f)
	s.runsMu.Unlock()
}

// inflightRuns snapshots the live flights, most advanced first.
func (s *Server) inflightRuns() []*flight {
	s.runsMu.Lock()
	out := make([]*flight, 0, len(s.runs))
	for f := range s.runs {
		out = append(out, f)
	}
	s.runsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].prog.Fraction() > out[j].prog.Fraction() })
	return out
}

// recordRunDuration feeds the completed-run duration ring behind the
// Retry-After estimate. Only full (uninterrupted) runs are recorded: a
// degraded run's elapsed time says nothing about how long the next full run
// will take.
func (s *Server) recordRunDuration(d time.Duration) {
	s.durMu.Lock()
	s.durs[s.durI%len(s.durs)] = d
	s.durI++
	s.durMu.Unlock()
}

// medianRunDuration returns the median of the recorded full-run durations,
// or 0 when none have completed yet.
func (s *Server) medianRunDuration() time.Duration {
	s.durMu.Lock()
	n := s.durI
	if n > len(s.durs) {
		n = len(s.durs)
	}
	tmp := make([]time.Duration, n)
	copy(tmp, s.durs[:n])
	s.durMu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return tmp[n/2]
}

// retryAfterSeconds estimates how long a shed request should back off: the
// soonest in-flight run to finish frees a slot, and its remaining time is the
// median full-run duration scaled by its unfinished fraction. No history or
// no progress data degrades to the 1-second floor; the hint is clamped to
// [1, 30] so a stuck run cannot push clients away for minutes.
func retryAfterSeconds(median time.Duration, progress []float64) int {
	const floor, ceil = 1, 30
	if median <= 0 || len(progress) == 0 {
		return floor
	}
	best := math.Inf(1)
	for _, p := range progress {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		if rem := 1 - p; rem < best {
			best = rem
		}
	}
	secs := int(math.Ceil(best * median.Seconds()))
	if secs < floor {
		return floor
	}
	if secs > ceil {
		return ceil
	}
	return secs
}

// retryAfter computes the live Retry-After hint from the duration history and
// the in-flight runs' progress.
func (s *Server) retryAfter() int {
	runs := s.inflightRuns()
	fracs := make([]float64, len(runs))
	for i, f := range runs {
		fracs[i] = f.prog.Fraction()
	}
	return retryAfterSeconds(s.medianRunDuration(), fracs)
}
