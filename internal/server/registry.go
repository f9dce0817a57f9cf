package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bincsr"
)

// ErrUnknownGraph reports a request for a graph id the registry was not
// configured with; the HTTP layer maps it to 404.
var ErrUnknownGraph = errors.New("server: unknown graph")

// errRegistryClosed sheds requests arriving after Close; mapped to 503.
var errRegistryClosed = errors.New("server: registry closed")

// RegistryConfig tunes the multi-graph registry.
type RegistryConfig struct {
	// Server is the configuration template every per-graph Server is built
	// from (workers, admission, deadlines, sketch options). AssumeConnected
	// is overridden per artifact from its FlagConnected bit.
	Server Config
	// MaxResidentBytes caps the summed ResidentBytes of loaded artifacts.
	// A load pushing past the cap evicts idle graphs (refcount zero),
	// least-recently-used first. 0 means unlimited. The cap bounds hoarding,
	// not correctness: a single artifact larger than the whole budget still
	// loads and serves — there is simply nothing left to evict.
	MaxResidentBytes int64
	// Verify selects how much of an artifact is checked at load time
	// (bincsr.VerifyFast by default — see bincsr.VerifyMode).
	Verify bincsr.VerifyMode
	// DefaultGraph is the id behind the legacy single-graph routes
	// (/v1/..., /readyz). Empty selects the lexicographically first id.
	DefaultGraph string
}

// Registry serves many graphs from one address, each under
// /graphs/{id}/v1/... with the legacy single-graph routes aliased to a
// default graph. Graphs are artifacts (.bricsbin) loaded lazily via
// bincsr.OpenMapped on first request — time-to-first-query is page-cache
// time, not parse time — and evicted LRU under a resident-byte budget.
//
// Lifetime safety: unmapping an artifact while a traversal still walks its
// CSR views is a segfault, so every request holds a reference on its graph
// entry for the duration of the handler, eviction only ever selects entries
// with zero references, and the evictor stops the entry's server and drains
// its detached estimation goroutines (Server.Close + Server.WaitRuns)
// before munmap. An evicted graph is not gone — the next request for its id
// reloads it from the artifact.
type Registry struct {
	cfg       RegistryConfig
	defaultID string

	mu        sync.Mutex
	paths     map[string]string    // registered id → artifact path; immutable
	entries   map[string]*regEntry // loading or loaded
	loadCount map[string]int       // per-id loads (reloads after eviction)
	resident  int64
	evictions int64
	closed    bool
}

// regEntry is one graph's load state. refs/lastAccess/loaded are guarded by
// Registry.mu; srv/mapped/err are written once by the loader before ready is
// closed and read-only afterwards.
type regEntry struct {
	id, path string
	ready    chan struct{}
	err      error
	srv      *Server
	mapped   *bincsr.Mapped

	refs       int
	lastAccess time.Time
	loaded     bool // load finished successfully and resident is accounted
}

// DiscoverArtifacts maps every .bricsbin file directly under dir to a graph
// id (the file name without extension).
func DiscoverArtifacts(dir string) (map[string]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	paths := make(map[string]string)
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".bricsbin") {
			continue
		}
		paths[strings.TrimSuffix(name, ".bricsbin")] = filepath.Join(dir, name)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("server: no .bricsbin artifacts in %s", dir)
	}
	return paths, nil
}

// NewRegistry builds a registry over id → artifact path. Nothing is loaded
// until the first request for each graph.
func NewRegistry(paths map[string]string, cfg RegistryConfig) (*Registry, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("server: registry needs at least one graph")
	}
	cfg.Server = cfg.Server.withDefaults()
	def := cfg.DefaultGraph
	if def == "" {
		ids := make([]string, 0, len(paths))
		for id := range paths {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		def = ids[0]
	} else if _, ok := paths[def]; !ok {
		return nil, fmt.Errorf("%w: default graph %q", ErrUnknownGraph, def)
	}
	r := &Registry{
		cfg:       cfg,
		defaultID: def,
		paths:     make(map[string]string, len(paths)),
		entries:   make(map[string]*regEntry),
		loadCount: make(map[string]int),
	}
	for id, p := range paths {
		if id == "" || strings.ContainsAny(id, "/?#") {
			return nil, fmt.Errorf("server: graph id %q is not routable", id)
		}
		r.paths[id] = p
	}
	return r, nil
}

// DefaultGraph returns the id behind the legacy single-graph routes.
func (r *Registry) DefaultGraph() string { return r.defaultID }

// acquire returns the entry for id with a reference held, loading the
// artifact if necessary. Concurrent first requests for one id share a single
// load (the ready channel); requests for different ids load independently.
func (r *Registry) acquire(id string) (*regEntry, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errRegistryClosed
	}
	path, ok := r.paths[id]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	if e, ok := r.entries[id]; ok {
		e.refs++
		e.lastAccess = time.Now()
		r.mu.Unlock()
		<-e.ready
		if e.err != nil {
			r.release(e)
			return nil, e.err
		}
		return e, nil
	}
	// Leader: install a placeholder so followers wait on this load, then
	// load outside the lock — a slow mmap/verify must not block requests
	// for other graphs.
	e := &regEntry{id: id, path: path, ready: make(chan struct{}), refs: 1, lastAccess: time.Now()}
	r.entries[id] = e
	r.loadCount[id]++
	r.mu.Unlock()

	e.load(r.cfg)
	r.mu.Lock()
	if e.err != nil {
		if r.entries[id] == e {
			delete(r.entries, id)
		}
	} else {
		e.loaded = true
		r.resident += e.mapped.ResidentBytes()
		r.evictLocked(e)
	}
	closed := r.closed
	r.mu.Unlock()
	close(e.ready)
	if e.err != nil {
		return nil, e.err
	}
	if closed {
		// Lost the race against Close; Close never saw this entry loaded,
		// so retire it here.
		r.release(e)
		r.retire(e)
		return nil, errRegistryClosed
	}
	return e, nil
}

// load opens the artifact and builds its server. Connectivity handling
// follows the artifact's flags: FlagConnected skips the O(n+m) scan (the
// converter already proved it — rescanning would fault in every page and
// forfeit the lazy load); an unflagged artifact is scanned like any other
// graph.
func (e *regEntry) load(cfg RegistryConfig) {
	m, err := bincsr.OpenMapped(e.path, bincsr.Options{Verify: cfg.Verify, Workers: cfg.Server.Workers})
	if err != nil {
		e.err = fmt.Errorf("graph %q: %w", e.id, err)
		return
	}
	scfg := cfg.Server
	scfg.AssumeConnected = m.Header.Connected()
	srv, err := NewWithConfig(m.G, scfg)
	if err != nil {
		_ = m.Close()
		e.err = fmt.Errorf("graph %q: %w", e.id, err)
		return
	}
	e.mapped, e.srv = m, srv
}

// release drops one reference and evicts down to the budget: a load that
// ran while every other resident graph was referenced could evict nothing,
// and the graph going idle here is the first chance to catch up.
func (r *Registry) release(e *regEntry) {
	r.mu.Lock()
	e.refs--
	if !r.closed {
		r.evictLocked(nil)
	}
	r.mu.Unlock()
}

// evictLocked evicts idle graphs LRU-first until the resident total fits the
// budget. keep (the entry that just loaded; nil on release) is never
// evicted — evicting the graph a request is about to use would thrash.
// Entries with live references or still loading are skipped; if only those
// remain, the registry runs over budget until the next release.
func (r *Registry) evictLocked(keep *regEntry) {
	max := r.cfg.MaxResidentBytes
	if max <= 0 {
		return
	}
	for r.resident > max {
		var victim *regEntry
		for _, e := range r.entries {
			if e == keep || !e.loaded || e.refs > 0 {
				continue
			}
			if victim == nil || e.lastAccess.Before(victim.lastAccess) {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(r.entries, victim.id)
		r.resident -= victim.mapped.ResidentBytes()
		r.evictions++
		// Stopping the victim's server and draining its runs can take a
		// moment; do it off the registry lock. No new reference can appear —
		// the entry is out of the map.
		go r.retire(victim)
	}
}

// retire stops an evicted entry's server, waits out its detached estimation
// goroutines, and only then unmaps the artifact.
func (r *Registry) retire(e *regEntry) {
	e.srv.Close()
	e.srv.WaitRuns()
	_ = e.mapped.Close()
}

// Close evicts everything and rejects further requests. It returns after
// every loaded graph's runs are drained and its mapping released.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	victims := make([]*regEntry, 0, len(r.entries))
	for id, e := range r.entries {
		if e.loaded {
			victims = append(victims, e)
			r.resident -= e.mapped.ResidentBytes()
		}
		// Loading entries retire themselves when their load completes (see
		// acquire); loaded ones are ours.
		delete(r.entries, id)
	}
	r.mu.Unlock()
	for _, e := range victims {
		r.retire(e)
	}
}

// registryGraphStatus is one graph's row in /graphs and /v1/status.
type registryGraphStatus struct {
	ID     string `json:"id"`
	Loaded bool   `json:"loaded"`
	// Mapped distinguishes a true zero-copy memory mapping from the heap
	// copy fallback (non-linux builds); meaningful only when Loaded.
	Mapped        bool  `json:"mapped,omitempty"`
	ResidentBytes int64 `json:"residentBytes,omitempty"`
	Refs          int   `json:"refs,omitempty"`
	Loads         int   `json:"loads,omitempty"`
	IdleMillis    int64 `json:"idleMillis,omitempty"`
}

// registryStatus is the registry block embedded in /v1/status and the body
// of /graphs.
type registryStatus struct {
	Graphs           []registryGraphStatus `json:"graphs"`
	ResidentBytes    int64                 `json:"residentBytes"`
	MaxResidentBytes int64                 `json:"maxResidentBytes,omitempty"`
	Evictions        int64                 `json:"evictions"`
	DefaultGraph     string                `json:"defaultGraph"`
}

func (r *Registry) status() registryStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.paths))
	for id := range r.paths {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	now := time.Now()
	st := registryStatus{
		Graphs:           make([]registryGraphStatus, 0, len(ids)),
		ResidentBytes:    r.resident,
		MaxResidentBytes: r.cfg.MaxResidentBytes,
		Evictions:        r.evictions,
		DefaultGraph:     r.defaultID,
	}
	for _, id := range ids {
		row := registryGraphStatus{ID: id, Loads: r.loadCount[id]}
		if e, ok := r.entries[id]; ok && e.loaded {
			row.Loaded = true
			row.Mapped = e.mapped.Mapped()
			row.ResidentBytes = e.mapped.ResidentBytes()
			row.Refs = e.refs
			row.IdleMillis = now.Sub(e.lastAccess).Milliseconds()
		}
		st.Graphs = append(st.Graphs, row)
	}
	return st
}

// registryStatusBody is the merged /v1/status answer: the default graph's
// live state plus the registry block.
type registryStatusBody struct {
	statusBody
	Graph    string         `json:"graph"`
	Registry registryStatus `json:"registry"`
}

// ServeHTTP routes:
//
//	GET /healthz                  liveness (never loads a graph)
//	GET /graphs                   every registered graph's load state
//	    /graphs/{id}              one graph's load state (no load triggered)
//	    /graphs/{id}/v1/...       that graph's full Server API
//	    /graphs/{id}/healthz      per-graph liveness (loads the graph)
//	    /v1/..., /readyz          legacy single-graph routes → default graph
//	GET /v1/status                default graph's status + registry block
//
// A panic anywhere answers 500 without taking the daemon down, mirroring
// Server.ServeHTTP.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			if v == http.ErrAbortHandler {
				panic(v)
			}
			writeErr(w, http.StatusInternalServerError, "internal error: %v", v)
		}
	}()
	p := req.URL.Path
	switch {
	case p == "/healthz":
		// Liveness must not depend on any graph loading.
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case p == "/graphs" || p == "/graphs/":
		if req.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, r.status())
	case strings.HasPrefix(p, "/graphs/"):
		rest := strings.TrimPrefix(p, "/graphs/")
		id, sub, slash := strings.Cut(rest, "/")
		if !slash || sub == "" {
			// /graphs/{id}: that graph's row, without forcing a load.
			r.handleGraphInfo(w, req, id)
			return
		}
		r.delegate(w, req, id, "/"+sub)
	case p == "/v1/status":
		r.handleMergedStatus(w, req)
	default:
		r.delegate(w, req, r.defaultID, p)
	}
}

func (r *Registry) handleGraphInfo(w http.ResponseWriter, req *http.Request, id string) {
	if req.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	for _, row := range r.status().Graphs {
		if row.ID == id {
			writeJSON(w, http.StatusOK, row)
			return
		}
	}
	writeErr(w, http.StatusNotFound, "unknown graph %q", id)
}

func (r *Registry) handleMergedStatus(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	e, err := r.acquire(r.defaultID)
	if err != nil {
		r.writeAcquireErr(w, err)
		return
	}
	defer r.release(e)
	writeJSON(w, http.StatusOK, registryStatusBody{
		statusBody: e.srv.statusSnapshot(),
		Graph:      r.defaultID,
		Registry:   r.status(),
	})
}

// delegate pins the graph for the request's duration and hands the request
// to its server with the /graphs/{id} prefix stripped.
func (r *Registry) delegate(w http.ResponseWriter, req *http.Request, id, path string) {
	e, err := r.acquire(id)
	if err != nil {
		r.writeAcquireErr(w, err)
		return
	}
	defer r.release(e)
	req2 := req.Clone(req.Context())
	req2.URL.Path = path
	e.srv.ServeHTTP(w, req2)
}

func (r *Registry) writeAcquireErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownGraph):
		writeErr(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, errRegistryClosed):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	default:
		// The artifact failed to load — an operational problem, not the
		// client's.
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}
