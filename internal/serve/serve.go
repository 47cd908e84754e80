// Package serve implements flord, the multi-run replay serving daemon: the
// step from "library" to "service" on the ROADMAP.
//
// The paper frames hindsight logging as an interactive workflow — an analyst
// poses post-hoc queries against many past training runs and expects
// low-latency replayed logs. One process per query wastes exactly the state
// that makes repeated queries fast: an open store's replayed manifest, its
// dedup chunk index, and the decoded payloads of content restored by earlier
// queries. The daemon keeps all three hot:
//
//   - a registry of recordings (run ID → directory + named probe factories),
//   - an LRU cache of shared read-only stores (store.OpenReadOnly), each
//     paired with a cross-query payload cache, so manifests are replayed
//     once and restored content decodes once,
//   - one shared worker pool (sched.Pool) with a global slot budget: the
//     lease/stealing executor's slots lifted above a single replay, so
//     segments from different queries compete for the same compute and a
//     cheap sample query is not starved behind a G=8 full replay
//     (cheapest-estimated-cost-first slot granting),
//   - per-run admission control: bounded in-flight queries per run, a
//     bounded wait queue, and a queueing deadline.
//
// Both query kinds run through one function, query: Replay and Sample parse
// their request and shape their response, and everything between — admission
// to trace retention, failures classified once — happens there.
//
// http.go exposes the daemon over HTTP/JSON (/v1/runs for listing and
// registration, /v1/runs/{id}/replay, /v1/runs/{id}/logs, /v1/stats);
// cmd/flord is the standalone binary and flor.Serve the embedding API.
//
// # Registration and store-layout compatibility
//
// Runs register through Register (Go API) or POST /v1/runs (against a
// program name from Options.Library — probes are Go closures, so remote
// clients can only name programs the embedder registered — and confined to
// directories under Options.RegisterRoot, so remote clients cannot point
// the daemon at arbitrary server-side paths). Registration
// validates the directory's store layout eagerly via store.DetectLayout:
// v1, unsharded v2, and hash-prefix-sharded v2 directories (docs/FORMATS.md)
// all serve through the same lazily opened read-only path, while a
// directory recorded by a future layout — store.ErrUnknownFormat, carrying
// the unrecognized FORMAT marker — is rejected as a client error (HTTP 400)
// at registration instead of surfacing as a 500 from the first query. The
// detected layout is reported per run in /v1/runs listings. For sharded
// stores the hot read path issues per-shard ranged reads; the store LRU
// and payload caches need no layout-specific handling.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/obs/tracestore"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/sched"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/cachetier"
	"flor.dev/flor/internal/store/remote"
)

// Typed query failures; the HTTP layer maps them to status codes.
var (
	// ErrUnknownRun is returned for an unregistered run ID (404).
	ErrUnknownRun = errors.New("serve: unknown run")
	// ErrUnknownTrace is returned for a replay trace ID the run's trace ring
	// no longer holds (404).
	ErrUnknownTrace = errors.New("serve: unknown trace")
	// ErrUnknownProbe is returned for a probe name the run does not
	// register (400).
	ErrUnknownProbe = errors.New("serve: unknown probe")
	// ErrBadRequest is returned for malformed query parameters (unknown
	// scheduler/init names, empty or out-of-range iteration lists) (400).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrBusy is returned when a run's wait queue is full (429).
	ErrBusy = errors.New("serve: run queue full")
	// ErrQueueTimeout is returned when a queued query's deadline expires
	// before an in-flight slot frees up (504).
	ErrQueueTimeout = errors.New("serve: queue deadline exceeded")
	// ErrDraining is returned once Shutdown has begun: the daemon finishes
	// in-flight queries but accepts no new work (503).
	ErrDraining = errors.New("serve: draining")
)

// RunConfig registers one recording with the daemon.
type RunConfig struct {
	// ID names the run in the HTTP API.
	ID string
	// Dir is the recorded run directory (opened read-only, lazily, on the
	// first query).
	Dir string
	// Factories maps probe names to program factories: "base" (or "") is
	// conventionally the unprobed program; other entries are hindsight-
	// probed variants. Replays are Go closures, so probe variants must be
	// registered by the embedding program — HTTP clients select them by
	// name.
	Factories map[string]func() *script.Program
	// Remote serves the run from the daemon's shared remote object pool
	// (Options.Remote): registration fetches the run's control plane from
	// <pool>/<ID>/ctl/ into Dir (created if needed), and every pack read
	// routes through the remote backend and the chunk-cache tier. Dir is
	// then the run's local control-plane scratch, not a recorded run.
	Remote bool
}

// Options configures a Server. Zero values select the documented defaults.
type Options struct {
	// Addr is the listen address for ListenAndServe (default ":7707").
	Addr string
	// Slots is the global worker-pool budget shared by every query
	// (default GOMAXPROCS).
	Slots int
	// MaxInflightPerRun bounds concurrently executing queries per run
	// (default 2).
	MaxInflightPerRun int
	// MaxQueuePerRun bounds queries waiting for admission per run; beyond
	// it queries are rejected with ErrBusy. Zero selects the default (8);
	// negative disables queueing entirely, so queries beyond the in-flight
	// bound are rejected immediately.
	MaxQueuePerRun int
	// QueueTimeout bounds how long an admitted-queue query waits before
	// failing with ErrQueueTimeout (default 30s).
	QueueTimeout time.Duration
	// StoreCacheSize bounds the open-store LRU (default 8).
	StoreCacheSize int
	// PayloadCacheBytes bounds each store's cross-query decoded-payload
	// cache (default backmat.DefaultPayloadCacheBytes).
	PayloadCacheBytes int64
	// DefaultWorkers is the replay parallelism used when a query does not
	// ask for one (default 2).
	DefaultWorkers int
	// OnEvict, when set, observes store-cache evictions (tests, metrics).
	OnEvict func(runID string)
	// Library maps program names to probe-factory sets for HTTP
	// registration (POST /v1/runs): probes are Go closures, so remote
	// clients can only register directories against programs the embedder
	// has named here. An empty library disables HTTP registration.
	Library map[string]map[string]func() *script.Program
	// RegisterRoot confines HTTP registration to run directories under this
	// path. It must be set (alongside Library) for POST /v1/runs to work at
	// all: without the confinement, any client that can reach the listener
	// could make the daemon open and probe arbitrary server-side paths.
	// The Go-API Register is not confined — the embedder owns those paths.
	RegisterRoot string
	// TraceRing bounds each run's in-memory trace ring: a completed query's
	// span trace stays retrievable until TraceRing newer queries push it out
	// (default 16). Evictions count into flor_serve_traces_dropped_total.
	TraceRing int
	// TraceDir, when set, persists query traces to a durable trace store
	// under this directory (internal/obs/tracestore): traces survive daemon
	// restarts and outlive the ring, subject to the retention knobs below.
	TraceDir string
	// TraceSampleN head-samples persisted traces: 1 in N is kept (<= 1 keeps
	// all). Slow queries always persist regardless. Ring retention is not
	// sampled.
	TraceSampleN int
	// SlowQueryThreshold flags queries whose wall time meets or exceeds it:
	// they bypass trace sampling, land in the trace store's slow-query log
	// with full span detail, and count into flor_serve_slow_queries_total.
	// Zero disables slow-query capture.
	SlowQueryThreshold time.Duration
	// TraceStoreMaxBytes bounds the trace store's on-disk footprint
	// (default 16 MiB; oldest segments are pruned whole).
	TraceStoreMaxBytes int64
	// TraceStoreMaxAge prunes trace segments whose newest entry is older
	// than this (0 = no age pruning).
	TraceStoreMaxAge time.Duration
	// Remote points the daemon at a shared remote object pool — for the
	// bundled filesystem store, the pool's root directory. Empty disables
	// remote serving; RunConfig.Remote registrations then fail.
	Remote string
	// CacheDir is where the remote chunk-cache tier keeps its blocks;
	// empty keeps blocks in memory. The directory is cleared on startup.
	CacheDir string
	// CacheMaxBytes bounds the chunk-cache tier (default 256 MiB;
	// negative disables the cache tier, every read goes remote).
	CacheMaxBytes int64
	// Prefetch is the plan-driven readahead depth, in main-loop iterations,
	// for replay queries against remote-backed runs: each replay worker
	// keeps the chunk-cache tier warm that many iterations ahead of its
	// restore front, overlapping remote fetch with replay compute. Zero
	// disables speculation. Local runs are unaffected either way.
	Prefetch int
}

func (o *Options) fill() {
	if o.Addr == "" {
		o.Addr = ":7707"
	}
	if o.Slots <= 0 {
		o.Slots = runtime.GOMAXPROCS(0)
	}
	if o.MaxInflightPerRun <= 0 {
		o.MaxInflightPerRun = 2
	}
	if o.MaxQueuePerRun < 0 {
		o.MaxQueuePerRun = 0
	} else if o.MaxQueuePerRun == 0 {
		o.MaxQueuePerRun = 8
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 30 * time.Second
	}
	if o.StoreCacheSize <= 0 {
		o.StoreCacheSize = 8
	}
	if o.DefaultWorkers <= 0 {
		o.DefaultWorkers = 2
	}
	if o.TraceRing <= 0 {
		o.TraceRing = defaultTraceRing
	}
	if o.CacheMaxBytes == 0 {
		o.CacheMaxBytes = 256 << 20
	}
}

// QueryCost summarizes the resources one query consumed: logical checkpoint
// bytes restored, time spent restoring them, and the fetch-tier attribution
// of every byte the store served (scatter-preadv / ranged / remote reads vs
// the cross-query payload cache). Returned per query in replay and sample
// responses and accumulated per run in /v1/stats.
type QueryCost struct {
	RestoredBytes int64               `json:"restored_bytes"`
	RestoreNs     int64               `json:"restore_ns"`
	Fetch         store.FetchSnapshot `json:"fetch"`
}

func (c QueryCost) add(o QueryCost) QueryCost {
	return QueryCost{
		RestoredBytes: c.RestoredBytes + o.RestoredBytes,
		RestoreNs:     c.RestoreNs + o.RestoreNs,
		Fetch:         c.Fetch.Add(o.Fetch),
	}
}

// RunStats is one run's query accounting.
type RunStats struct {
	Replays       int64 `json:"replays"`
	Samples       int64 `json:"samples"`
	Errors        int64 `json:"errors"`
	Rejected      int64 `json:"rejected"`
	QueueTimeouts int64 `json:"queue_timeouts"`
	StoreHits     int64 `json:"store_hits"`
	StoreMisses   int64 `json:"store_misses"`
	// StaleRefreshes counts queries that hit a cached store whose pack
	// generations a GC had deleted (store.ErrStalePack) and recovered by
	// reopening the store and retrying once.
	StaleRefreshes int64 `json:"stale_refreshes"`
	// SlowQueries counts queries at or above Options.SlowQueryThreshold.
	SlowQueries int64 `json:"slow_queries"`
	// Cost accumulates the run's completed queries' resource summaries:
	// restored bytes, restore time, and per-tier fetch attribution.
	Cost     QueryCost `json:"cost"`
	QueueNs  int64     `json:"queue_ns"`
	Inflight int       `json:"inflight"`
	Queued   int       `json:"queued"`
	// OldestQueryAgeSeconds is how long the longest-running in-flight query
	// has been executing at snapshot time (0 when the run is idle).
	OldestQueryAgeSeconds float64 `json:"oldest_query_age_seconds,omitempty"`
}

// defaultTraceRing is the default per-run trace-ring capacity: each
// completed query's span trace is retrievable over HTTP until that many
// newer queries push it out (Options.TraceRing overrides).
const defaultTraceRing = 16

// run is one registered recording's serving state.
type run struct {
	cfg    RunConfig
	layout store.Layout // validated at registration
	// shardRoots pins the sharded store's pack roots as validated at
	// registration: opens fail rather than follow a later SHARDS rewrite.
	shardRoots []string
	// poolRoot pins a pooled run's chunk-pool root the same way ("" for
	// private-pack runs). Runs sharing a poolRoot form a project group:
	// their stores resolve chunks through one pool and their queries share
	// one decoded-payload cache.
	poolRoot string
	sem      chan struct{} // in-flight bound

	ringCap int // trace-ring capacity (Options.TraceRing)

	mu       sync.Mutex
	queued   int
	inflight int // queries holding a sem slot; guarded by mu so Stats can't tear
	// inflightAt tracks each in-flight query's start time by an opaque
	// token, so Stats can report the longest-running query's age.
	inflightAt  map[int]time.Time
	inflightTok int
	stats       RunStats
	traceSeq    int
	traces      []replayTrace // ring, newest last, at most ringCap

	// Per-run metric handles, resolved once at registration (nil no-ops
	// while the registry is disabled).
	mReplays       *obs.Counter
	mSamples       *obs.Counter
	mRejected      *obs.Counter
	mQueueTimeouts *obs.Counter
	mErrors        *obs.Counter
	mTracesDropped *obs.Counter
	mSlowQueries   *obs.Counter
	mQueueDepth    *obs.Gauge
	mInflight      *obs.Gauge
}

// replayTrace is one retained replay trace.
type replayTrace struct {
	id string
	tr *obs.Trace
}

// keepTrace retains a completed query's trace: it assigns the next trace ID,
// appends the trace to the run's ring (counting evictions), flags slow
// queries, and — when a durable trace store is configured — persists the
// full span detail so the trace survives ring eviction and daemon restarts.
func (s *Server) keepTrace(r *run, kind string, tr *obs.Trace, start time.Time, durNs int64, slow bool) string {
	r.mu.Lock()
	r.traceSeq++
	id := fmt.Sprintf("t%06d", r.traceSeq)
	r.traces = append(r.traces, replayTrace{id: id, tr: tr})
	dropped := len(r.traces) - r.ringCap
	if dropped > 0 {
		r.traces = r.traces[dropped:]
	}
	if slow {
		r.stats.SlowQueries++
	}
	r.mu.Unlock()
	if dropped > 0 {
		r.mTracesDropped.Add(int64(dropped))
	}
	if slow {
		r.mSlowQueries.Inc()
	}
	if s.traces != nil {
		// Best-effort durability: a full disk must not fail the query whose
		// result is already computed; the ring still serves the trace.
		_, _ = s.traces.Append(tracestore.Entry{
			TraceID:     id,
			Run:         r.cfg.ID,
			Kind:        kind,
			StartUnixNs: start.UnixNano(),
			DurNs:       durNs,
			Slow:        slow,
			Spans:       tr.Spans(),
		})
	}
	return id
}

// trace looks a retained trace up by ID.
func (r *run) trace(id string) (*obs.Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.traces {
		if t.id == id {
			return t.tr, true
		}
	}
	return nil, false
}

func (r *run) factory(probe string) (func() *script.Program, error) {
	if probe == "" {
		probe = "base"
	}
	if f, ok := r.cfg.Factories[probe]; ok {
		return f, nil
	}
	if probe == "base" {
		if f, ok := r.cfg.Factories[""]; ok {
			return f, nil
		}
	}
	return nil, fmt.Errorf("%w: %q for run %q", ErrUnknownProbe, probe, r.cfg.ID)
}

// probes returns the run's registered probe names, sorted, "" shown as
// "base".
func (r *run) probes() []string {
	out := make([]string, 0, len(r.cfg.Factories))
	for name := range r.cfg.Factories {
		if name == "" {
			name = "base"
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Server is the flord daemon. Construct with New, register recordings, then
// expose Handler (or ListenAndServe). Shutdown drains gracefully: new work
// is refused with ErrDraining while in-flight queries finish.
type Server struct {
	opts   Options
	pool   *sched.Pool
	stores *storeCache
	// traces is the durable trace store (nil unless Options.TraceDir is
	// set); traceErr records a failed open so the operator can surface it.
	traces   *tracestore.Store
	traceErr error

	// remote is the shared object pool (nil unless Options.Remote is set),
	// already wrapped with the retry policy; chunkCache is the local
	// read-through cache tier in front of it (nil when disabled);
	// remoteErr records a failed setup, surfaced on remote registration.
	remote     remote.ObjectStore
	chunkCache *cachetier.Cache
	remoteErr  error

	// reg is the metrics registry as of construction (nil when disabled);
	// /metrics renders it. Per-run and per-route handles resolve from the
	// same package-level default, so enabling obs after New leaves the
	// server dark — flord enables before constructing anything.
	reg *obs.Registry
	// inflightN counts queries between beginQuery and done across all runs;
	// drain logging reads it without touching per-run locks.
	inflightN atomic.Int64

	mQuerySeconds  map[string]*obs.Histogram // by kind: replay | sample
	mDrainingGauge *obs.Gauge

	mu       sync.Mutex
	runs     map[string]*run
	order    []string
	draining bool
	inflight sync.WaitGroup
	httpSrv  *http.Server
}

// New returns a Server with the given options (zero value = defaults).
func New(opts Options) *Server {
	opts.fill()
	s := &Server{
		opts: opts,
		pool: sched.NewPool(opts.Slots),
		runs: map[string]*run{},
		reg:  obs.Default(),
		mQuerySeconds: map[string]*obs.Histogram{
			"replay": obs.H(obs.MServeQuerySeconds, obs.L("kind", "replay")),
			"sample": obs.H(obs.MServeQuerySeconds, obs.L("kind", "sample")),
		},
		mDrainingGauge: obs.G(obs.MServeDraining),
	}
	s.stores = newStoreCache(opts.StoreCacheSize, opts.PayloadCacheBytes, opts.OnEvict)
	if opts.TraceDir != "" {
		ts, err := tracestore.Open(tracestore.Options{
			Dir:           opts.TraceDir,
			MaxTotalBytes: opts.TraceStoreMaxBytes,
			MaxAge:        opts.TraceStoreMaxAge,
			SampleN:       opts.TraceSampleN,
		})
		if err != nil {
			// Degrade to ring-only tracing rather than fail construction;
			// TraceStoreErr and /v1/stats surface the misconfiguration.
			s.traceErr = err
		} else {
			s.traces = ts
		}
	}
	if opts.Remote != "" {
		fs, err := remote.NewFSStore(opts.Remote)
		if err != nil {
			s.remoteErr = err
		} else {
			s.remote = remote.Retry(fs, remote.Policy{})
			if opts.CacheMaxBytes > 0 {
				cache, err := cachetier.New(opts.CacheDir, opts.CacheMaxBytes)
				if err != nil {
					s.remote, s.remoteErr = nil, err
				} else {
					s.chunkCache = cache
				}
			}
		}
	}
	return s
}

// TraceStoreErr reports a failed durable-trace-store open (nil when the
// store opened, or none was configured). The daemon still serves — with
// ring-only tracing — but operators should treat this as a config error.
func (s *Server) TraceStoreErr() error { return s.traceErr }

// SlowQueries returns up to limit entries from the durable slow-query log,
// newest first (nil without a trace store).
func (s *Server) SlowQueries(limit int) []tracestore.Entry {
	if s.traces == nil {
		return nil
	}
	return s.traces.Slow(limit)
}

// Pool exposes the shared worker pool (stats, embedding).
func (s *Server) Pool() *sched.Pool { return s.pool }

// Register adds a recording to the registry. The run directory must exist
// and carry a store layout this build understands — a directory recorded by
// a future layout (or with a corrupt FORMAT marker) is rejected here as a
// bad request, not discovered as a 500 by the first query. Pooled runs are
// grouped by their chunk pool's root, which is validated and pinned here.
// The store itself is still opened lazily on the first query.
func (s *Server) Register(cfg RunConfig) error {
	if cfg.Remote {
		if err := s.fetchRemoteRun(cfg); err != nil {
			return err
		}
		// The fetched control plane has no SHARDS file (pack reads route
		// through the object backend) and must not be pooled (pooled stores
		// refuse backend overrides), so both pins are empty by construction.
		return s.registerPinned(cfg, nil, "")
	}
	shardRoots, err := store.ShardRoots(cfg.Dir)
	if err != nil {
		return fmt.Errorf("%w: register %q: %v", ErrBadRequest, cfg.ID, err)
	}
	poolRoot, _, err := store.PoolRef(cfg.Dir)
	if err != nil {
		return fmt.Errorf("%w: register %q: %v", ErrBadRequest, cfg.ID, err)
	}
	return s.registerPinned(cfg, shardRoots, poolRoot)
}

// fetchRemoteRun materializes a remote run's control plane into cfg.Dir so
// the normal registration validation (layout detection, IsRecording) runs
// against real files; pack bytes stay remote.
func (s *Server) fetchRemoteRun(cfg RunConfig) error {
	if s.remote == nil {
		if s.remoteErr != nil {
			return fmt.Errorf("serve: register %q: remote pool: %w", cfg.ID, s.remoteErr)
		}
		return fmt.Errorf("%w: register %q: no remote pool configured", ErrBadRequest, cfg.ID)
	}
	if cfg.ID == "" || cfg.Dir == "" {
		return fmt.Errorf("%w: register remote run: ID and Dir are required", ErrBadRequest)
	}
	if _, err := remote.FetchControlPlane(s.remote, cfg.ID, cfg.Dir); err != nil {
		if errors.Is(err, remote.ErrNotFound) {
			return fmt.Errorf("%w: register %q: %v", ErrBadRequest, cfg.ID, err)
		}
		return fmt.Errorf("serve: register %q: %w", cfg.ID, err)
	}
	if poolRoot, _, err := store.PoolRef(cfg.Dir); err != nil {
		return fmt.Errorf("%w: register %q: %v", ErrBadRequest, cfg.ID, err)
	} else if poolRoot != "" {
		return fmt.Errorf("%w: register %q: pooled runs cannot be served remotely", ErrBadRequest, cfg.ID)
	}
	return nil
}

// registerPinned is Register with the shard and pool roots already read
// (exactly once): HTTP registration validates confinement and pins from the
// same read, so a SHARDS or manifest rewrite between check and pin cannot
// slip through.
func (s *Server) registerPinned(cfg RunConfig, shardRoots []string, poolRoot string) error {
	if cfg.ID == "" {
		return fmt.Errorf("%w: register: empty run ID", ErrBadRequest)
	}
	if len(cfg.Factories) == 0 {
		return fmt.Errorf("%w: register %q: no program factories", ErrBadRequest, cfg.ID)
	}
	if st, err := os.Stat(cfg.Dir); errors.Is(err, os.ErrNotExist) {
		// A typo'd path is the client's mistake, like any other bad dir.
		return fmt.Errorf("%w: register %q: %v", ErrBadRequest, cfg.ID, err)
	} else if err != nil {
		return fmt.Errorf("serve: register %q: %w", cfg.ID, err)
	} else if !st.IsDir() {
		return fmt.Errorf("%w: register %q: %s is not a directory", ErrBadRequest, cfg.ID, cfg.Dir)
	}
	layout, err := store.DetectLayout(cfg.Dir)
	if err != nil {
		if errors.Is(err, store.ErrUnknownFormat) {
			// The typed error carries the detected marker; surface it so the
			// client learns which layout the directory claims.
			return fmt.Errorf("%w: register %q: %v", ErrBadRequest, cfg.ID, err)
		}
		return fmt.Errorf("serve: register %q: %w", cfg.ID, err)
	}
	if !core.IsRecording(cfg.Dir) {
		// An empty or unrelated directory would detect as a fresh v2 store
		// and then 500 on the first query; reject it now instead. (A missing
		// checkpoint manifest alone is fine — adaptive record runs can
		// materialize zero checkpoints and still replay.)
		return fmt.Errorf("%w: register %q: %s is not a recorded run directory", ErrBadRequest, cfg.ID, cfg.Dir)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return fmt.Errorf("%w: register %q", ErrDraining, cfg.ID)
	}
	if _, dup := s.runs[cfg.ID]; dup {
		return fmt.Errorf("%w: register: duplicate run ID %q", ErrBadRequest, cfg.ID)
	}
	id := obs.L("run", cfg.ID)
	rn := &run{
		cfg: cfg, layout: layout, shardRoots: shardRoots, poolRoot: poolRoot,
		sem:            make(chan struct{}, s.opts.MaxInflightPerRun),
		ringCap:        s.opts.TraceRing,
		inflightAt:     map[int]time.Time{},
		mReplays:       obs.C(obs.MServeQueries, id, obs.L("kind", "replay")),
		mSamples:       obs.C(obs.MServeQueries, id, obs.L("kind", "sample")),
		mRejected:      obs.C(obs.MServeRejected, id),
		mQueueTimeouts: obs.C(obs.MServeQueueTimeouts, id),
		mErrors:        obs.C(obs.MServeErrors, id),
		mTracesDropped: obs.C(obs.MServeTracesDropped, id),
		mSlowQueries:   obs.C(obs.MServeSlowQueries, id),
		mQueueDepth:    obs.G(obs.MServeQueueDepth, id),
		mInflight:      obs.G(obs.MServeInflight, id),
	}
	if s.traces != nil {
		// Seed the trace-ID sequence past anything already persisted for
		// this run, so IDs stay unique across daemon restarts and a new
		// query can never shadow a durable older trace.
		rn.traceSeq = s.traces.LastSeq(cfg.ID)
	}
	s.runs[cfg.ID] = rn
	s.order = append(s.order, cfg.ID)
	return nil
}

// beginQuery gates a query on the drain state and tracks it for Shutdown's
// wait; the returned func must be called when the query finishes.
func (s *Server) beginQuery() (func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.inflight.Add(1)
	s.inflightN.Add(1)
	return func() {
		s.inflightN.Add(-1)
		s.inflight.Done()
	}, nil
}

// InflightQueries returns how many queries are currently between admission
// gate and completion, daemon-wide — what a graceful drain waits for.
func (s *Server) InflightQueries() int64 { return s.inflightN.Load() }

// Shutdown drains the daemon: registrations and queries begun after this
// call fail with ErrDraining (HTTP 503), the embedded listener (if
// ListenAndServe started one) stops accepting, in-flight queries run to
// completion up to ctx's deadline, and the open stores are released. It
// returns ctx.Err() if the deadline expired with queries still running.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	hs := s.httpSrv
	s.mu.Unlock()
	s.mDrainingGauge.Set(1)
	if hs != nil {
		// Stop the listener first so no request can race past the drain
		// check while we wait. http.Server.Shutdown itself waits for active
		// handlers, bounded by the same ctx.
		_ = hs.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Release the hot stores only after the drain (or deadline): in-flight
	// queries keep their entries alive regardless, but new opens are over.
	s.stores.clear()
	// Seal the durable trace store after the drain so completed queries'
	// traces land; a query still running past the deadline loses only its
	// trace persistence (Append on a closed store errors, best-effort).
	if s.traces != nil {
		_ = s.traces.Close()
	}
	return err
}

// RegisterByName registers a recorded directory against a named program
// from the server's Library — the HTTP registration path (POST /v1/runs).
// The directory must live under Options.RegisterRoot; unknown program
// names, escaping paths, and bad directories are client errors.
func (s *Server) RegisterByName(id, dir, program string) error {
	if len(s.opts.Library) == 0 {
		return fmt.Errorf("%w: this server has no program library; register runs through the embedding API", ErrBadRequest)
	}
	if s.opts.RegisterRoot == "" {
		return fmt.Errorf("%w: HTTP registration disabled (no register root configured)", ErrBadRequest)
	}
	root, err := filepath.Abs(s.opts.RegisterRoot)
	if err != nil {
		return fmt.Errorf("serve: register root: %w", err)
	}
	// Relative request paths resolve against the register root — the only
	// base the client knows about — never the daemon's working directory.
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(root, abs)
	}
	// The containment check must run on resolved paths: a lexical Rel alone
	// would let a symlink under the root point the daemon anywhere.
	// Nonexistent or unresolvable paths count as outside — for the run dir
	// itself that is the client's mistake (the directory must exist).
	root, err = filepath.EvalSymlinks(root)
	if err != nil {
		return fmt.Errorf("serve: register root: %w", err)
	}
	outside := func(p string) bool {
		resolved, err := filepath.EvalSymlinks(p)
		if err != nil {
			return true
		}
		rel, err := filepath.Rel(root, resolved)
		return err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator))
	}
	if outside(abs) {
		return fmt.Errorf("%w: register %q: directory missing or outside the register root", ErrBadRequest, id)
	}
	// A sharded run's packs live wherever its SHARDS file says, and a
	// pooled run's wherever its manifest's pool reference says — confine
	// those roots too, or a planted SHARDS file or manifest would point the
	// daemon's reads outside the register root. The same single read is
	// what gets pinned: checking one read and pinning another would leave a
	// window for a rewrite in between.
	shardRoots, err := store.ShardRoots(abs)
	if err != nil {
		return fmt.Errorf("%w: register %q: %v", ErrBadRequest, id, err)
	}
	for _, r := range shardRoots {
		if outside(r) {
			return fmt.Errorf("%w: register %q: shard root %q outside the register root", ErrBadRequest, id, r)
		}
	}
	poolRoot, pooled, err := store.PoolRef(abs)
	if err != nil {
		return fmt.Errorf("%w: register %q: %v", ErrBadRequest, id, err)
	}
	if pooled && outside(poolRoot) {
		return fmt.Errorf("%w: register %q: pool root %q outside the register root", ErrBadRequest, id, poolRoot)
	}
	dir = abs
	factories, ok := s.opts.Library[program]
	if !ok {
		names := make([]string, 0, len(s.opts.Library))
		for name := range s.opts.Library {
			names = append(names, name)
		}
		sort.Strings(names)
		return fmt.Errorf("%w: unknown program %q (library has %s)", ErrBadRequest, program, strings.Join(names, ", "))
	}
	return s.registerPinned(RunConfig{ID: id, Dir: dir, Factories: factories}, shardRoots, poolRoot)
}

func (s *Server) run(id string) (*run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRun, id)
	}
	return r, nil
}

// admit applies the run's admission control: a fast path into an in-flight
// slot, else a bounded wait queue with a deadline. On success it returns a
// release closure and the time spent queued.
//
// The in-flight count is mirrored into r.inflight under r.mu (rather than
// read from len(r.sem)) so Stats can snapshot a run's counters and gauges
// under one lock acquisition without tearing.
func (s *Server) admit(ctx context.Context, r *run) (release func(), queueNs int64, err error) {
	enter := func() func() {
		r.mu.Lock()
		r.inflight++
		r.inflightTok++
		tok := r.inflightTok
		r.inflightAt[tok] = time.Now()
		r.mu.Unlock()
		r.mInflight.Add(1)
		return func() {
			r.mu.Lock()
			r.inflight--
			delete(r.inflightAt, tok)
			r.mu.Unlock()
			r.mInflight.Add(-1)
			<-r.sem
		}
	}
	// Fast path: an in-flight slot is free right now.
	select {
	case r.sem <- struct{}{}:
		return enter(), 0, nil
	default:
	}
	r.mu.Lock()
	if r.queued >= s.opts.MaxQueuePerRun {
		r.stats.Rejected++
		r.mu.Unlock()
		r.mRejected.Inc()
		return nil, 0, fmt.Errorf("%w: run %q (%d queued)", ErrBusy, r.cfg.ID, s.opts.MaxQueuePerRun)
	}
	r.queued++
	r.mu.Unlock()
	r.mQueueDepth.Add(1)
	leaveQueue := func() {
		r.mu.Lock()
		r.queued--
		r.mu.Unlock()
		r.mQueueDepth.Add(-1)
	}

	t0 := time.Now()
	timer := time.NewTimer(s.opts.QueueTimeout)
	defer timer.Stop()
	select {
	case r.sem <- struct{}{}:
		leaveQueue()
		queueNs = time.Since(t0).Nanoseconds()
		r.mu.Lock()
		r.stats.QueueNs += queueNs
		r.mu.Unlock()
		return enter(), queueNs, nil
	case <-timer.C:
		leaveQueue()
		r.mu.Lock()
		r.stats.QueueTimeouts++
		r.mu.Unlock()
		r.mQueueTimeouts.Inc()
		return nil, 0, fmt.Errorf("%w: run %q after %v", ErrQueueTimeout, r.cfg.ID, s.opts.QueueTimeout)
	case <-ctx.Done():
		leaveQueue()
		return nil, 0, ctx.Err()
	}
}

// open resolves the run's shared store entry through the LRU, folding the
// hit/miss into the run's stats. Local runs open pinned to the roots
// registration validated; remote runs open through the object backend and
// the shared chunk-cache tier.
func (s *Server) open(r *run) (*cacheEntry, bool, error) {
	load := func() (*replay.Recording, error) {
		if r.cfg.Remote {
			backend := remote.NewObjectBackend(s.remote, remote.PacksPrefix(r.cfg.ID), s.chunkCache)
			return core.LoadRecordingWith(r.cfg.Dir, store.Options{ReadOnly: true, Backend: backend})
		}
		return core.LoadRecordingSharedPinned(r.cfg.Dir, r.shardRoots, r.poolRoot)
	}
	ent, hit, err := s.stores.get(r.cfg.ID, r.poolRoot, load)
	r.mu.Lock()
	if err != nil {
		r.stats.Errors++
	} else if hit {
		r.stats.StoreHits++
	} else {
		r.stats.StoreMisses++
	}
	r.mu.Unlock()
	if err != nil {
		r.mErrors.Inc()
	}
	return ent, hit, err
}

// refreshStale recovers a query that failed with store.ErrStalePack: the
// cached read-only store resolved its chunk locations before a GC retired —
// and, past the grace period (store.GCOptions.PackRetention), deleted —
// their pack generation. The recording on disk is intact; only the cached
// open is outdated. Drop the entry, reopen, and hand back the fresh entry
// so the caller can retry the query exactly once.
func (s *Server) refreshStale(r *run) (*cacheEntry, error) {
	s.stores.drop(r.cfg.ID)
	ent, _, err := s.open(r)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.stats.StaleRefreshes++
	r.mu.Unlock()
	return ent, nil
}

// ReplayRequest is a full replay query.
type ReplayRequest struct {
	// Probe selects a registered probe variant ("base" when empty).
	Probe string `json:"probe"`
	// Workers is the hindsight parallelism G (server default when <= 0).
	// Actual concurrency is additionally bounded by the shared pool.
	Workers int `json:"workers"`
	// Scheduler is accepted for compatibility and ignored: "", "static",
	// "balanced" and "stealing" all run the one executor; other names are
	// rejected.
	Scheduler string `json:"scheduler"`
	// Init is "strong" or "weak" ("weak" default: daemon replays jump to
	// checkpoints).
	Init string `json:"init"`
}

// ReplayResponse reports a replay query.
type ReplayResponse struct {
	RunID     string   `json:"run_id"`
	Probe     string   `json:"probe"`
	Logs      []string `json:"logs"`
	Anomalies int      `json:"anomalies"`
	// Workers counts the workers that ran: at most the requested
	// parallelism, fewer when the shared pool granted fewer slots before the
	// work ran out.
	Workers  int     `json:"workers"`
	Steals   int     `json:"steals"`
	CFactor  float64 `json:"c_factor"`
	WallNs   int64   `json:"wall_ns"`
	QueueNs  int64   `json:"queue_ns"`
	StoreHit bool    `json:"store_hit"`
	// Cost attributes the replay's restored bytes to store fetch tiers and
	// totals its restore work.
	Cost QueryCost `json:"cost"`
	// TraceID names this replay's span trace, retrievable via
	// GET /v1/runs/{id}/trace/{trace_id}: from the run's trace ring until
	// Options.TraceRing newer queries push it out, and from the durable
	// trace store (when configured) after that — across daemon restarts.
	TraceID string `json:"trace_id,omitempty"`
}

// SampleRequest is an iteration-sampling query (point reads over the past).
type SampleRequest struct {
	Probe      string `json:"probe"`
	Iterations []int  `json:"iterations"`
}

// SampleResponse reports a sample query.
type SampleResponse struct {
	RunID      string   `json:"run_id"`
	Probe      string   `json:"probe"`
	Iterations []int    `json:"iterations"`
	Logs       []string `json:"logs"`
	WallNs     int64    `json:"wall_ns"`
	QueueNs    int64    `json:"queue_ns"`
	StoreHit   bool     `json:"store_hit"`
	// Cost attributes the sample's restored bytes to store fetch tiers.
	Cost QueryCost `json:"cost"`
	// TraceID names this sample's span trace, retrievable like a replay's
	// via GET /v1/runs/{id}/trace/{trace_id}.
	TraceID string `json:"trace_id,omitempty"`
}

// Sample serves one sampling query; its single slot is priced cheaply, so
// the pool lets it overtake queued full-replay workers.
func (s *Server) Sample(ctx context.Context, runID string, req SampleRequest) (*SampleResponse, error) {
	return s.sample(ctx, runID, req, nil)
}

// SampleChunk is one streamed unit of a sampling query: a replayed
// iteration and its log lines.
type SampleChunk struct {
	Iteration int      `json:"iteration"`
	Logs      []string `json:"logs"`
}

// SampleStream is Sample with incremental delivery: emit receives each
// sampled iteration's logs as soon as that iteration has replayed, so a
// very long sample surfaces results immediately and the caller never
// buffers more than one iteration. The HTTP layer streams the chunks with
// chunked transfer encoding. An emit error aborts the query.
func (s *Server) SampleStream(ctx context.Context, runID string, req SampleRequest, emit func(SampleChunk) error) (*SampleResponse, error) {
	if emit == nil {
		return nil, fmt.Errorf("%w: stream sample without an emit callback", ErrBadRequest)
	}
	return s.sample(ctx, runID, req, emit)
}

// served is the part of a reply the query skeleton owns, whatever the kind.
type served struct {
	queueNs  int64
	storeHit bool
	cost     QueryCost
	traceID  string
}

// query serves one query of either kind ("replay" or "sample"): drain gate,
// run and probe lookup, per-run admission, store open, the slot-wait
// deadline, the trace, one retry on store.ErrStalePack, error
// classification, stats and trace retention. run has replay.Replay's shape:
// it executes the kind's replay with the daemon plumbing in opts (shared
// pool, slot-wait context, payload cache, trace, prefetch depth) and reports
// what the query cost.
func (s *Server) query(ctx context.Context, kind, runID, probe string,
	run func(rec *replay.Recording, factory func() *script.Program, opts replay.Options) (QueryCost, error)) (served, error) {

	var sv served
	done, err := s.beginQuery()
	if err != nil {
		return sv, err
	}
	defer done()
	r, err := s.run(runID)
	if err != nil {
		return sv, err
	}
	factory, err := r.factory(probe)
	if err != nil {
		return sv, err
	}
	release, queueNs, err := s.admit(ctx, r)
	if err != nil {
		return sv, err
	}
	defer release()
	sv.queueNs = queueNs
	ent, hit, err := s.open(r)
	if err != nil {
		return sv, err
	}
	sv.storeHit = hit
	// The queue deadline also bounds shared-pool slot waits: an admitted
	// query must not hold one of the run's in-flight slots forever while
	// its workers starve behind other queries' segments.
	slotCtx, cancel := context.WithTimeout(ctx, s.opts.QueueTimeout)
	defer cancel()
	opts := replay.Options{Slots: s.pool, Ctx: slotCtx, Cache: ent.cache, Trace: obs.NewTrace(), Prefetch: s.opts.Prefetch}
	t0 := time.Now()
	sv.cost, err = run(ent.rec, factory, opts)
	if err != nil && errors.Is(err, store.ErrStalePack) {
		if fresh, rerr := s.refreshStale(r); rerr == nil {
			ent, sv.storeHit = fresh, false
			opts.Cache = ent.cache
			sv.cost, err = run(ent.rec, factory, opts)
		}
	}
	switch {
	case err == nil:
	case ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		// The caller went away, or ran out its own deadline, while the query
		// waited on worker slots: not a serving failure and not our queue
		// deadline — counted nowhere, like the same cancel a step earlier in
		// admit.
		return sv, err
	case errors.Is(err, context.DeadlineExceeded):
		r.mu.Lock()
		r.stats.QueueTimeouts++
		r.mu.Unlock()
		r.mQueueTimeouts.Inc()
		return sv, fmt.Errorf("%w: %s %q waited on worker slots beyond %v", ErrQueueTimeout, kind, runID, s.opts.QueueTimeout)
	case errors.Is(err, replay.ErrSampleRange):
		// Out-of-range iterations are the client's mistake, not a serving
		// failure: report 400 and keep them out of the error counters.
		return sv, fmt.Errorf("%w: %s %q: %v", ErrBadRequest, kind, runID, err)
	default:
		r.mu.Lock()
		r.stats.Errors++
		r.mu.Unlock()
		r.mErrors.Inc()
		return sv, fmt.Errorf("serve: %s %q: %w", kind, runID, err)
	}
	durNs := time.Since(t0).Nanoseconds()
	queries, counted := &r.stats.Replays, r.mReplays
	if kind == "sample" {
		queries, counted = &r.stats.Samples, r.mSamples
	}
	r.mu.Lock()
	*queries++
	r.stats.Cost = r.stats.Cost.add(sv.cost)
	r.mu.Unlock()
	counted.Inc()
	slow := s.opts.SlowQueryThreshold > 0 && durNs >= s.opts.SlowQueryThreshold.Nanoseconds()
	sv.traceID = s.keepTrace(r, kind, opts.Trace, t0, durNs, slow)
	// The exemplar ties the latency bucket back to a retrievable trace.
	s.mQuerySeconds[kind].ObserveNsExemplar(durNs, sv.traceID)
	return sv, nil
}

// Replay serves one replay query through admission control, the shared
// store, and the shared worker pool.
func (s *Server) Replay(ctx context.Context, runID string, req ReplayRequest) (*ReplayResponse, error) {
	init, err := parseReplayRequest(req)
	if err != nil {
		return nil, err
	}
	var res *replay.Result
	sv, err := s.query(ctx, "replay", runID, req.Probe, func(rec *replay.Recording, factory func() *script.Program, opts replay.Options) (cost QueryCost, err error) {
		opts.Init = init
		if opts.Workers = req.Workers; opts.Workers <= 0 {
			opts.Workers = s.opts.DefaultWorkers
		}
		if res, err = replay.Replay(rec, factory, opts); err != nil {
			return cost, err
		}
		for _, wr := range res.Workers {
			cost.RestoredBytes += wr.RestoredBytes
			cost.RestoreNs += wr.RestoreNs
			cost.Fetch = cost.Fetch.Add(wr.Fetch)
		}
		return cost, nil
	})
	if err != nil {
		return nil, err
	}
	return &ReplayResponse{
		RunID:     runID,
		Probe:     req.Probe,
		Logs:      res.Logs,
		Anomalies: len(res.Anomalies),
		Workers:   len(res.Workers),
		Steals:    res.Steals,
		CFactor:   res.CFactor,
		WallNs:    res.WallNs,
		QueueNs:   sv.queueNs,
		StoreHit:  sv.storeHit,
		Cost:      sv.cost,
		TraceID:   sv.traceID,
	}, nil
}

func (s *Server) sample(ctx context.Context, runID string, req SampleRequest, emit func(SampleChunk) error) (*SampleResponse, error) {
	if len(req.Iterations) == 0 {
		return nil, fmt.Errorf("%w: sample %q: no iterations requested", ErrBadRequest, runID)
	}
	emitted := 0
	var rawEmit func(int, []string) error
	if emit != nil {
		rawEmit = func(it int, logs []string) error {
			emitted++
			return emit(SampleChunk{Iteration: it, Logs: logs})
		}
	}
	var res *replay.SampleResult
	sv, err := s.query(ctx, "sample", runID, req.Probe, func(rec *replay.Recording, factory func() *script.Program, opts replay.Options) (cost QueryCost, err error) {
		res, err = replay.ReplaySampleStream(rec, factory, req.Iterations, replay.SampleOptions{
			Cache: opts.Cache, Slots: opts.Slots, Ctx: opts.Ctx, Trace: opts.Trace}, rawEmit)
		if err != nil {
			if emitted > 0 && errors.Is(err, store.ErrStalePack) {
				// Chunks already delivered must not be re-emitted by a second
				// attempt: %v keeps the cause out of the stale-pack retry.
				err = fmt.Errorf("after %d streamed iterations: %v", emitted, err)
			}
			return cost, err
		}
		return QueryCost{RestoredBytes: res.RestoredBytes, RestoreNs: res.RestoreNs, Fetch: res.Fetch}, nil
	})
	if err != nil {
		return nil, err
	}
	return &SampleResponse{
		RunID:      runID,
		Probe:      req.Probe,
		Iterations: res.Iterations,
		Logs:       res.Logs,
		WallNs:     res.WallNs,
		QueueNs:    sv.queueNs,
		StoreHit:   sv.storeHit,
		Cost:       sv.cost,
		TraceID:    sv.traceID,
	}, nil
}

// WarmResponse reports a warm-up request: how many checkpoint keys were
// hinted to the prefetcher (0 for local runs, whose reads gain nothing from
// warming).
type WarmResponse struct {
	RunID  string `json:"run_id"`
	Hinted int    `json:"hinted"`
}

// WarmRun speculatively pulls a remote-backed run's entire committed
// checkpoint set into the daemon's chunk-cache tier, so a later cold query
// restores at cache speed instead of paying first-touch remote GETs. The
// warm runs synchronously to completion as a background task (its spans are
// visible at /v1/debug/tasks) but outside per-run admission control:
// warming is maintenance and must not occupy the run's in-flight query
// slots. Local runs warm nothing and report zero hints.
func (s *Server) WarmRun(runID string) (*WarmResponse, error) {
	done, err := s.beginQuery() // drain gating: a shutdown must not race a warm
	if err != nil {
		return nil, err
	}
	defer done()
	r, err := s.run(runID)
	if err != nil {
		return nil, err
	}
	ent, _, err := s.open(r)
	if err != nil {
		return nil, err
	}
	task := obs.BeginTask("warm")
	defer task.End()
	pf := ent.rec.Store.NewPrefetcher(0, task.Trace())
	if pf == nil {
		return &WarmResponse{RunID: runID}, nil
	}
	defer pf.Close()
	metas := ent.rec.Store.Metas()
	keys := make([]store.Key, 0, len(metas))
	for _, m := range metas {
		keys = append(keys, m.Key)
	}
	pf.Hint(keys...)
	pf.Drain()
	return &WarmResponse{RunID: runID, Hinted: len(keys)}, nil
}

// RunInfo describes one registered run for listings.
type RunInfo struct {
	ID     string   `json:"id"`
	Dir    string   `json:"dir"`
	Probes []string `json:"probes"`
	Open   bool     `json:"open"` // store currently in the LRU
	// Format is the store layout detected at registration ("v1", "v2",
	// "v2-sharded/16", "v2-pooled/16").
	Format string `json:"format"`
	// Shards is the chunk-pack fanout (0 for v1, 1 for unsharded v2).
	Shards int `json:"shards"`
	// Pool is the resolved chunk-pool root for pooled runs ("" otherwise);
	// runs sharing it form one project group.
	Pool string `json:"pool,omitempty"`
}

// Runs lists registered runs in registration order.
func (s *Server) Runs() []RunInfo {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]RunInfo, 0, len(ids))
	for _, id := range ids {
		r, err := s.run(id)
		if err != nil {
			continue
		}
		out = append(out, RunInfo{
			ID:     id,
			Dir:    r.cfg.Dir,
			Probes: r.probes(),
			Open:   s.stores.contains(id),
			Format: r.layout.String(),
			Shards: r.layout.ShardFanout,
			Pool:   r.poolRoot,
		})
	}
	return out
}

// ChunkPoolStats describes one project's shared chunk pool in /v1/stats:
// which runs are grouped under it and, when a query has opened it in this
// process, its pool-wide storage accounting.
type ChunkPoolStats struct {
	Root string   `json:"root"`
	Runs []string `json:"runs"` // registered run IDs attached to the pool
	// Open reports whether the pool is resident (some run opened it);
	// storage figures below are only populated then.
	Open           bool  `json:"open"`
	Leases         int   `json:"leases,omitempty"`
	Chunks         int64 `json:"chunks,omitempty"`
	StoredRawBytes int64 `json:"stored_raw_bytes,omitempty"`
	StoredEncBytes int64 `json:"stored_enc_bytes,omitempty"`
	// CompressionRatio is raw chunk bytes per encoded pack byte — the
	// pool's frame-style encoding win, deliberately not named dedup_ratio:
	// cross-run dedup shows up as StoredRawBytes staying near one family
	// member's footprint, and the per-run dedup figures live elsewhere.
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
}

// Stats is the daemon-wide accounting snapshot served at /v1/stats.
type Stats struct {
	Pool       sched.PoolStats     `json:"pool"`
	StoreCache CacheStats          `json:"store_cache"`
	Runs       map[string]RunStats `json:"runs"`
	// PayloadCaches snapshots every live decoded-payload cache: shared pool
	// caches keyed by pool root, private per-run caches keyed by run ID.
	PayloadCaches map[string]backmat.PayloadCacheStats `json:"payload_caches,omitempty"`
	// ChunkPools groups registered runs by shared chunk pool, keyed by the
	// resolved pool root; absent when no registered run is pooled.
	ChunkPools map[string]ChunkPoolStats `json:"chunk_pools,omitempty"`
	// Draining reports a shutdown in progress (new queries get 503).
	Draining bool `json:"draining,omitempty"`
	// TraceStore reports the durable trace store when one was configured.
	TraceStore *TraceStoreInfo `json:"trace_store,omitempty"`
	// CacheTier reports the remote chunk-cache tier when a remote pool is
	// configured with caching enabled.
	CacheTier *cachetier.Stats `json:"cache_tier,omitempty"`
	// Prefetch reports process-wide speculative-prefetch accounting (issued
	// vs used vs wasted vs cancelled bytes) when a remote pool is configured.
	Prefetch *store.PrefetchSnapshot `json:"prefetch,omitempty"`
}

// TraceStoreInfo describes the durable trace store in /v1/stats.
type TraceStoreInfo struct {
	Dir string `json:"dir"`
	// Bytes is the store's current on-disk segment footprint.
	Bytes int64 `json:"bytes"`
	// Error reports a failed open: the daemon is serving with ring-only
	// tracing and the operator should fix the configured directory.
	Error string `json:"error,omitempty"`
}

// Stats returns a snapshot of pool, store-cache, per-run, and per-chunk-pool
// accounting.
func (s *Server) Stats() Stats {
	out := Stats{
		Pool:          s.pool.Stats(),
		StoreCache:    s.stores.stats(),
		PayloadCaches: s.stores.payloadCacheStats(),
		Runs:          map[string]RunStats{},
	}
	if s.chunkCache != nil {
		ct := s.chunkCache.Stats()
		out.CacheTier = &ct
	}
	if s.remote != nil {
		ps := store.PrefetchTotals()
		out.Prefetch = &ps
	}
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	out.Draining = s.draining
	s.mu.Unlock()
	for _, r := range runs {
		// One lock acquisition snapshots the whole RunStats plus the queued
		// and in-flight gauges together, so counters can't tear mid-request
		// (the old code read len(r.sem) outside any lock, which could
		// disagree with the counters copied moments earlier).
		r.mu.Lock()
		st := r.stats
		st.Queued = r.queued
		st.Inflight = r.inflight
		var oldest time.Time
		for _, begun := range r.inflightAt {
			if oldest.IsZero() || begun.Before(oldest) {
				oldest = begun
			}
		}
		r.mu.Unlock()
		if !oldest.IsZero() {
			st.OldestQueryAgeSeconds = time.Since(oldest).Seconds()
		}
		out.Runs[r.cfg.ID] = st
	}
	// Project groups: every pooled run under its pool root, with live pool
	// accounting when the pool is open in-process.
	for _, r := range runs {
		if r.poolRoot == "" {
			continue
		}
		if out.ChunkPools == nil {
			out.ChunkPools = map[string]ChunkPoolStats{}
		}
		ps := out.ChunkPools[r.poolRoot]
		ps.Root = r.poolRoot
		ps.Runs = append(ps.Runs, r.cfg.ID)
		out.ChunkPools[r.poolRoot] = ps
	}
	for root, ps := range out.ChunkPools {
		sort.Strings(ps.Runs)
		if live, ok := store.PoolStatsAt(root); ok {
			ps.Open = true
			ps.Leases = live.Leases
			ps.Chunks = live.Chunks
			ps.StoredRawBytes = live.StoredRawBytes
			ps.StoredEncBytes = live.StoredEncBytes
			if live.StoredEncBytes > 0 {
				ps.CompressionRatio = float64(live.StoredRawBytes) / float64(live.StoredEncBytes)
			}
		}
		out.ChunkPools[root] = ps
	}
	if s.traces != nil {
		out.TraceStore = &TraceStoreInfo{Dir: s.opts.TraceDir, Bytes: s.traces.Bytes()}
	} else if s.traceErr != nil {
		out.TraceStore = &TraceStoreInfo{Dir: s.opts.TraceDir, Error: s.traceErr.Error()}
	}
	return out
}

// Trace returns a retained query trace by run and trace ID (the trace_id a
// replay or sample response reported). The in-memory ring answers first;
// when a durable trace store is configured, traces that aged out of the ring
// — or predate a daemon restart — are rehydrated from it.
func (s *Server) Trace(runID, traceID string) (*obs.Trace, error) {
	r, err := s.run(runID)
	if err != nil {
		return nil, err
	}
	if tr, ok := r.trace(traceID); ok {
		return tr, nil
	}
	if s.traces != nil {
		if e, ok := s.traces.Get(runID, traceID); ok {
			return obs.NewTraceFromSpans(e.Spans), nil
		}
	}
	return nil, fmt.Errorf("%w: %q for run %q", ErrUnknownTrace, traceID, runID)
}

// MetricsRegistry returns the registry the server resolved its handles from
// at construction (nil when metrics were disabled then); the HTTP layer
// renders it at GET /metrics.
func (s *Server) MetricsRegistry() *obs.Registry { return s.reg }

// parseReplayRequest validates the request's scheduler and init names.
// Replay has one scheduler, so the names clients used to choose between are
// accepted and ignored; anything else is still a malformed request.
func parseReplayRequest(req ReplayRequest) (replay.InitMode, error) {
	switch req.Scheduler {
	case "", "static", "balanced", "stealing":
	default:
		return 0, fmt.Errorf("%w: unknown scheduler %q (want static, balanced or stealing)", ErrBadRequest, req.Scheduler)
	}
	switch req.Init {
	case "", "weak":
		return replay.Weak, nil
	case "strong":
		return replay.Strong, nil
	default:
		return 0, fmt.Errorf("%w: unknown init mode %q (want strong or weak)", ErrBadRequest, req.Init)
	}
}
