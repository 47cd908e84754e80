// Command flord is the multi-run replay serving daemon: it registers
// recordings, keeps their checkpoint stores hot in an LRU (manifests
// replayed once, decoded payloads cached across queries), and serves
// concurrent replay and sample queries over HTTP/JSON through one shared,
// admission-controlled worker pool.
//
// Replay probes are Go closures, so a standalone binary can only serve
// programs it knows how to build; flord serves the Table 3 workloads
// (internal/workloads) with their outer/inner probe variants. Programs of
// your own are served by embedding the daemon instead: see flor.Serve.
//
// Usage:
//
//	flord -demo                         # record two smoke runs, serve them
//	flord -record ImgN,Jasp -dir runs   # record (or reuse) named workloads
//	flord -record ImgN,Jasp -pool       # runs share one chunk pool (<dir>/POOL)
//	flord -addr :7707 -drain-timeout 30s ...
//	flord -demo -log-level debug        # structured key=value logs to stderr
//	flord -demo -debug-addr :6060       # pprof profiling listener
//	flord -demo -trace-dir traces -slow-query 250ms -trace-sample 10
//	flord -demo -remote /mnt/pool -cache-dir cache -cache-max-bytes 268435456
//
// With -remote the daemon is stateless with respect to pack bytes: recorded
// runs are uploaded to the shared object pool (under a writer lease, so two
// daemons cannot race an upload or compaction of the same prefix) and served
// back through ranged GETs and a local read-through chunk-cache tier
// (-cache-dir, -cache-max-bytes); a restore reads only the ranges its
// statements need, when it needs them. -remote is incompatible with -pool:
// pool-attached stores refuse backend overrides.
//
// On SIGINT/SIGTERM the daemon drains gracefully: the listener stops
// accepting, queries begun after the signal get 503, in-flight replays
// finish up to -drain-timeout, then the stores close and the process
// exits.
//
// Endpoints:
//
//	GET  /v1/runs
//	POST /v1/runs               {"id":"x","dir":"...","program":"ImgN"} — register a
//	                            recorded dir against a Table 3 workload; dirs are
//	                            confined under -dir, and unknown store formats 400
//	POST /v1/runs/{id}/replay   {"probe":"outer","workers":4,"init":"weak"}
//	GET  /v1/runs/{id}/logs?iters=3,7&probe=outer
//	GET  /v1/runs/{id}/trace/{trace_id}
//	GET  /v1/stats
//	GET  /v1/debug/tasks        background-task traces (GC passes)
//	GET  /v1/debug/slow?limit=N slow-query log (404 without -trace-dir)
//	GET  /metrics               Prometheus text format (unless -metrics=false)
//
// With -trace-dir query traces spill to a durable on-disk trace store that
// survives restarts: head-sampled one-in--trace-sample, with queries slower
// than -slow-query always kept and logged; -trace-max-bytes and
// -trace-max-age bound the store. Several daemons are watched at once with
// the florctl companion (florctl top / florctl scrape).
//
// With -debug-addr a second listener serves net/http/pprof at
// /debug/pprof/ for CPU, heap and goroutine profiling of a live daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store/remote"
	"flor.dev/flor/internal/workloads"
)

func main() {
	addr := flag.String("addr", ":7707", "HTTP listen address")
	dir := flag.String("dir", "", "directory holding one run subdirectory per workload (default: a temp directory)")
	record := flag.String("record", "", "comma-separated Table 3 workload names to record (if absent) and serve, e.g. ImgN,Jasp")
	demo := flag.Bool("demo", false, "shorthand for -record ImgN,Jasp -scale smoke")
	scale := flag.String("scale", "smoke", "workload scale for -record: smoke or full")
	slots := flag.Int("slots", 0, "global worker-pool slot budget (default: GOMAXPROCS)")
	inflight := flag.Int("max-inflight", 2, "max in-flight queries per run")
	queue := flag.Int("max-queue", 8, "max queued queries per run; beyond it queries get 429 (negative: no queueing)")
	queueTimeout := flag.Duration("queue-timeout", 30*time.Second, "queued-query deadline; beyond it queries get 504")
	storeCache := flag.Int("store-cache", 8, "open-store LRU capacity")
	workers := flag.Int("workers", 2, "default replay parallelism per query")
	pool := flag.Bool("pool", false, "record the workloads into one shared chunk pool (<dir>/POOL): sibling runs dedup chunks and share decoded payloads")
	remoteRoot := flag.String("remote", "", "shared remote object-pool root: recorded runs upload there and serve through ranged GETs + the chunk-cache tier (incompatible with -pool)")
	cacheDir := flag.String("cache-dir", "", "cache-tier extent directory for -remote (empty: in-memory extents; cleared on startup)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 256<<20, "cache-tier budget in bytes of resident extents for -remote (negative: no cache tier, every read goes remote)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	metrics := flag.Bool("metrics", true, "enable the metrics registry served at /metrics")
	debugAddr := flag.String("debug-addr", "", "optional listen address for the net/http/pprof profiling endpoints (disabled when empty)")
	traceDir := flag.String("trace-dir", "", "directory for the durable trace store; empty keeps traces in memory only")
	traceRing := flag.Int("trace-ring", 0, "per-run in-memory trace ring capacity (default 16)")
	traceSample := flag.Int("trace-sample", 1, "keep one in N traces in the durable store (slow queries always kept)")
	slowQuery := flag.Duration("slow-query", 0, "queries at or above this duration are logged and always traced (0 disables)")
	traceMaxBytes := flag.Int64("trace-max-bytes", 64<<20, "durable trace store size bound before old segments prune")
	traceMaxAge := flag.Duration("trace-max-age", 7*24*time.Hour, "durable trace store segment age bound")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, obs.LevelInfo)
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		logger.Error("bad -log-level", "err", err)
		os.Exit(1)
	}
	logger.SetLevel(level)
	sc, err := workloads.ParseScale(*scale)
	if err != nil {
		logger.Error("bad -scale", "err", err)
		os.Exit(2)
	}
	fatal := func(msg string, kv ...any) {
		logger.Error(msg, kv...)
		os.Exit(1)
	}

	// Metrics handles resolve from the package default at component
	// construction, so the registry must be enabled before serve.New — runs
	// registered later pick it up, components constructed earlier stay dark.
	if *metrics {
		obs.Enable()
	}

	names := *record
	if *demo && names == "" {
		names = "ImgN,Jasp"
	}
	if names == "" {
		fatal("nothing to serve; pass -demo or -record <workloads>")
	}
	base := *dir
	if base == "" {
		// No cleanup: the daemon runs until killed, so a deferred remove
		// would never execute; recordings are reusable across restarts via
		// -dir anyway.
		tmp, err := os.MkdirTemp("", "flord-*")
		if err != nil {
			fatal("temp dir", "err", err)
		}
		logger.Info("recording into temp dir (pass -dir to choose and reuse)", "dir", tmp)
		base = tmp
	}

	// Every Table 3 workload goes into the program library, so recorded
	// directories can also be registered over HTTP (POST /v1/runs) against a
	// workload name; bad directories (e.g. an unknown store format) 400.
	library := map[string]map[string]func() *script.Program{}
	for _, name := range workloads.Names() {
		spec, ok := workloads.Get(name)
		if !ok {
			continue
		}
		factory := spec.Build(sc)
		library[name] = map[string]func() *script.Program{
			"base":  factory,
			"outer": workloads.WithOuterProbe(factory),
			"inner": workloads.WithInnerProbe(factory),
		}
	}
	if *remoteRoot != "" && *pool {
		fatal("-remote is incompatible with -pool: pool-attached stores refuse backend overrides")
	}
	var remotePool remote.ObjectStore
	if *remoteRoot != "" {
		fs, err := remote.NewFSStore(*remoteRoot)
		if err != nil {
			fatal("remote pool", "root", *remoteRoot, "err", err)
		}
		remotePool = remote.Retry(fs, remote.Policy{})
	}

	srv := serve.New(serve.Options{
		Addr:               *addr,
		Slots:              *slots,
		MaxInflightPerRun:  *inflight,
		MaxQueuePerRun:     *queue,
		QueueTimeout:       *queueTimeout,
		StoreCacheSize:     *storeCache,
		DefaultWorkers:     *workers,
		Library:            library,
		RegisterRoot:       base,
		TraceRing:          *traceRing,
		TraceDir:           *traceDir,
		TraceSampleN:       *traceSample,
		SlowQueryThreshold: *slowQuery,
		TraceStoreMaxBytes: *traceMaxBytes,
		TraceStoreMaxAge:   *traceMaxAge,
		Remote:             *remoteRoot,
		CacheDir:           *cacheDir,
		CacheMaxBytes:      *cacheMaxBytes,
	})
	if err := srv.TraceStoreErr(); err != nil {
		fatal("trace store open failed", "dir", *traceDir, "err", err)
	}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		factories, ok := library[name]
		if !ok {
			fatal("unknown workload", "name", name, "have", strings.Join(workloads.Names(), ","))
		}
		runDir := filepath.Join(base, name)
		if _, err := os.Stat(filepath.Join(runDir, "MANIFEST")); err != nil {
			logger.Info("recording workload", "name", name, "dir", runDir)
			recOpts := core.RecordOptions{}
			if *pool {
				recOpts.Pool = filepath.Join(base, "POOL")
			}
			if _, err := core.Record(runDir, factories["base"], recOpts); err != nil {
				fatal("record failed", "name", name, "err", err)
			}
		} else {
			logger.Info("reusing recording", "name", name, "dir", runDir)
		}
		cfg := serve.RunConfig{ID: name, Dir: runDir, Factories: library[name]}
		if remotePool != nil {
			// Upload under the run's writer lease so a second daemon pointed
			// at the same pool cannot race this upload (or a later
			// compaction) of the prefix. Uploads are idempotent: objects the
			// pool already holds at the right size are skipped.
			host, _ := os.Hostname()
			lease, err := remote.AcquireLease(remotePool, remote.LeaseKey(name), remote.LeaseConfig{
				Owner: fmt.Sprintf("%s:%d", host, os.Getpid()),
			})
			if err != nil {
				fatal("writer lease", "run", name, "err", err)
			}
			n, err := remote.UploadRun(remotePool, runDir, name)
			if rerr := lease.Release(); rerr != nil {
				logger.Warn("lease release failed", "run", name, "err", rerr)
			}
			if err != nil {
				fatal("upload failed", "run", name, "err", err)
			}
			logger.Info("uploaded run", "run", name, "objects", n)
			// Serve the remote copy: the control plane re-fetches into a
			// scratch dir and pack reads go through the cache tier.
			cfg.Dir = filepath.Join(base, ".remote-ctl", name)
			cfg.Remote = true
		}
		if err := srv.Register(cfg); err != nil {
			fatal("register failed", "name", name, "err", err)
		}
		logger.Info("serving run", "run", name, "probes", "base,outer,inner", "remote", cfg.Remote)
	}

	if *debugAddr != "" {
		// Opt-in profiling listener, separate from the API address so an
		// operator can firewall it independently. Explicit handler
		// registrations rather than the DefaultServeMux side effect: only
		// pprof is exposed here.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func(addr string) {
			logger.Info("pprof listening", "addr", addr)
			if err := http.ListenAndServe(addr, dmux); err != nil {
				logger.Warn("pprof listener failed", "addr", addr, "err", err)
			}
		}(*debugAddr)
	}

	// Graceful drain: on SIGINT/SIGTERM stop accepting, finish in-flight
	// replays up to the deadline, then close the stores and exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigs
		logger.Info("drain begin", "signal", sig.String(), "deadline", drainTimeout.String(), "inflight", srv.InflightQueries())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("drain deadline exceeded", "err", err, "inflight", srv.InflightQueries())
			return
		}
		logger.Info("drain end", "inflight", srv.InflightQueries())
	}()

	logger.Info("listening", "addr", *addr, "metrics", *metrics)
	err = srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		<-done // a signal is draining; let it finish before exiting
		return
	}
	fatal("listen failed", "err", err)
}
