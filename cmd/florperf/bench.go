package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	flor "flor.dev/flor"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store/remote"
)

// metricDef names one metric of BENCHMARK.json; florperf_test.go holds the
// two lists to that file.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of flor sees, reported by every workload
// with tracing off. An operation is what the workload's user waits for: one
// hindsight query over HTTP on the query workloads, one recorded training
// run on the record workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"record_slowdown", "ratio"},
	{"stored_per_logical_byte", "ratio"},
	{"rss_p95_mib", "MiB"},
}

// workload is one named set of inputs. Every workload has programs to
// record, options to record them with, and a daemon configuration to query
// the recordings through; what differs is which half the timed window
// drives (query) and how the sizes sit against the program's caches.
type workload struct {
	// name is the workload's name in BENCHMARK.json, which also says why it
	// was chosen.
	name string
	// query workloads time hindsight queries against a daemon serving the
	// recorded runs; record workloads time vanilla/record pairs.
	query bool
	// runs are the programs recorded during set-up: the runs a query
	// workload reads, or the one program a record workload keeps recording.
	runs    func(seed uint64, smoke bool) []runSpec
	recOpts core.RecordOptions
	// remote registers the runs against an object pool holding their packs.
	remote bool
	// serveOpts configures the daemon; pool is the object pool's root.
	serveOpts func(pool string) serve.Options
}

// runSpec is one program to record.
type runSpec struct {
	id      string
	factory func() *flor.Program
	epochs  int
}

// tinyPayloadCache is below the size of any tensor section, so the decoded-
// payload cache admits nothing a query restores and every byte is fetched.
const tinyPayloadCache = 4 << 10

// flordDefaults is a daemon with every option at its default.
func flordDefaults(string) serve.Options { return serve.Options{} }

func queryRuns(seed uint64, smoke bool) []runSpec {
	var out []runSpec
	for i := 0; i < 3; i++ {
		s := querySpec(seed, i, smoke)
		out = append(out, runSpec{id: s.name, factory: classifier(s), epochs: s.epochs})
	}
	return out
}

var workloads = []workload{
	{
		name: "record_train",
		runs: func(seed uint64, smoke bool) []runSpec {
			s := trainSpec(seed, smoke)
			return []runSpec{{id: s.name, factory: classifier(s), epochs: s.epochs}}
		},
		serveOpts: flordDefaults,
	},
	{
		name: "record_ckpt",
		runs: func(seed uint64, smoke bool) []runSpec {
			frozen, hot, epochs := 6, 2, 12
			if smoke {
				frozen, hot, epochs = 1, 1, 3
			}
			return []runSpec{{id: "ckptheavy", factory: ckptHeavy(seed, frozen, hot, epochs), epochs: epochs}}
		},
		recOpts:   core.RecordOptions{DisableAdaptive: true},
		serveOpts: flordDefaults,
	},
	{
		name:      "query_hot",
		query:     true,
		runs:      queryRuns,
		recOpts:   core.RecordOptions{DisableAdaptive: true},
		serveOpts: flordDefaults,
	},
	{
		name:    "query_cold",
		query:   true,
		runs:    queryRuns,
		recOpts: core.RecordOptions{DisableAdaptive: true},
		serveOpts: func(string) serve.Options {
			return serve.Options{PayloadCacheBytes: tinyPayloadCache, StoreCacheSize: 1}
		},
	},
	{
		name:    "query_remote",
		query:   true,
		remote:  true,
		runs:    queryRuns,
		recOpts: core.RecordOptions{DisableAdaptive: true},
		serveOpts: func(pool string) serve.Options {
			return serve.Options{PayloadCacheBytes: tinyPayloadCache, Remote: pool, CacheMaxBytes: 16 << 20}
		},
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// runInfo is one recorded run and the oracle for queries against it.
type runInfo struct {
	runSpec
	dir    string
	probed func() *flor.Program
	// golden is the log of the probed program executed from scratch with no
	// flor instrumentation: what every replay of the run must return.
	golden []string
	// base is golden without the probe's lines: what recording must log.
	base []string
	// byIter holds golden's lines per main-loop iteration, for samples.
	byIter [][]string
	// vanillaNs is how long the probed program took uninstrumented: the
	// cost of answering the probe by re-running the training script.
	vanillaNs int64
	rec       *core.RecordResult
}

// benchEnv is everything one set-up leaves behind.
type benchEnv struct {
	w    *workload
	dir  string
	runs []*runInfo
	pool string // object pool root, remote workloads only

	srv    *serve.Server
	served chan error
	url    string
	client *http.Client

	*tally
}

// tally counts a run's operations and the ones whose output was wrong.
type tally struct {
	attempted, failed atomic.Int64
	complaints        sync.Once
}

// check counts one operation and whether its output matched the oracle.
func (t *tally) check(ok bool, what string, args ...any) {
	t.attempted.Add(1)
	if ok {
		return
	}
	t.failed.Add(1)
	t.complaints.Do(func() {
		fmt.Fprintf(os.Stderr, "florperf: first failed operation: "+what+"\n", args...)
	})
}

// oracle runs the probed program uninstrumented and indexes its log.
func (r *runInfo) oracle() error {
	golden, ns, err := core.Vanilla(r.probed)
	if err != nil {
		return err
	}
	r.golden, r.vanillaNs = golden, ns
	r.byIter = make([][]string, r.epochs)
	r.base = r.base[:0]
	for _, line := range golden {
		if flor.LogLabel(line) != probeLabel {
			r.base = append(r.base, line)
		}
		_, rest, ok := strings.Cut(line, "epoch=")
		if !ok {
			continue
		}
		num, _, _ := strings.Cut(rest, " ")
		it, err := strconv.Atoi(num)
		if err != nil || it < 0 || it >= r.epochs {
			return fmt.Errorf("oracle: unparsable iteration in %q", line)
		}
		r.byIter[it] = append(r.byIter[it], line)
	}
	return nil
}

// expectSample is the oracle for a sample of the given iterations.
func (r *runInfo) expectSample(iters []int) []string {
	sorted := slices.Clone(iters)
	slices.Sort(sorted)
	var out []string
	for _, it := range slices.Compact(sorted) {
		out = append(out, r.byIter[it]...)
	}
	return out
}

// warmupQueries is how many queries per run fill the daemon's caches (and
// are checked against the oracle) before the timed window.
const warmupQueries = 3

// setUp records the workload's runs under dir, builds the oracle, and, when
// daemon is set, starts a flord in this process serving them on loopback
// and warms it. Everything here is timed as setup_s.
func setUp(w *workload, seed uint64, smoke bool, dir string, daemon bool, ops *tally) (*benchEnv, error) {
	e := &benchEnv{w: w, dir: dir, tally: ops}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, rs := range w.runs(seed, smoke) {
		r := &runInfo{runSpec: rs, dir: filepath.Join(dir, "runs", rs.id), probed: withProbe(rs.factory)}
		if err := r.oracle(); err != nil {
			return nil, err
		}
		rec, err := core.Record(r.dir, r.factory, w.recOpts)
		if err != nil {
			return nil, err
		}
		r.rec = rec
		e.check(slices.Equal(rec.Logs, r.base), "set-up record of %s logged %d lines that differ from the uninstrumented run's %d", r.id, len(rec.Logs), len(r.base))
		e.runs = append(e.runs, r)
	}
	if !w.query {
		// No daemon warms a record workload's run, so replay it once here:
		// the recording must answer the probe exactly as the oracle does.
		r := e.runs[0]
		res, err := flor.Replay(r.dir, r.probed, flor.Workers(2), flor.Init(flor.WeakInit))
		if err != nil {
			return nil, err
		}
		e.check(len(res.Anomalies) == 0 && slices.Equal(res.Logs, r.golden), "replay of the recorded %s: %d anomalies, log equal to oracle: %v", r.id, len(res.Anomalies), slices.Equal(res.Logs, r.golden))
	}
	if w.remote {
		e.pool = filepath.Join(dir, "pool")
		fs, err := remote.NewFSStore(e.pool)
		if err != nil {
			return nil, err
		}
		for _, r := range e.runs {
			if _, err := remote.UploadRun(fs, r.dir, r.id); err != nil {
				return nil, err
			}
		}
	}
	if daemon {
		if err := e.startDaemon(); err != nil {
			return nil, err
		}
		for i := 0; i < warmupQueries; i++ {
			for run := range e.runs {
				rq := request{run: run, sample: i == warmupQueries-1, iters: [2]int{0, e.runs[run].epochs - 1}}
				if _, _, err := e.httpQuery(rq); err != nil {
					return nil, err
				}
			}
		}
	}
	return e, nil
}

// startDaemon serves the runs from a flord in this process, on a loopback
// port, configured as the workload says and otherwise at flord's defaults.
func (e *benchEnv) startDaemon() error {
	if e.w.query {
		// flord enables the metrics registry before it builds anything.
		obs.Enable()
	}
	e.srv = serve.New(e.w.serveOpts(e.pool))
	for _, r := range e.runs {
		cfg := serve.RunConfig{ID: r.id, Dir: r.dir, Remote: e.w.remote,
			Factories: map[string]func() *flor.Program{"base": r.factory, "outer": r.probed}}
		if e.w.remote {
			cfg.Dir = filepath.Join(e.dir, "ctl", r.id)
		}
		if err := e.srv.Register(cfg); err != nil {
			return err
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.url = "http://" + l.Addr().String()
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(l) }()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return nil
}

// close stops the daemon, waits for it, and removes the set-up's files.
func (e *benchEnv) close() error {
	var err error
	if e.srv != nil {
		e.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = e.srv.Shutdown(ctx)
		cancel()
		if serr := <-e.served; err == nil && serr != http.ErrServerClosed {
			err = serr
		}
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// storedPerLogicalByte is the bytes the recorded runs occupy on disk (packs,
// manifest, directories, logs) per byte of checkpoint payload recorded.
func storedPerLogicalByte(dirs []string, logical int64) float64 {
	var onDisk int64
	for _, d := range dirs {
		onDisk += dirBytes(d)
	}
	return ratio(float64(onDisk), float64(logical))
}
