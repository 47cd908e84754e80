// Command florperf is flor's benchmark: one repeatable measurement of what
// recording costs and how fast a hindsight query comes back, end to end and
// layer by layer. BENCHMARK.json at the repository root names it.
//
// One invocation runs one workload:
//
//	bash cmd/florperf/run.sh --workload query_cold --seed 7 --seconds 12 --trace 0
//
// It sets up (records the workload's runs with core.Record, builds the
// oracle by running the probed programs uninstrumented, starts a flord in
// this process on a loopback port), measures for --seconds, checks every
// output against the oracle, prints a table of every metric with its unit,
// spread and sample count, and ends with one JSON line:
//
//	{"correct":true,"attempted":412,"failed":0,"metrics":{"op_p50_ms":{"value":41.3,"unit":"ms"},...}}
//
// With --trace 0 the metrics are the end-to-end ones, with tracing off.
// With --trace 1 the same seeded inputs are issued one layer lower at a time
// (HTTP, serve.Server.Replay, replay.Replay, store, codecs) with the
// benchmark's own spans around each call, and the metrics are the per-layer
// ones. README.md in this directory defines every workload and metric.
//
// -check-repeat runs every workload ten times as child processes, one seed
// each, twice over, prints each end-to-end metric's median and quartile
// spread next to its bound, and fails when a spread exceeds its bound or a
// second median is worse than the first by more than the bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's inputs.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	dir      string // scratch root; a per-process directory is made under it
	out      string // optional report file (JSON), and spans beside it
}

// metricValue is the form a metric takes in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what one invocation measured: the result line's content plus
// the spread and sample count of each metric and the environment.
type report struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Traced   bool              `json:"traced"`
	Env      map[string]string `json:"env"`
	Stats    map[string]stat   `json:"stats"`
	// Context are figures printed beside the metrics but not part of the
	// contract: the tail latency and the vanilla reference.
	Context map[string]stat `json:"context,omitempty"`
	result
}

// setupReps is how many times an untraced run sets up from nothing; setup_s
// is the median, and the last set-up is the one measured against. The
// benchmark's contract asks for the repeats: one set-up is a second or less,
// and a single timing of it is the noisiest number a run produces.
const setupReps = 3

// run performs one invocation. hook, when set, sees the environment after
// set-up and before the timed window (the test corrupts the oracle there).
func run(cfg config, hook func(*benchEnv)) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	base, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	rep := &report{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Env: environment(base), Stats: map[string]stat{}, Context: map[string]stat{}}
	window := time.Duration(cfg.seconds * float64(time.Second))

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var env *benchEnv
	var rss *rssSampler
	// recordings holds, for every run a set-up recorded, the recording's wall
	// time over that of the oracle's uninstrumented run of the same program.
	var setups, recordings []float64
	ops := &tally{} // every set-up's and the window's operations
	for i := 0; i < reps; i++ {
		if i == reps-1 {
			// Memory is sampled over the set-up that is measured against and
			// the window, not over the set-ups that are only timed.
			rss = startRSSSampler()
			defer rss.p95()
		}
		t0 := time.Now()
		env, err = setUp(w, cfg.seed, cfg.smoke, filepath.Join(base, fmt.Sprint("setup", i)), w.query || cfg.trace, ops)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		for _, r := range env.runs {
			recordings = append(recordings, float64(r.rec.WallNs)/float64(r.vanillaNs))
		}
		if i < reps-1 {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
	}
	if hook != nil {
		hook(env)
	}

	if cfg.trace {
		err = env.traceLayers(cfg, window, rep.Stats)
	} else {
		var res windowResult
		if w.query {
			res, err = env.measureQueries(cfg.seed, window)
			// A query window records nothing: what recording cost is what it
			// cost the set-ups (whose vanilla half also executed the probe).
			res.slowdown = medianOf(recordings)
		} else {
			res, err = env.measureRecords(window)
		}
		if err == nil {
			rep.Stats["setup_s"] = medianOf(setups)
			rep.Stats["op_p50_ms"], rep.Stats["ops_per_s"], rep.Stats["record_slowdown"] = res.p50Ms, res.perSec, res.slowdown
			rep.Stats["stored_per_logical_byte"] = single(res.stored)
			rep.Context["op_p90_ms"], rep.Context["vanilla_ms"] = res.p90Ms, res.vanillaMs
		}
	}
	cerr := env.close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	if !cfg.trace {
		rep.Stats["rss_p95_mib"] = rss.p95()
	}

	rep.Attempted, rep.Failed = ops.attempted.Load(), ops.failed.Load()
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	rep.Metrics = map[string]metricValue{}
	defs := metricDefs(cfg.trace)
	for _, d := range defs {
		s, ok := rep.Stats[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		s.Unit = d.unit
		rep.Stats[d.name] = s
		rep.Metrics[d.name] = metricValue{Value: s.Value, Unit: d.unit}
	}
	if len(rep.Stats) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(rep.Stats), len(defs))
	}
	return rep, nil
}

// environment describes where the numbers were taken.
func environment(dataDir string) map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"cpu":        cpuModel(),
		"data_fs":    fsType(dataDir),
		"commit":     commit(),
		"flush":      "the store never fsyncs; reads are served from the OS page cache",
		"clients":    fmt.Sprintf("%d closed-loop, one process", clients),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit reads the checked-out commit from .git when the benchmark runs in
// a git checkout; the driver's checkouts are plain directories.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "not a git checkout"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if raw, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(raw))
		}
	}
	return ref
}

// metricDefs are the metrics a run reports: the per-layer ones when traced,
// the end-to-end ones otherwise.
func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable table and, last, the result line.
func (r *report) print() error {
	fmt.Printf("florperf workload=%s seed=%d seconds=%g traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	for _, k := range []string{"commit", "go", "gomaxprocs", "nproc", "cpu", "data_fs", "flush", "clients"} {
		fmt.Printf("  %-10s %s\n", k, r.Env[k])
	}
	fmt.Printf("  %-34s %14s %-6s %14s %14s %6s\n", "metric", "value", "unit", "min", "max", "n")
	for _, d := range metricDefs(r.Traced) {
		s := r.Stats[d.name]
		fmt.Printf("  %-34s %14.6g %-6s %14.6g %14.6g %6d\n", d.name, s.Value, d.unit, s.Min, s.Max, s.N)
	}
	for _, k := range []string{"op_p90_ms", "vanilla_ms"} {
		if s, ok := r.Context[k]; ok {
			fmt.Printf("  %-34s %14.6g %-6s %14.6g %14.6g %6d  (context, not bounded)\n", k, s.Value, "ms", s.Min, s.Max, s.N)
		}
	}
	fmt.Printf("  operations attempted=%d failed=%d\n", r.Attempted, r.Failed)
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs: programs' initial weights and data, and the query sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the layer-peeling passes")
	flag.BoolVar(&cfg.smoke, "smoke", false, "shrink every program to test size")
	flag.StringVar(&cfg.dir, "dir", "", "directory for recorded runs and object pools (default .bench_build/florperf-data under the working directory)")
	flag.StringVar(&cfg.out, "out", "", "also write the full report as JSON to this file, and with -trace 1 the spans to <file>.spans.ndjson")
	repeat := flag.Bool("check-repeat", false, "run every workload ten times, one seed each, in child processes, twice over; print each end-to-end metric's median and quartile spread and fail when one exceeds its bound or a second median is worse than the first by more than the bound")
	flag.Parse()
	cfg.trace = trace != 0

	if err := mainErr(cfg, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "florperf:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config, repeat bool) error {
	if cfg.seconds <= 0 {
		bf, err := readBenchmarkFile("BENCHMARK.json")
		if err != nil {
			return fmt.Errorf("no -seconds given: %w", err)
		}
		cfg.seconds = float64(bf.RunSeconds)
	}
	if repeat {
		return checkRepeat(cfg)
	}
	if cfg.dir == "" {
		cfg.dir = filepath.Join(".bench_build", "florperf-data")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	rep, err := run(cfg, nil)
	if err != nil {
		return err
	}
	if cfg.out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return rep.print()
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
