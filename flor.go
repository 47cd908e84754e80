// Package flor is a record-replay system for hindsight logging of model
// training, reproducing "Hindsight Logging for Model Training" (Garcia et
// al., VLDB 2020) in Go.
//
// Hindsight logging lets a model developer add log statements to training
// code *after* a run and obtain their output without retraining. Flor
// records a training program with low overhead — automatically memoizing
// loop side-effects into checkpoints, pruned by static side-effect analysis
// (lean checkpointing) and bounded by a user-specifiable overhead tolerance
// (adaptive checkpointing) — and then replays it physiologically: loops
// whose internals are not probed are skipped by restoring their checkpoints;
// probed loops re-execute, in parallel across workers, each initialized
// directly from checkpointed state.
//
// # Building training programs
//
// Training code is expressed as a Program: setup statements, one main loop
// (epochs), and nested training loops, built from statement constructors
// that mirror the statically analyzable patterns of the paper's Table 1:
//
//	train := &flor.Loop{ID: "train", IterVar: "step", Iters: 50, Body: []flor.Stmt{
//	    flor.AssignFunc([]string{"avg_loss"}, "train_batch", []string{"net", "step"}, trainBatch),
//	    flor.ExprMethod("optimizer", "step", nil, optimizerStep),
//	}}
//	program := &flor.Program{
//	    Name:  "quickstart",
//	    Setup: []flor.Stmt{ ... },
//	    Main:  &flor.Loop{ID: "main", IterVar: "epoch", Iters: 200,
//	           Body: []flor.Stmt{flor.LoopStmt(train), flor.LogStmt("loss", logLoss)}},
//	}
//
// # Record and replay
//
//	rec, err := flor.Record("run-dir", factory)                  // record once
//	...
//	probed := flor.WithLog(factory, ...)                         // add hindsight logs
//	res, err := flor.Replay("run-dir", probed, flor.Workers(4))  // get their output fast
package flor

import (
	"fmt"
	"slices"

	"flor.dev/flor/internal/adapt"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/runlog"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/value"
)

// Program is a training script: setup statements, a main (epoch) loop, and
// tail statements.
type Program = script.Program

// Loop is a counted loop with a stable static identifier.
type Loop = script.Loop

// Stmt is one program statement.
type Stmt = script.Stmt

// Env is a program environment mapping variable names to live values.
type Env = script.Env

// NewEnv returns an empty environment.
func NewEnv() *Env { return script.NewEnv() }

// Statement constructors (the statically analyzable patterns of Table 1).
var (
	// AssignMethod builds "t1,..,tn = recv.fn(args...)" (rule 1: the
	// receiver and all targets join the loop changeset).
	AssignMethod = script.AssignMethod
	// AssignFunc builds "t1,..,tn = fn(args...)" (rule 2: targets only).
	AssignFunc = script.AssignFunc
	// AssignExpr builds "t1,..,tn = <expr>" (rule 3: targets only).
	AssignExpr = script.AssignExpr
	// ExprMethod builds "recv.fn(args...)" (rule 4: receiver only).
	ExprMethod = script.ExprMethod
	// ExprFunc builds "fn(args...)" (rule 5: refuses memoization of the
	// enclosing loop — use for statements with unanalyzable side-effects).
	ExprFunc = script.ExprFunc
	// LogStmt builds a log statement; adding one to recorded code in
	// hindsight is a probe.
	LogStmt = script.LogStmt
	// LoopStmt embeds a nested loop into a statement list.
	LoopStmt = script.LoopStmt
	// AddLog inserts a log statement into a statement list at an index.
	AddLog = script.AddLog
)

// Environment value wrappers. Program state lives in the Env as these typed
// boxes; checkpoints snapshot and restore them.
type (
	// Int is a mutable integer box.
	Int = value.Int
	// Float is a mutable float box.
	Float = value.Float
	// StringVal is a mutable string box.
	StringVal = value.String
	// Bool is a mutable bool box.
	Bool = value.Bool
	// TensorVal wraps a live tensor.
	TensorVal = value.Tensor
	// ModelVal wraps a live nn model; its snapshot captures every parameter.
	ModelVal = value.Model
	// OptimizerVal wraps a live optimizer, whose reference to its model
	// drives changeset augmentation.
	OptimizerVal = value.Optimizer
	// SchedulerVal wraps a live LR scheduler.
	SchedulerVal = value.Scheduler
	// RNGVal wraps a live deterministic random generator.
	RNGVal = value.RNG
	// OpaqueVal wraps a non-checkpointable runtime handle (datasets etc.).
	OpaqueVal = value.Opaque
)

// Strategy selects the background materialization implementation of §5.1.
type Strategy = backmat.Strategy

// Materialization strategies (paper Figure 5).
const (
	// StrategyBaseline serializes and writes on the training thread.
	StrategyBaseline = backmat.Baseline
	// StrategyQueue serializes on the training thread, writes behind.
	StrategyQueue = backmat.Queue
	// StrategyPlasma hands objects off without serializing on the caller.
	StrategyPlasma = backmat.Plasma
	// StrategyFork snapshots on the caller and does everything else behind —
	// the paper's default.
	StrategyFork = backmat.Fork
)

// InitMode selects the parallel-replay worker initialization strategy.
type InitMode = replay.InitMode

// Worker initialization strategies (paper §5.4.2).
const (
	// StrongInit replays every prior epoch from checkpoints (default).
	StrongInit = replay.Strong
	// WeakInit jumps to the checkpoint nearest the worker's segment.
	WeakInit = replay.Weak
)

// DefaultEpsilon is the paper's record overhead tolerance, 1/15 ≈ 6.67 %.
const DefaultEpsilon = adapt.DefaultEpsilon

// Anomaly is a record/replay divergence found by the deferred correctness
// check.
type Anomaly = runlog.Anomaly

// Option configures Record and Replay.
type Option func(*options)

type options struct {
	rec core.RecordOptions
	rep replay.Options
}

// Epsilon sets the record overhead tolerance ε (default 1/15).
func Epsilon(e float64) Option {
	return func(o *options) { o.rec.Epsilon = e }
}

// WithStrategy selects the materialization strategy (default StrategyFork).
func WithStrategy(s Strategy) Option {
	return func(o *options) { o.rec.Strategy = s }
}

// DisableAdaptiveCheckpointing checkpoints every loop execution regardless
// of cost (the "adaptivity disabled" configuration of Figure 7).
func DisableAdaptiveCheckpointing() Option {
	return func(o *options) { o.rec.DisableAdaptive = true }
}

// Pool records into a shared chunk pool rooted at dir (created on first
// use; relative paths resolve against the process working directory, while
// the run's manifest records a run-dir-relative reference so a project
// tree relocates as a unit). Runs attached to
// the same pool — a fine-tuning family over one frozen backbone, a swept
// hyperparameter grid — deduplicate checkpoint chunks against each other,
// so shared state is stored once per project instead of once per run, and
// concurrent replays of sibling runs share decoded payloads. A pool is one
// pack log, as a private run's store is; a pool an older build made (one
// split into hash-prefix shards included) is not opened, and recording into
// it fails with store.ErrLegacyLayout. Any number of recordings, in one process
// or (where the platform has flock) many, may record into one pool at once,
// and GC may run beside them: each commit holds the pool's lock, an exclusive
// flock on its directory, so every run replays as if it had recorded alone. Replay needs no matching option —
// the run's manifest records the attachment.
func Pool(dir string) Option {
	return func(o *options) { o.rec.Pool = dir }
}

// Workers sets the degree of hindsight parallelism G for replay.
func Workers(g int) Option {
	return func(o *options) { o.rep.Workers = g }
}

// Init selects the worker initialization mode for replay.
func Init(m InitMode) Option {
	return func(o *options) { o.rep.Init = m }
}

// RecordResult reports a record run.
type RecordResult struct {
	// WallNs is the instrumented run's duration including materialization
	// drain.
	WallNs int64
	// Logs is the record-phase run log.
	Logs []string
	// Checkpoints is the number of materialized checkpoints.
	Checkpoints int
	// CheckpointBytes is the total uncompressed checkpoint volume.
	CheckpointBytes int64
	// C is the refined restore/materialize scaling factor.
	C float64
}

// Record executes factory's program with Flor instrumentation, materializing
// checkpoints into dir. All the user's code needs is to be expressed as a
// Program — the paper's "import flor".
func Record(dir string, factory func() *Program, opts ...Option) (*RecordResult, error) {
	o := gather(opts)
	res, err := core.Record(dir, factory, o.rec)
	if err != nil {
		return nil, err
	}
	return &RecordResult{
		WallNs:          res.WallNs,
		Logs:            res.Logs,
		Checkpoints:     res.MatStats.Checkpoints,
		CheckpointBytes: res.MatStats.BytesWritten,
		C:               res.C,
	}, nil
}

// ReplayResult reports a hindsight replay.
type ReplayResult struct {
	// Logs is the merged replay log in iteration order, including the new
	// probes' output.
	Logs []string
	// ProbedLoops lists the loop IDs the source diff found probed.
	ProbedLoops []string
	// Anomalies is the deferred correctness check's findings; empty means
	// the replay reproduced the record exactly (modulo the new probes).
	Anomalies []Anomaly
	// WallNs is the replay's wall-clock duration.
	WallNs int64
	// Workers is the number of parallel workers that ran.
	Workers int
	// Steals counts the leases idle workers cut off a busy worker's lease.
	Steals int
}

// Replay re-executes the recorded run in dir against factory's (possibly
// probed) program: loops without new log statements are skipped by restoring
// their checkpoints; probed loops re-execute across Workers(g) parallel
// workers. A replay only reads the run: it opens it read-only and writes
// nothing to it. A run in a layout an older build left fails with
// store.ErrLegacyLayout: migrate it first (florctl migrate), once.
func Replay(dir string, factory func() *Program, opts ...Option) (*ReplayResult, error) {
	rec, err := core.LoadRecordingShared(dir)
	if err != nil {
		return nil, err
	}
	o := gather(opts)
	res, err := replay.Replay(rec, factory, o.rep)
	if err != nil {
		return nil, err
	}
	var probed []string
	for id, on := range res.Probes {
		if on {
			probed = append(probed, id)
		}
	}
	slices.Sort(probed)
	return &ReplayResult{
		Logs:        res.Logs,
		ProbedLoops: probed,
		Anomalies:   res.Anomalies,
		WallNs:      res.WallNs,
		Workers:     len(res.Workers),
		Steals:      res.Steals,
	}, nil
}

// ServeOptions configures an embedded flord daemon (see internal/serve for
// knob semantics: shared worker-pool slots, per-run admission control,
// open-store LRU sizing).
type ServeOptions = serve.Options

// ServeRun registers one recording with an embedded daemon: a run ID, its
// recorded directory, and named probe factories ("base" plus hindsight-
// probed variants) that HTTP clients select by name.
type ServeRun = serve.RunConfig

// Daemon is a running multi-run replay server; it exposes Handler(),
// Stats(), and Register() for embedding into an existing process.
type Daemon = serve.Server

// NewDaemon builds a flord daemon serving the given recordings: stores stay
// open (and their decoded payloads cached) across queries in an LRU, and all
// queries share one admission-controlled worker pool. Serve its Handler()
// on a listener of your choice, or call Serve to listen directly.
func NewDaemon(opts ServeOptions, runs ...ServeRun) (*Daemon, error) {
	d := serve.New(opts)
	for _, r := range runs {
		if err := d.Register(r); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Serve runs a flord daemon on opts.Addr, blocking until the listener
// fails — the embedding API for serving replay queries over your own
// programs (the standalone flord binary can only serve built-in workloads).
func Serve(opts ServeOptions, runs ...ServeRun) error {
	d, err := NewDaemon(opts, runs...)
	if err != nil {
		return err
	}
	return d.ListenAndServe()
}

// Vanilla executes factory's program without any instrumentation, returning
// its logs and duration — the baseline of every comparison in the paper.
func Vanilla(factory func() *Program) (logs []string, wallNs int64, err error) {
	return core.Vanilla(factory)
}

// SampleResult reports a sampling replay.
type SampleResult struct {
	// Iterations is the sorted, deduplicated set of replayed iterations.
	Iterations []int
	// Logs is the output of the sampled iterations, including probes.
	Logs []string
	// WallNs is the replay duration.
	WallNs int64
}

// ReplaySampled replays only the chosen main-loop iterations (paper §8's
// iteration sampling): checkpoints give random access to any iteration, so
// point queries and binary searches over the past need not scan it. Like
// Replay, it only reads the run.
func ReplaySampled(dir string, factory func() *Program, iterations []int) (*SampleResult, error) {
	rec, err := core.LoadRecordingShared(dir)
	if err != nil {
		return nil, err
	}
	res, err := replay.ReplaySample(rec, factory, iterations)
	if err != nil {
		return nil, err
	}
	return &SampleResult{Iterations: res.Iterations, Logs: res.Logs, WallNs: res.WallNs}, nil
}

func gather(opts []Option) *options {
	o := &options{}
	o.rec.Strategy = backmat.Fork
	for _, fn := range opts {
		fn(o)
	}
	return o
}

// Validate checks that a program is well-formed for Flor: it has a main
// loop, loop IDs are unique, and iteration variables do not collide.
func Validate(p *Program) error {
	if p.Main == nil {
		return fmt.Errorf("flor: program %q has no main loop", p.Name)
	}
	seen := map[string]bool{}
	for _, l := range p.Loops() {
		if seen[l.ID] {
			return fmt.Errorf("flor: duplicate loop ID %q", l.ID)
		}
		seen[l.ID] = true
		if l.Iters < 0 {
			return fmt.Errorf("flor: loop %q has negative iteration count", l.ID)
		}
	}
	return checkIterVars(p.Main, map[string]string{})
}

// checkIterVars rejects iteration-variable collisions: a loop whose IterVar
// matches any enclosing loop's would clobber the outer counter mid-flight,
// corrupting checkpoint keys and replay positioning. Sibling loops may share
// an IterVar — each run to completion before the variable is read again.
// enclosing maps each live IterVar to the loop that owns it.
func checkIterVars(l *script.Loop, enclosing map[string]string) error {
	if owner, clash := enclosing[l.IterVar]; clash {
		return fmt.Errorf("flor: loop %q reuses iteration variable %q of enclosing loop %q",
			l.ID, l.IterVar, owner)
	}
	enclosing[l.IterVar] = l.ID
	defer delete(enclosing, l.IterVar)
	for i := range l.Body {
		if nested := l.Body[i].Loop; nested != nil {
			if err := checkIterVars(nested, enclosing); err != nil {
				return err
			}
		}
	}
	return nil
}

// LogLabel extracts the label prefix of a run-log line ("label: message").
func LogLabel(line string) string { return runlog.Label(line) }
