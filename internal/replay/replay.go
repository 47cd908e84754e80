// Package replay implements Flor's replay phase: probe discovery by source
// diff, partial replay through SkipBlocks, and hindsight parallelism via the
// Flor generator (paper §3.2, §5.4).
//
// There is one query path: a worker (one program instance, SkipBlock runtime
// and report) executed over spans of main-loop iterations. A full replay
// cuts the iterator into contiguous, checkpoint-anchored leases
// (internal/sched owns the partitioner and the lease executor) and its
// workers claim them — an initial lease nobody has started, else the
// trailing part of the lease most profitable to split. A sample (§8, partial
// replay) is one worker over the requested one-iteration spans, ascending.
// Both read the recording's one memoized loop/anchor table (schedState).
// Every worker executes the same instrumented program from the beginning:
// setup runs logically (imports, data loading, model construction) — or, for
// a program an earlier query left in a Park, the program is rebound to the
// state setup left — then the generator drives the main loop through two
// phases —
//
//	init_sgmnt: iterations replayed in SkipBlock initialization mode, which
//	            skips nested loops by restoring their Loop End Checkpoints.
//	            Strong initialization covers every iteration before the
//	            worker's first lease; weak initialization jumps to the nearest
//	            materialized checkpoint at or before the span start. A worker
//	            moving on to a span that does not start where its state sits
//	            always re-initializes the weak way.
//	work_sgmnt: the worker's own iterations in replay-execution mode, where
//	            probed loops re-execute (producing the hindsight logs) and
//	            unprobed loops restore.
//
// Workers share nothing beyond the executor's lease bookkeeping; each
// executed span carries its own log lines, and a replay merges spans in
// iteration order before diffing the merged log against the record log
// (deferred correctness check, §5.2.2).
//
// Once every worker of a query has exited, its programs go to the park if
// the query succeeded and the park keeps them; every other program gives
// back the buffers of the pending tensors its setup made and a restore
// overwrote before anything drew them (tensor.Claims, tensor.Release), so
// the next fresh worker's initializers take recycled buffers instead of
// allocating and zero-filling new ones. Such a program is dropped: its
// released tensors panic on any access.
package replay

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"flor.dev/flor/internal/adapt"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/runlog"
	"flor.dev/flor/internal/sched"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/skipblock"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
)

// InitMode selects the worker initialization strategy (paper §5.4.2); it is
// the scheduler's Init so replay and sched.Simulate price it alike.
type InitMode = sched.Init

// Strong initialization replays every iteration preceding the work segment
// in init mode (the default: its correctness follows from the correctness of
// loop memoization). Weak initialization jumps to the checkpoint nearest the
// segment start.
const (
	Strong = sched.Strong
	Weak   = sched.Weak
)

// Scheduler is accepted and ignored. Replay has one scheduler; the type and
// its constants survive only because cmd/florperf (frozen outside [benchmark]
// PRs) names SchedBalanced. The next [benchmark] PR can drop that reference
// and, with it, this type, the constants and Options.Scheduler.
type Scheduler int

// Former scheduling policies; all three now select the same (only) executor.
const (
	SchedStatic Scheduler = iota
	SchedBalanced
	SchedStealing
)

// Options configures a replay.
type Options struct {
	// Workers is the degree of hindsight parallelism G (default 1).
	Workers int
	// Init selects strong or weak worker initialization.
	Init InitMode
	// Scheduler is ignored (see the Scheduler type).
	Scheduler Scheduler
	// SkipDeferredCheck disables the record/replay log diff (used by
	// benchmarks that measure pure replay latency).
	SkipDeferredCheck bool
	// Slots, when non-nil, gates every replay worker on a shared slot
	// source (normally a sched.Pool shared across concurrent queries in a
	// serving daemon). A worker acquires its slot before it claims work and
	// holds it for its whole lifetime — setup, initialization, work — so the
	// source's global budget bounds actual parallelism across replays
	// regardless of each query's Workers, and a worker granted a slot after
	// the others took everything returns without running setup.
	// Nil means unlimited (the single-replay library default).
	Slots sched.SlotSource
	// Ctx bounds slot waits (a daemon's queueing deadline); nil means
	// context.Background().
	Ctx context.Context
	// Cache, when non-nil, replaces each worker's private decoded-payload
	// cache with a shared one, so a run's restored content stays hot across
	// queries (and across the workers of one replay).
	Cache *backmat.PayloadCache
	// Park, when non-nil, supplies workers with programs earlier queries over
	// the same recording and probed program set up, and takes this query's
	// programs back when it succeeds (see Park). Nil builds and sets up a
	// fresh program per worker and drops it after.
	Park *Park
	// Trace, when non-nil, collects per-worker phase spans (setup, init,
	// work, and a closing per-worker summary carrying restore-vs-step time).
	// Nil disables tracing at zero cost.
	Trace *obs.Trace
}

// Recording is the artifact a record run leaves behind: the checkpoint
// store, the saved program structure, the record log, and the per-iteration
// timings the record phase measured (nil for recordings made before timing
// capture existed; the scheduler then falls back to store metadata).
type Recording struct {
	Store     *store.Store
	Shape     *script.ProgramShape
	RecordLog []string
	Timings   *runlog.Timings

	// sched memoizes the recording-derived scheduling state. A serving
	// daemon replays the same immutable recording for many queries;
	// re-running the instrumented-loop discovery, anchor store scans, and
	// O(n) cost-model construction per request would pay back exactly the
	// latency the hot-store cache buys. Guarded by schedMu, built lazily.
	schedMu sync.Mutex
	sched   *schedState
}

// schedState is the memoized scheduler input derived from a recording. The
// loop set, multiplicities, and anchors depend only on the program
// structure (identical across probe variants — probes add log statements,
// not loops) and the immutable store; the cost model additionally depends
// on whether an instrumented inner loop is probed, the only query-dependent
// bit, so both variants are cached.
type schedState struct {
	ids     []string
	mult    map[string]int
	anchors []int
	costs   [2]*sched.Costs // indexed by probedInner
}

// schedStateFor returns the memoized loop/anchor state, building it on
// first use.
func (rec *Recording) schedStateFor(p *script.Program) *schedState {
	rec.schedMu.Lock()
	defer rec.schedMu.Unlock()
	if rec.sched == nil {
		rec.sched = newSchedState(rec.Store, p)
	}
	return rec.sched
}

// Plan returns the replay planner's input for the probed program factory
// builds: the scheduler's cost model and the recording's anchored
// iterations — exactly what Replay partitions and steals with, since both
// read them through one memo on rec. The paper-figure simulations
// (internal/bench) run sched.Simulate over it, so they price iterations the
// way replay does. The returned values are shared and must not be modified.
func Plan(rec *Recording, factory func() *script.Program) (*sched.Costs, []int, error) {
	p, diff, err := diffProbed(rec, factory)
	if err != nil {
		return nil, nil, err
	}
	costs, anchors := rec.plan(p, diff)
	return costs, anchors, nil
}

// plan returns the memoized cost model and anchors for p, whose diff against
// the recording is diff. The one query-dependent bit is whether an
// instrumented (restorable) loop is probed: only then do work iterations
// re-execute at compute cost; an outer-only probe leaves every nested loop
// restoring, so work is priced as catch-up. Cached costs are priced with the
// recording's persisted c prior, which every query's fresh tracker starts
// from, so the first and the hundredth query see the same model;
// sched.Costs is read-only to its consumers and safe to share across
// concurrent replays.
func (rec *Recording) plan(p *script.Program, diff *script.DiffResult) (*sched.Costs, []int) {
	st := rec.schedStateFor(p)
	idx := 0
	for _, id := range st.ids {
		if diff.Probes[id] {
			idx = 1
		}
	}
	rec.schedMu.Lock()
	defer rec.schedMu.Unlock()
	if st.costs[idx] == nil {
		st.costs[idx] = schedCosts(rec, p, st, idx == 1)
	}
	return st.costs[idx], st.anchors
}

// newTracker returns a fresh adaptive tracker seeded with the recording's
// persisted restore/materialize factor c.
func (rec *Recording) newTracker() *adapt.Tracker {
	tracker := adapt.New(adapt.DefaultEpsilon)
	if rec.Timings != nil && rec.Timings.C > 0 {
		tracker.SeedC(rec.Timings.C)
	}
	return tracker
}

// WorkerReport describes one parallel worker's replay. Only workers that
// claimed work report: one that was granted its slot after the others had
// taken everything leaves no trace.
type WorkerReport struct {
	PID           int
	Segment       [2]int // first lease claimed, [start, end) at claim time
	InitFrom      int    // first iteration replayed in init mode for it
	Stolen        int    // leases acquired by stealing
	Logs          []string
	SetupNs       int64
	InitNs        int64
	WorkNs        int64
	RestoreNs     int64
	Restored      int
	RestoredBytes int64 // logical checkpoint bytes loaded by this worker
	Executed      int
	// Fetch attributes the worker's restored bytes to store fetch tiers
	// (scatter/ranged/cache/remote/cache-tier/singleflight). Zero
	// unless the replay was traced.
	Fetch store.FetchSnapshot
}

// Result is the outcome of a replay.
type Result struct {
	Probes    map[string]bool
	NewLabels map[string]bool
	Logs      []string // merged logs in iteration order
	Anomalies []runlog.Anomaly
	Workers   []WorkerReport
	Steals    int
	WallNs    int64
	// CFactor is the restore/materialize scaling factor after the replay:
	// the recording's prior refined by every restore this replay measured
	// (the cost-model feedback loop, paper §5.3.2).
	CFactor float64
}

// logSpan is the log output of one contiguous executed span of iterations;
// spans merge in start order, which is iteration order because claimed spans
// are disjoint. Tail output rides in the span that ends at the last
// iteration, which necessarily has the largest start.
type logSpan struct {
	start int
	lines []string
}

// mergeSpans flattens spans into one log in iteration order.
func mergeSpans(spans []logSpan) []string {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var out []string
	for _, s := range spans {
		out = append(out, s.lines...)
	}
	return out
}

// MaxSpeedup returns the best achievable parallel speedup for n iterations
// over g workers: n / ⌈n/g⌉ (paper §6.3: 200 epochs on 16 GPUs → 15.38×).
func MaxSpeedup(n, g int) float64 {
	if n <= 0 || g <= 0 {
		return 0
	}
	per := (n + g - 1) / g
	return float64(n) / float64(per)
}

// Replay performs a hindsight-logging replay of a recorded run. factory must
// build a fresh instance of the (possibly probed) program on every call;
// each worker gets its own instance, environment, and SkipBlock runtime —
// fresh, or taken from opts.Park.
func Replay(rec *Recording, factory func() *script.Program, opts Options) (*Result, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	env, probeProgram, err := newReplayEnv(rec, factory, opts)
	if err != nil {
		return nil, err
	}
	n := probeProgram.Main.Iters
	diff, tracker := env.diff, env.tracker
	priorC := tracker.C()
	costs, anchors := rec.plan(probeProgram, diff)
	// Every worker queues for its slot at the same price, the modeled
	// per-worker share of the replay: which lease a worker will run is
	// only decided once it holds the slot.
	env.slotCostNs = costs.SetupNs + costs.WorkCostNs(0, n)/int64(opts.Workers)

	x := sched.NewExecutor(costs,
		sched.PartitionBalancedAnchored(costs, opts.Workers, opts.Init, anchors), anchors)
	// Feedback: steal profitability rescales modeled catch-up by how far the
	// measured restore/materialize factor has drifted from the prior the
	// cost model was priced with. The scale is clamped: measured restores
	// are biased cheap when they hit the payload cache, while a stolen
	// lease's catch-up restores uncached content at full cost, so one
	// replay's drift may adjust — but never invert — the profit rule.
	x.SetRestoreScale(func() float64 {
		if priorC <= 0 {
			return 1
		}
		scale := tracker.C() / priorC
		if scale < 0.5 {
			scale = 0.5
		} else if scale > 2 {
			scale = 2
		}
		return scale
	})

	res := &Result{Probes: diff.Probes, NewLabels: diff.NewLabels}
	t0 := time.Now()
	spans, err := replayLeases(env, x, n, res)
	if err != nil {
		env.retire(false)
		return nil, err
	}
	res.WallNs = time.Since(t0).Nanoseconds()
	res.Steals = x.Steals()
	res.CFactor = tracker.C()
	res.Logs = mergeSpans(spans)
	if !opts.SkipDeferredCheck {
		res.Anomalies = runlog.DeferredCheck(rec.RecordLog, res.Logs, diff.NewLabels)
	}
	env.retire(true)
	obs.C(obs.MReplayReplays).Inc()
	recordReplayMetrics(n, res.Workers)
	return res, nil
}

// newReplayEnv builds what a full replay and a sample share: the probed
// program's diff against the recording (returning the instance it diffed,
// which the first worker to miss the park sets up), the recording's memoized
// loop/anchor table, and one adaptive tracker. The
// tracker is shared by the scheduler's cost model and every worker: restores
// measured early refine the restore/materialize factor c mid-replay
// (skipblock.restore → adapt.NoteRestore), and the executor reprices later
// catch-up estimates through it (cost-model feedback, paper §5.3.2).
func newReplayEnv(rec *Recording, factory func() *script.Program, opts Options) (*replayEnv, *script.Program, error) {
	p, diff, err := diffProbed(rec, factory)
	if err != nil {
		return nil, nil, err
	}
	if opts.Park != nil && opts.Park.rec != rec {
		return nil, nil, fmt.Errorf("replay: park belongs to another recording")
	}
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	return &replayEnv{rec: rec, factory: factory, diff: diff, tracker: rec.newTracker(),
		st: rec.schedStateFor(p), opts: opts, spare: p}, p, nil
}

// diffProbed builds one instance of the probed program and diffs it against
// the recording.
func diffProbed(rec *Recording, factory func() *script.Program) (*script.Program, *script.DiffResult, error) {
	p := factory()
	diff, err := script.DiffHindsight(rec.Shape, p)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	if p.Main == nil {
		return nil, nil, fmt.Errorf("replay: program has no main loop")
	}
	return p, diff, nil
}

// recordReplayMetrics folds a finished query's worker reports — a replay's,
// or a sample's one — into the metrics registry (no-op handles while
// disabled; one resolution per query, off the hot iteration path).
func recordReplayMetrics(iterations int, workers []WorkerReport) {
	obs.C(obs.MReplayIterations).Add(int64(iterations))
	restoreNs := obs.C(obs.MReplayRestoreNs)
	workNs := obs.C(obs.MReplayWorkNs)
	busyNs := obs.C(obs.MReplayWorkerBusyNs)
	restored := obs.C(obs.MReplayRestoredCheckpoints)
	restoredBytes := obs.C(obs.MReplayRestoredBytes)
	for _, wr := range workers {
		restoreNs.Add(wr.RestoreNs)
		workNs.Add(wr.WorkNs)
		busyNs.Add(wr.SetupNs + wr.InitNs + wr.WorkNs)
		restored.Add(int64(wr.Restored))
		restoredBytes.Add(wr.RestoredBytes)
	}
}

// replayEnv bundles the per-query state every worker shares.
type replayEnv struct {
	rec        *Recording
	factory    func() *script.Program
	diff       *script.DiffResult
	tracker    *adapt.Tracker
	st         *schedState
	opts       Options // Ctx never nil
	slotCostNs int64

	// mu guards spare, the diffed instance no worker has set up yet, and
	// used, every program a worker of this query set up or took.
	mu    sync.Mutex
	spare *script.Program
	used  []*program
}

// fresh returns an instance of the program nobody has set up: the diffed
// one first, then the factory's.
func (env *replayEnv) fresh() *script.Program {
	env.mu.Lock()
	p := env.spare
	env.spare = nil
	env.mu.Unlock()
	if p == nil {
		p = env.factory()
	}
	return p
}

// retire ends the query's hold on its programs once every worker of it has
// exited. A query that succeeded hands them to the park — unless its context
// ended meanwhile: a cancelled query parks nothing — and every program the
// park does not keep gives its recycled buffers back (release).
func (env *replayEnv) retire(ok bool) {
	rest := env.used
	if ok && env.opts.Ctx.Err() == nil {
		rest = env.opts.Park.put(env.used)
	}
	release(rest)
	env.used = nil
}

// iterKeys returns the checkpoint keys the instrumented loops materialize
// during main-loop iteration e — the unit of anchoring and restore pricing.
func (st *schedState) iterKeys(e int) []store.Key {
	var keys []store.Key
	for _, id := range st.ids {
		m := st.mult[id]
		for x := e * m; x < (e+1)*m; x++ {
			keys = append(keys, store.Key{LoopID: id, Exec: x})
		}
	}
	return keys
}

// acquireSlot blocks until the shared slot source grants a slot or ctx is
// done (no-op without a source). Callers must releaseSlot on success. Traced
// replays record the wait as a "slot_wait" span, so queue time is visible per
// worker.
func (env *replayEnv) acquireSlot(ctx context.Context, pid int) error {
	if env.opts.Slots == nil {
		return nil
	}
	tr := env.opts.Trace
	t0 := tr.Now()
	w0 := time.Now()
	err := env.opts.Slots.Acquire(ctx, env.slotCostNs)
	if tr != nil && err == nil {
		tr.Add(obs.Span{Name: "slot_wait", Worker: pid, StartNs: t0,
			DurNs: time.Since(w0).Nanoseconds()})
	}
	return err
}

func (env *replayEnv) releaseSlot() {
	if env.opts.Slots != nil {
		env.opts.Slots.Release()
	}
}

// replayLeases starts opts.Workers interchangeable workers over the executor
// and waits for them. A worker first acquires its slot and only then claims
// work, so however few slots the source grants, the workers that do run take
// the leases in order and nobody sets up a program to find its share gone.
// Once every iteration has been handed out, workers still queued for a slot
// are released from the queue: the replay ends when its work does.
func replayLeases(env *replayEnv, x *sched.Executor, n int, res *Result) ([]logSpan, error) {
	g := env.opts.Workers
	ctx, cancel := context.WithCancel(env.opts.Ctx)
	defer cancel()
	reports := make([]*WorkerReport, g)
	workerSpans := make([][]logSpan, g)
	errs := make([]error, g)
	var wg sync.WaitGroup
	for pid := 0; pid < g; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			if err := env.acquireSlot(ctx, pid); err != nil {
				if !x.Exhausted() {
					errs[pid] = err
				}
				return
			}
			defer env.releaseSlot()
			reports[pid], workerSpans[pid], errs[pid] = workerLoop(env, x, pid, n)
			if x.Exhausted() {
				cancel()
			}
		}(pid)
	}
	wg.Wait()
	var spans []logSpan
	for pid := range reports {
		if errs[pid] != nil {
			return nil, errs[pid]
		}
		if reports[pid] != nil {
			res.Workers = append(res.Workers, *reports[pid])
			spans = append(spans, workerSpans[pid]...)
		}
	}
	return spans, nil
}

// worker bundles one replay worker's per-process state. Each worker is its
// own process in the paper; here, its own program instance, environment,
// tracker and SkipBlock runtime over the shared (read-only) checkpoint
// store. Its lifecycle: construction + setup, then per span (a lease of a
// full replay, one sampled iteration of a sample) initTo and work, and the
// tail after the span that ends the loop.
type worker struct {
	p      *script.Program
	rt     *skipblock.Runtime
	mult   map[string]int // the recording's memoized executions per main iteration
	ctx    *script.Ctx
	pid    int
	report *WorkerReport
	tr     *obs.Trace // nil when the replay is untraced
}

// newWorker gives a worker its program as of the end of phase 1, every
// statement before the main loop (imports, data loading, model construction
// — §5.4.2 "the first part"): a parked program rebound to look fresh, or,
// when the park has none, a fresh instance whose setup runs here. Workers
// share the query's tracker (restore observations feed the scheduler's cost
// model) and, when configured, a cross-query payload cache. A replay never
// records, so the SkipBlock runtime gets no materializer.
func newWorker(env *replayEnv, pid int) (*worker, error) {
	t0 := env.opts.Trace.Now()
	s0 := time.Now()
	w := &worker{mult: env.st.mult, pid: pid, report: &WorkerReport{PID: pid}, tr: env.opts.Trace}
	prog, setup := env.opts.Park.take()
	var penv *script.Env
	if prog != nil {
		w.p, w.rt, penv = prog.p, prog.rt, prog.env
		penv.Reset(prog.setup)
		w.rt.Reset(env.tracker, env.opts.Cache)
		w.rt.BindSetup(penv, setup)
	} else {
		w.p, penv = env.fresh(), script.NewEnv()
		w.rt = skipblock.NewRuntime(w.p, env.tracker, nil, env.rec.Store)
		w.rt.SetCache(env.opts.Cache)
	}
	w.rt.SetTrace(env.opts.Trace, pid)
	w.rt.SetProbes(env.diff.Probes)
	w.ctx = &script.Ctx{Env: penv, LoopHook: w.rt.Hook}
	parked := int64(1)
	if prog == nil {
		parked = 0
		claims := tensor.NewClaims()
		if err := script.ExecStmts(w.ctx, w.p.Setup); err != nil {
			return nil, fmt.Errorf("replay: worker %d setup: %w", pid, err)
		}
		prog = &program{p: w.p, rt: w.rt, env: penv, claims: claimTensors(claims, penv)}
		prog.setup, prog.parkable = env.opts.Park.admit(w.p, penv)
	}
	env.mu.Lock()
	env.used = append(env.used, prog)
	env.mu.Unlock()
	w.report.SetupNs = time.Since(s0).Nanoseconds()
	if w.tr != nil {
		w.tr.Add(obs.Span{Name: "setup", Worker: pid, StartNs: t0, DurNs: w.report.SetupNs,
			Attrs: map[string]int64{"parked": parked}})
	}
	return w, nil
}

// initTo restores the program state at iteration start by replaying
// [initFrom, start) in SkipBlock init mode. Log output is suppressed: init
// iterations belong to other workers' segments. Block execution counters
// are repositioned first, so initTo is correct from any current position
// (a worker moving to a non-adjacent span re-initializes mid-replay).
func (w *worker) initTo(initFrom, start int) error {
	t0 := w.tr.Now()
	i0 := time.Now()
	w.rt.SetMode(skipblock.ModeReplayInit)
	for _, id := range w.rt.Blocks() {
		b, _ := w.rt.Block(id)
		b.SetExecIndex(initFrom * w.mult[id])
	}
	w.ctx.Log = nil
	for e := initFrom; e < start; e++ {
		w.ctx.Env.SetInt(w.p.Main.IterVar, e)
		if err := script.ExecStmts(w.ctx, w.p.Main.Body); err != nil {
			return fmt.Errorf("replay: worker %d init iteration %d: %w", w.pid, e, err)
		}
	}
	dur := time.Since(i0).Nanoseconds()
	w.report.InitNs += dur
	if w.tr != nil {
		w.tr.Add(obs.Span{Name: "init", Worker: w.pid, StartNs: t0, DurNs: dur,
			Attrs: map[string]int64{"from": int64(initFrom), "to": int64(start)}})
	}
	return nil
}

// runIteration executes one work iteration; the caller has set
// ModeReplayExec and log capture.
func (w *worker) runIteration(e int) error {
	w.ctx.Env.SetInt(w.p.Main.IterVar, e)
	if err := script.ExecStmts(w.ctx, w.p.Main.Body); err != nil {
		return fmt.Errorf("replay: worker %d iteration %d: %w", w.pid, e, err)
	}
	return nil
}

// beginWork switches to replay-execution mode and starts capturing the log
// lines of the span beginning at start. The returned func closes the span
// where it stopped: its time goes into the report, its lines into the
// worker's log, and the trace gets one "work" span.
func (w *worker) beginWork(start int) (*logSpan, func(end int, stolen bool)) {
	t0 := w.tr.Now()
	w0 := time.Now()
	w.rt.SetMode(skipblock.ModeReplayExec)
	span := &logSpan{start: start}
	w.ctx.Log = func(line string) { span.lines = append(span.lines, line) }
	return span, func(end int, stolen bool) {
		ns := time.Since(w0).Nanoseconds()
		w.report.WorkNs += ns
		if w.tr != nil {
			attrs := map[string]int64{"start": int64(start), "end": int64(end), "stolen": 0}
			if stolen {
				attrs["stolen"] = 1
			}
			w.tr.Add(obs.Span{Name: "work", Worker: w.pid, StartNs: t0, DurNs: ns, Attrs: attrs})
		}
		w.report.Logs = append(w.report.Logs, span.lines...)
	}
}

// runTail executes the post-loop statements.
func (w *worker) runTail() error {
	if err := script.ExecStmts(w.ctx, w.p.Tail); err != nil {
		return fmt.Errorf("replay: worker %d tail: %w", w.pid, err)
	}
	return nil
}

// finish folds every SkipBlock's counters into the report, emits the
// worker's closing trace span (restore vs step time, restored volume), and
// returns the report.
func (w *worker) finish() *WorkerReport {
	for _, id := range w.rt.Blocks() {
		b, _ := w.rt.Block(id)
		st := b.Stats()
		w.report.RestoreNs += st.RestoreNs
		w.report.Restored += st.Restored
		w.report.RestoredBytes += st.RestoredBytes
		w.report.Executed += st.Executed
	}
	w.report.Fetch = w.rt.FetchSnapshot()
	if w.tr != nil {
		attrs := make(map[string]int64, 7+store.FetchTiers)
		attrs["setup_ns"] = w.report.SetupNs
		attrs["init_ns"] = w.report.InitNs
		attrs["work_ns"] = w.report.WorkNs
		attrs["restore_ns"] = w.report.RestoreNs
		attrs["restored"] = int64(w.report.Restored)
		attrs["restored_bytes"] = w.report.RestoredBytes
		attrs["executed"] = int64(w.report.Executed)
		w.report.Fetch.Each(func(bytesKey, _ string, bytes, _ int64) { attrs[bytesKey] = bytes })
		w.tr.Add(obs.Span{Name: "worker", Worker: w.pid, StartNs: w.tr.Now(),
			DurNs: w.report.SetupNs + w.report.InitNs + w.report.WorkNs, Attrs: attrs})
	}
	return w.report
}

// workerLoop executes one worker holding a slot: claim a lease, set up once,
// then run leases until the executor has nothing left for it. A worker that
// finds nothing to claim returns nil before building its program. Before a
// lease whose start differs from the worker's current position, the worker
// initializes: its first lease as opts.Init says (strong from iteration 0,
// weak from the nearest anchored checkpoint), any later one always from the
// nearest anchored checkpoint — Claim only hands a state-carrying worker
// leases with one. The worker whose lease ends at the last iteration runs the
// program tail immediately, while its state is current.
func workerLoop(env *replayEnv, x *sched.Executor, pid, n int) (*WorkerReport, []logSpan, error) {
	lease := x.Claim(0)
	if lease == nil {
		return nil, nil, nil
	}
	w, err := newWorker(env, pid)
	if err != nil {
		return nil, nil, err
	}
	w.report.Segment[0], w.report.Segment[1] = lease.Bounds()

	var spans []logSpan
	pos := 0 // the main-loop iteration the program state currently sits at
	for first := true; lease != nil; first, lease = false, x.Claim(pos) {
		if lease.Stolen() {
			w.report.Stolen++
		}
		start := lease.Start()
		if start != pos {
			initFrom := 0
			if !first || env.opts.Init == Weak {
				initFrom = sched.AnchorBefore(env.st.anchors, start-1)
			}
			if first {
				w.report.InitFrom = initFrom
			}
			if err := w.initTo(initFrom, start); err != nil {
				return nil, nil, err
			}
		}

		// Work phase: claim iterations until the lease is exhausted (either
		// finished or stolen down to the worker's position).
		span, endWork := w.beginWork(start)
		for {
			e, ok := lease.Next()
			if !ok {
				break
			}
			it0 := time.Now()
			if err := w.runIteration(e); err != nil {
				return nil, nil, err
			}
			// Feed the measured iteration time back into the executor: steal
			// profitability then weighs real per-iteration work (including
			// the restore cost actually paid) against catch-up, instead of
			// trusting the recording-derived estimate for the whole replay.
			x.NoteIterDone(e, time.Since(it0).Nanoseconds())
		}
		_, end := lease.Bounds()
		pos = end
		// The lease reaching the loop's end is unique (ends only move by
		// splitting); its owner runs the tail while positioned at n.
		if end == n {
			if err := w.runTail(); err != nil {
				return nil, nil, err
			}
		}
		endWork(end, lease.Stolen())
		spans = append(spans, *span)
	}
	return w.finish(), spans, nil
}

// newSchedState derives a recording's scheduling state: the IDs of the
// program's memoizable nested loops, sorted, with their executions per
// main-loop iteration — the loops whose checkpoints drive anchoring and
// restore-cost estimates — and, sorted, every anchored main-loop iteration:
// one whose instrumented loops all have a materialized checkpoint for each of
// their executions during it. Those are the iterations weak initialization
// and sampling can jump to and stealing can re-initialize from. A program
// with no instrumented loops anchors nothing (there are no checkpoints to
// restore).
func newSchedState(ckpts *store.Store, p *script.Program) *schedState {
	st := &schedState{mult: map[string]int{}, anchors: []int{}}
	st.ids = skipblock.NewRuntime(p, adapt.New(0), nil, ckpts).Blocks()
	sort.Strings(st.ids)
	for _, id := range st.ids {
		st.mult[id] = skipblock.ExecsPerMainIteration(p, id)
	}
	if len(st.ids) == 0 || p.Main == nil {
		return st
	}
iterations:
	for e := 0; e < p.Main.Iters; e++ {
		for _, k := range st.iterKeys(e) {
			if !ckpts.Has(k) {
				continue iterations
			}
		}
		st.anchors = append(st.anchors, e)
	}
	return st
}

// schedCosts derives the scheduler's cost model for this replay from the
// recording. Work costs come from the record phase's per-iteration timings
// when the inner loop is probed (it re-executes), and from restore estimates
// otherwise; catch-up costs are restore estimates on anchored iterations and
// re-execution costs elsewhere (the sparse-checkpoint fallback). Restore
// times are predicted from materialization times through the restore/
// materialize scaling factor the record phase measured (§5.3.2, persisted
// with the timings). Recordings made before timing capture fall back to
// checkpoint metadata, and to a uniform model when no cost data exists.
// Restores are priced by a fresh tracker at the recording's c prior, the
// one every query's tracker starts from before its workers refine it.
func schedCosts(rec *Recording, p *script.Program, st *schedState, probed bool) *sched.Costs {
	n := p.Main.Iters
	tracker := rec.newTracker()

	// Per-iteration compute — recorded wall times, else store metadata — and
	// restore estimate from materialization metadata.
	comput := make([]int64, n)
	restore := make([]int64, n)
	timed := rec.Timings != nil && len(rec.Timings.IterNs) == n
	if timed {
		copy(comput, rec.Timings.IterNs)
	}
	var sum, cnt int64
	for e := 0; e < n; e++ {
		for _, k := range st.iterKeys(e) {
			meta, ok := rec.Store.Lookup(k)
			if !ok {
				continue
			}
			// Price each loop's restores with its own c estimate: nested
			// loops can sit far apart in restore/materialize ratio, and the
			// balanced partition skews when one global factor prices both.
			restore[e] += tracker.PredictRestoreNsLoop(k.LoopID, meta.MaterNs)
			if !timed && meta.ComputNs > 0 {
				comput[e] += meta.ComputNs
			}
		}
		if comput[e] > 0 {
			sum += comput[e]
			cnt++
		}
	}
	if !timed && cnt > 0 {
		mean := sum / cnt
		for e := range comput {
			if comput[e] == 0 {
				comput[e] = mean
			}
		}
	}

	anchored := make(map[int]bool, len(st.anchors))
	for _, a := range st.anchors {
		anchored[a] = true
	}
	c := &sched.Costs{WorkNs: make([]int64, n), CatchupNs: make([]int64, n)}
	if rec.Timings != nil {
		c.SetupNs = rec.Timings.SetupNs
	}
	var total int64
	for e := 0; e < n; e++ {
		if anchored[e] {
			c.CatchupNs[e] = restore[e]
		} else {
			c.CatchupNs[e] = comput[e]
		}
		if probed {
			c.WorkNs[e] = comput[e]
		} else {
			c.WorkNs[e] = c.CatchupNs[e]
		}
		total += c.WorkNs[e]
	}
	if total == 0 {
		// No usable cost data: uniform work costs, so the partition is the
		// uniform ⌈n/G⌉ split and steals split by count.
		for e := range c.WorkNs {
			c.WorkNs[e] = 1
		}
	}
	return c
}
