// Package replay implements Flor's replay phase: probe discovery by source
// diff, partial replay through SkipBlocks, and hindsight parallelism via the
// Flor generator (paper §3.2, §5.4).
//
// A replay partitions the main loop's iterator into contiguous segments
// (internal/sched owns the partitioners and the work-stealing executor).
// Every worker executes the same instrumented program from the beginning:
// setup runs logically (imports, data loading, model construction), then the
// generator drives the main loop through two phases —
//
//	init_sgmnt: iterations replayed in SkipBlock initialization mode, which
//	            skips nested loops by restoring their Loop End Checkpoints.
//	            Strong initialization covers every iteration before the
//	            worker's segment; weak initialization jumps to the nearest
//	            materialized checkpoint at or before segment start.
//	work_sgmnt: the worker's own iterations in replay-execution mode, where
//	            probed loops re-execute (producing the hindsight logs) and
//	            unprobed loops restore.
//
// Workers share nothing and never communicate beyond the lease bookkeeping
// of the stealing scheduler; each executed span of iterations carries its
// own log lines, and spans are merged in iteration order before the merged
// log is diffed against the record log (deferred correctness check, §5.2.2).
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
)

// InitMode selects the worker initialization strategy (paper §5.4.2); it is
// the scheduler's Init so replay and the cluster simulator price it alike.
type InitMode = sched.Init

// Strong initialization replays every iteration preceding the work segment
// in init mode (the default: its correctness follows from the correctness of
// loop memoization). Weak initialization jumps to the checkpoint nearest the
// segment start.
const (
	Strong = sched.Strong
	Weak   = sched.Weak
)

// Scheduler selects how main-loop iterations are distributed over workers.
type Scheduler = sched.Policy

// Replay scheduling policies.
const (
	// SchedStatic assigns uniform contiguous segments statically (the
	// original Flor generator partitioning).
	SchedStatic = sched.Static
	// SchedBalanced balances segments by recorded per-iteration cost and
	// snaps boundaries to materialized checkpoints.
	SchedBalanced = sched.Balanced
	// SchedStealing additionally lets idle workers steal the trailing half
	// of the heaviest remaining segment, re-initializing from the nearest
	// checkpoint.
	SchedStealing = sched.Stealing
)

// Options configures a replay.
type Options struct {
	// Workers is the degree of hindsight parallelism G (default 1).
	Workers int
	// Init selects strong or weak worker initialization.
	Init InitMode
	// Scheduler selects the segment scheduling policy (default SchedStatic).
	Scheduler Scheduler
	// SkipDeferredCheck disables the record/replay log diff (used by
	// benchmarks that measure pure replay latency).
	SkipDeferredCheck bool
	// Slots, when non-nil, gates every replay worker on a shared slot
	// source (normally a sched.Pool shared across concurrent queries in a
	// serving daemon). Each worker holds one slot for its whole lifetime —
	// setup, initialization, work — so the source's global budget bounds
	// actual parallelism across replays regardless of each query's Workers.
	// Nil means unlimited (the single-replay library default).
	Slots sched.SlotSource
	// Ctx bounds slot waits (a daemon's queueing deadline); nil means
	// context.Background().
	Ctx context.Context
	// Cache, when non-nil, replaces each worker's private decoded-payload
	// cache with a shared one, so a run's restored content stays hot across
	// queries (and across the workers of one replay).
	Cache *backmat.PayloadCache
	// Trace, when non-nil, collects per-worker phase spans (setup, init,
	// work, and a closing per-worker summary carrying restore-vs-step time).
	// Nil disables tracing at zero cost.
	Trace *obs.Trace
	// Prefetch, when positive, enables plan-driven speculative readahead on
	// remote-backed stores: each worker hints the checkpoint keys of up to
	// Prefetch main-loop iterations ahead of its restore front, background
	// warm workers pull their chunk spans into the cache tier while the
	// worker initializes and executes, and lease steals cancel speculation
	// the victim no longer owns. Zero disables prefetching; stores whose
	// reads are local ignore it (warming a local store buys nothing).
	Prefetch int
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
		ids, mult := instrumentedLoops(rec.Store, p)
		rec.sched = &schedState{
			ids:     ids,
			mult:    mult,
			anchors: anchoredIterations(rec.Store, p, ids, mult),
		}
	}
	return rec.sched
}

// costsFor returns the memoized cost model for the probedInner variant.
// Cached costs are priced with the recording's persisted c prior, which
// every query's fresh tracker starts from, so the first and the hundredth
// query see the same model; sched.Costs is read-only to its consumers and
// safe to share across concurrent replays.
func (rec *Recording) costsFor(st *schedState, p *script.Program, probedInner bool, tracker *adapt.Tracker) *sched.Costs {
	idx := 0
	if probedInner {
		idx = 1
	}
	rec.schedMu.Lock()
	defer rec.schedMu.Unlock()
	if st.costs[idx] == nil {
		st.costs[idx] = schedCosts(rec, p, st.ids, st.mult, st.anchors, probedInner, tracker)
	}
	return st.costs[idx]
}

// WorkerReport describes one parallel worker's replay.
type WorkerReport struct {
	PID           int
	Segment       [2]int // initial [start, end) main-loop lease
	InitFrom      int    // first iteration replayed in init mode
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
	Scheduler Scheduler
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

// Partition splits n iterations into at most g contiguous segments whose
// sizes differ by at most one (the Flor generator's iterator partitioning,
// §5.4.1). Kept as the package's static-partition entry point; the balanced
// and stealing policies live in internal/sched.
func Partition(n, g int) [][2]int {
	return sched.PartitionStatic(n, g)
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
// each worker gets its own instance, environment, and SkipBlock runtime.
func Replay(rec *Recording, factory func() *script.Program, opts Options) (*Result, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	probeProgram := factory()
	diff, err := script.DiffHindsight(rec.Shape, probeProgram)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if probeProgram.Main == nil {
		return nil, fmt.Errorf("replay: program has no main loop")
	}
	n := probeProgram.Main.Iters

	// One adaptive tracker is shared by the scheduler's cost model and
	// every worker of this replay: restores measured by early segments
	// refine the restore/materialize factor c mid-replay
	// (skipblock.restore → adapt.NoteRestore), and the stealing executor
	// reprices later catch-up estimates through it (cost-model feedback,
	// paper §5.3.2).
	tracker := adapt.New(adapt.DefaultEpsilon)
	if rec.Timings != nil && rec.Timings.C > 0 {
		tracker.SeedC(rec.Timings.C)
	}
	priorC := tracker.C()

	// Anchors matter only to weak initialization and the non-static
	// schedulers; the cost model also prices slot requests whenever a
	// shared slot source is in play (its waiters are ordered by estimated
	// cost, which must be comparable across concurrent queries). The
	// default static/strong library path skips the store scans entirely.
	anchors := make([]int, 0)
	var costs *sched.Costs
	if opts.Init == Weak || opts.Scheduler != SchedStatic || opts.Slots != nil {
		st := rec.schedStateFor(probeProgram)
		anchors = st.anchors
		if opts.Scheduler != SchedStatic || opts.Slots != nil {
			// Work iterations re-execute at compute cost only when an
			// instrumented (restorable) loop itself is probed; an outer-only
			// probe leaves every nested loop restoring, so work is priced as
			// catch-up.
			probedInner := false
			for _, id := range st.ids {
				if diff.Probes[id] {
					probedInner = true
				}
			}
			costs = rec.costsFor(st, probeProgram, probedInner, tracker)
		}
	}

	env := &replayEnv{
		rec: rec, factory: factory, diff: diff, tracker: tracker, priorC: priorC,
		costs: costs, anchors: anchors, opts: opts, ctx: opts.Ctx,
	}
	if env.ctx == nil {
		env.ctx = context.Background()
	}
	if opts.Prefetch > 0 {
		// NewPrefetcher returns nil for local stores, and a nil prefetcher
		// no-ops everywhere, so the local path stays exactly as before.
		st := rec.schedStateFor(probeProgram)
		env.ids, env.mult = st.ids, st.mult
		env.prefetch = rec.Store.NewPrefetcher(0, opts.Trace)
		defer env.prefetch.Close()
	}

	res := &Result{Probes: diff.Probes, NewLabels: diff.NewLabels, Scheduler: opts.Scheduler}
	t0 := time.Now()
	var spans []logSpan
	if opts.Scheduler == SchedStealing && n > 0 {
		spans, err = replayStealing(env, n, res)
	} else {
		var segs [][2]int
		if opts.Scheduler == SchedBalanced {
			segs = sched.PartitionBalancedAnchored(costs, opts.Workers, opts.Init, anchors)
		} else {
			segs = sched.PartitionStatic(n, opts.Workers)
		}
		spans, err = replayStatic(env, segs, res)
	}
	if err != nil {
		return nil, err
	}
	res.WallNs = time.Since(t0).Nanoseconds()
	res.CFactor = tracker.C()
	res.Logs = mergeSpans(spans)
	if !opts.SkipDeferredCheck {
		res.Anomalies = runlog.DeferredCheck(rec.RecordLog, res.Logs, diff.NewLabels)
	}
	recordReplayMetrics(n, res)
	return res, nil
}

// recordReplayMetrics folds a finished replay into the metrics registry
// (no-op handles while disabled; one resolution per replay, off the hot
// iteration path).
func recordReplayMetrics(n int, res *Result) {
	obs.C(obs.MReplayReplays).Inc()
	obs.C(obs.MReplayIterations).Add(int64(n))
	restoreNs := obs.C(obs.MReplayRestoreNs)
	workNs := obs.C(obs.MReplayWorkNs)
	busyNs := obs.C(obs.MReplayWorkerBusyNs)
	restored := obs.C(obs.MReplayRestoredCheckpoints)
	restoredBytes := obs.C(obs.MReplayRestoredBytes)
	for _, wr := range res.Workers {
		restoreNs.Add(wr.RestoreNs)
		workNs.Add(wr.WorkNs)
		busyNs.Add(wr.SetupNs + wr.InitNs + wr.WorkNs)
		restored.Add(int64(wr.Restored))
		restoredBytes.Add(wr.RestoredBytes)
	}
}

// replayEnv bundles the per-replay state both scheduling paths thread
// through their workers.
type replayEnv struct {
	rec     *Recording
	factory func() *script.Program
	diff    *script.DiffResult
	tracker *adapt.Tracker
	priorC  float64
	costs   *sched.Costs
	anchors []int
	opts    Options
	ctx     context.Context
	// Plan-driven readahead state (nil/empty unless opts.Prefetch > 0 and
	// the recording's store reads remotely): the instrumented loop set and
	// multiplicities translate iteration plans into checkpoint keys for the
	// shared prefetcher.
	prefetch *store.Prefetcher
	ids      []string
	mult     map[string]int
}

// iterKeys returns the checkpoint keys the instrumented loops materialize
// during main-loop iteration e — the unit of prefetch planning.
func (env *replayEnv) iterKeys(e int) []store.Key {
	var keys []store.Key
	for _, id := range env.ids {
		m := env.mult[id]
		for x := e * m; x < (e+1)*m; x++ {
			keys = append(keys, store.Key{LoopID: id, Exec: x})
		}
	}
	return keys
}

// claimIter tells the prefetcher the restore front reached iteration e.
func (env *replayEnv) claimIter(e int) {
	if env.prefetch == nil {
		return
	}
	for _, k := range env.iterKeys(e) {
		env.prefetch.Claim(k)
	}
}

// hintIters enqueues the given iterations' checkpoint keys for warming.
// Re-hinting already-planned keys is free, so callers push their whole
// current horizon every time it moves.
func (env *replayEnv) hintIters(iters []int) {
	if env.prefetch == nil || len(iters) == 0 {
		return
	}
	var keys []store.Key
	for _, e := range iters {
		keys = append(keys, env.iterKeys(e)...)
	}
	env.prefetch.Hint(keys...)
}

// hintIterRange hints [start, end) — the static scheduler's fixed-window
// equivalent of a stealing lease's horizon.
func (env *replayEnv) hintIterRange(start, end int) {
	if env.prefetch == nil || start >= end {
		return
	}
	iters := make([]int, 0, end-start)
	for e := start; e < end; e++ {
		iters = append(iters, e)
	}
	env.hintIters(iters)
}

// cancelIters drops speculation for iterations the plan no longer owns
// (the stolen span of a lease).
func (env *replayEnv) cancelIters(start, end int) {
	if env.prefetch == nil {
		return
	}
	var keys []store.Key
	for e := start; e < end; e++ {
		keys = append(keys, env.iterKeys(e)...)
	}
	env.prefetch.Cancel(keys...)
}

// slotCost estimates one worker's total modeled cost (setup + init + work)
// for slot-queue ordering; zero when no cost model exists.
func (env *replayEnv) slotCost(seg [2]int) int64 {
	if env.costs == nil {
		return 0
	}
	return env.costs.SetupNs +
		env.costs.InitCostNs(seg[0], env.opts.Init, env.anchors) +
		env.costs.WorkCostNs(seg[0], seg[1])
}

// acquireSlot blocks until the shared slot source grants a slot (no-op
// without one). Callers must releaseSlot on success. Traced replays record
// the wait as a "slot_wait" span, so queue time is visible per worker.
func (env *replayEnv) acquireSlot(seg [2]int, pid int) error {
	if env.opts.Slots == nil {
		return nil
	}
	tr := env.opts.Trace
	t0 := tr.Now()
	w0 := time.Now()
	err := env.opts.Slots.Acquire(env.ctx, env.slotCost(seg))
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

// replayStatic runs one worker per segment with static assignment (the
// SchedStatic and SchedBalanced policies). With a shared slot source, each
// worker first acquires a slot priced at its segment's modeled cost;
// segments are independent, so workers serialized by a tight budget still
// complete.
func replayStatic(env *replayEnv, segs [][2]int, res *Result) ([]logSpan, error) {
	res.Workers = make([]WorkerReport, len(segs))
	spans := make([]logSpan, len(segs))
	var wg sync.WaitGroup
	errs := make([]error, len(segs))
	for pid := range segs {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			if err := env.acquireSlot(segs[pid], pid); err != nil {
				errs[pid] = err
				return
			}
			defer env.releaseSlot()
			report, err := runWorker(env, segs[pid], pid, pid == len(segs)-1)
			if err != nil {
				errs[pid] = err
				return
			}
			res.Workers[pid] = *report
			spans[pid] = logSpan{start: segs[pid][0], lines: report.Logs}
		}(pid)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return spans, nil
}

// replayStealing runs opts.Workers workers over a shared lease executor
// seeded with the balanced partition (the SchedStealing policy).
func replayStealing(env *replayEnv, n int, res *Result) ([]logSpan, error) {
	opts := env.opts
	g := opts.Workers
	if g > n {
		g = n
	}
	segs := sched.PartitionBalancedAnchored(env.costs, g, opts.Init, env.anchors)
	x := sched.NewExecutor(env.costs, segs, env.anchors)
	// Feedback: steal profitability rescales modeled catch-up by how far the
	// measured restore/materialize factor has drifted from the prior the
	// cost model was priced with. The scale is clamped: measured restores
	// are biased cheap when they hit the payload cache, while a stolen
	// lease's catch-up restores uncached content at full cost, so one
	// replay's drift may adjust — but never invert — the profit rule.
	x.SetRestoreScale(func() float64 {
		if env.priorC <= 0 {
			return 1
		}
		scale := env.tracker.C() / env.priorC
		if scale < 0.5 {
			scale = 0.5
		} else if scale > 2 {
			scale = 2
		}
		return scale
	})
	if env.prefetch != nil {
		// A successful steal invalidates the victim's speculation for the
		// stolen span; the thief re-hints what it still wants when it plans
		// its own horizon (Hint revives a cancelled-but-queued key).
		x.SetOnSteal(func(victimEnd, stolenStart, stolenEnd int) {
			env.cancelIters(stolenStart, stolenEnd)
		})
	}

	res.Workers = make([]WorkerReport, g)
	workerSpans := make([][]logSpan, g)
	var wg sync.WaitGroup
	errs := make([]error, g)
	for pid := 0; pid < g; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			seg := [2]int{0, 0}
			if pid < len(segs) {
				seg = segs[pid]
			}
			if err := env.acquireSlot(seg, pid); err != nil {
				errs[pid] = err
				return
			}
			defer env.releaseSlot()
			report, spans, err := runStealingWorker(env, x, pid, n)
			if err != nil {
				errs[pid] = err
				return
			}
			res.Workers[pid] = *report
			workerSpans[pid] = spans
		}(pid)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Steals = x.Steals()
	var spans []logSpan
	for _, ws := range workerSpans {
		spans = append(spans, ws...)
	}
	return spans, nil
}

// worker bundles one replay worker's per-process state. Each worker is its
// own process in the paper; here, its own program instance, environment,
// tracker and SkipBlock runtime over the shared (read-only) checkpoint
// store. Both scheduling paths (static segments and stealing leases) share
// this lifecycle: construction + setup, initTo, work iterations, tail.
type worker struct {
	p      *script.Program
	rt     *skipblock.Runtime
	mat    *backmat.Materializer
	ctx    *script.Ctx
	pid    int
	report *WorkerReport
	tr     *obs.Trace // nil when the replay is untraced
}

// newWorker builds a worker and runs phase 1: every statement before the
// main loop (imports, data loading, model construction — §5.4.2 "the first
// part"). Callers must close() the worker. Workers share the replay's
// tracker (restore observations feed the scheduler's cost model) and, when
// configured, a cross-query payload cache.
func newWorker(env *replayEnv, pid int) (*worker, error) {
	p := env.factory()
	mat := backmat.New(env.rec.Store, backmat.Fork)
	rt := skipblock.NewRuntime(p, env.tracker, mat, env.rec.Store)
	rt.SetCache(env.opts.Cache)
	rt.SetTrace(env.opts.Trace, pid)
	rt.SetProbes(env.diff.Probes)
	w := &worker{
		p: p, rt: rt, mat: mat, pid: pid,
		ctx:    &script.Ctx{Env: script.NewEnv(), LoopHook: rt.Hook},
		report: &WorkerReport{PID: pid},
		tr:     env.opts.Trace,
	}
	t0 := w.tr.Now()
	s0 := time.Now()
	if err := script.ExecStmts(w.ctx, p.Setup); err != nil {
		mat.Close()
		return nil, fmt.Errorf("replay: worker %d setup: %w", pid, err)
	}
	w.report.SetupNs = time.Since(s0).Nanoseconds()
	w.tr.Add(obs.Span{Name: "setup", Worker: pid, StartNs: t0, DurNs: w.report.SetupNs})
	return w, nil
}

func (w *worker) close() { w.mat.Close() }

// initTo restores the program state at iteration start by replaying
// [initFrom, start) in SkipBlock init mode. Log output is suppressed: init
// iterations belong to other workers' segments. Block execution counters
// are repositioned first, so initTo is correct from any current position
// (the stealing path re-initializes mid-replay).
func (w *worker) initTo(initFrom, start int) error {
	t0 := w.tr.Now()
	i0 := time.Now()
	w.rt.SetMode(skipblock.ModeReplayInit)
	positionBlocks(w.p, w.rt, initFrom)
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
		attrs := map[string]int64{
			"setup_ns":       w.report.SetupNs,
			"init_ns":        w.report.InitNs,
			"work_ns":        w.report.WorkNs,
			"restore_ns":     w.report.RestoreNs,
			"restored":       int64(w.report.Restored),
			"restored_bytes": w.report.RestoredBytes,
			"executed":       int64(w.report.Executed),
		}
		w.report.Fetch.Each(func(tier string, bytes, _ int64) { attrs[tier+"_bytes"] = bytes })
		w.tr.Add(obs.Span{Name: "worker", Worker: w.pid, StartNs: w.tr.Now(),
			DurNs: w.report.SetupNs + w.report.InitNs + w.report.WorkNs, Attrs: attrs})
	}
	return w.report
}

// runWorker executes one statically assigned worker: setup, initialization,
// work segment, and (for the last worker) the program tail.
func runWorker(env *replayEnv, seg [2]int, pid int, last bool) (*WorkerReport, error) {
	w, err := newWorker(env, pid)
	if err != nil {
		return nil, err
	}
	defer w.close()
	w.report.Segment = seg

	// Phase 2: initialization — strong catches up from 0, weak from the
	// nearest anchored checkpoint.
	initFrom := 0
	if env.opts.Init == Weak && seg[0] > 0 {
		initFrom = sched.AnchorBefore(env.anchors, seg[0]-1)
	}
	w.report.InitFrom = initFrom
	// Warm the segment's opening window while initialization replays toward
	// it; static segments never shrink, so no cancellation path is needed.
	hintEnd := seg[0] + env.opts.Prefetch
	if hintEnd > seg[1] {
		hintEnd = seg[1]
	}
	env.hintIterRange(seg[0], hintEnd)
	if seg[0] > 0 {
		if err := w.initTo(initFrom, seg[0]); err != nil {
			return nil, err
		}
	}

	// Phase 3: the work segment, in replay-execution mode with log capture.
	t0 := w.tr.Now()
	w0 := time.Now()
	w.rt.SetMode(skipblock.ModeReplayExec)
	lg := runlog.New()
	w.ctx.Log = lg.Append
	for e := seg[0]; e < seg[1]; e++ {
		env.claimIter(e)
		if next := e + 1 + env.opts.Prefetch; next <= seg[1] {
			env.hintIterRange(e+1, next)
		} else {
			env.hintIterRange(e+1, seg[1])
		}
		if err := w.runIteration(e); err != nil {
			return nil, err
		}
	}
	// The final worker also runs the tail (post-loop statements).
	if last {
		if err := w.runTail(); err != nil {
			return nil, err
		}
	}
	w.report.WorkNs = time.Since(w0).Nanoseconds()
	if w.tr != nil {
		w.tr.Add(obs.Span{Name: "work", Worker: pid, StartNs: t0, DurNs: w.report.WorkNs,
			Attrs: map[string]int64{"start": int64(seg[0]), "end": int64(seg[1])}})
	}
	w.report.Logs = lg.Lines()
	return w.finish(), nil
}

// runStealingWorker executes one worker of the stealing scheduler: setup
// once, then a loop of leases — the statically assigned one first, stolen
// remainders after. Before each lease whose start differs from the worker's
// current position, the worker re-initializes: from iteration 0 (strong,
// first lease only) or from the nearest anchored checkpoint (weak; always,
// for stolen leases). The worker whose final lease ends at the last
// iteration runs the program tail immediately, while its state is current.
func runStealingWorker(env *replayEnv, x *sched.Executor, pid, n int) (*WorkerReport, []logSpan, error) {
	w, err := newWorker(env, pid)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()

	var spans []logSpan
	pos := 0 // the main-loop iteration the program state currently sits at
	first := true
	lease := x.InitialLease(pid)
	if lease != nil {
		s, e := lease.Bounds()
		w.report.Segment = [2]int{s, e}
	}
	for {
		isStolen := false
		if lease == nil {
			var ok bool
			if lease, ok = x.Steal(); !ok {
				break
			}
			w.report.Stolen++
			isStolen = true
		}
		start := lease.Start()
		// Warm the lease's opening horizon while initialization replays
		// toward it — the window where speculative fetch overlaps catch-up
		// compute for free.
		env.hintIters(lease.Horizon(env.opts.Prefetch))

		// Initialization to the lease start. A lease adjacent to the
		// worker's current position needs none; otherwise stolen leases
		// always use weak (checkpoint-anchored) initialization — stealing
		// only targets splits with a reachable anchor. start==0 re-inits
		// only the block counters (the init loop is empty).
		if start != pos {
			initFrom := 0
			if !first || env.opts.Init == Weak {
				initFrom = sched.AnchorBefore(env.anchors, start-1)
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
		t0 := w.tr.Now()
		w0 := time.Now()
		w.rt.SetMode(skipblock.ModeReplayExec)
		span := logSpan{start: start}
		w.ctx.Log = func(line string) { span.lines = append(span.lines, line) }
		for {
			e, ok := lease.Next()
			if !ok {
				break
			}
			// The restore front reached e: settle its hints as used, slide
			// the speculation window to the lease's new horizon.
			env.claimIter(e)
			env.hintIters(lease.Horizon(env.opts.Prefetch))
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
		leaseNs := time.Since(w0).Nanoseconds()
		w.report.WorkNs += leaseNs
		if w.tr != nil {
			stolen := int64(0)
			if isStolen {
				stolen = 1
			}
			w.tr.Add(obs.Span{Name: "work", Worker: pid, StartNs: t0, DurNs: leaseNs,
				Attrs: map[string]int64{"start": int64(start), "end": int64(end), "stolen": stolen}})
		}
		spans = append(spans, span)
		w.report.Logs = append(w.report.Logs, span.lines...)
		lease = nil
		first = false
	}
	return w.finish(), spans, nil
}

// positionBlocks sets every SkipBlock's execution counter to its position at
// the start of main-loop iteration `epoch`.
func positionBlocks(p *script.Program, rt *skipblock.Runtime, epoch int) {
	for _, id := range rt.Blocks() {
		b, _ := rt.Block(id)
		mult := skipblock.ExecsPerMainIteration(p, id)
		b.SetExecIndex(epoch * mult)
	}
}

// instrumentedLoops returns the IDs of the program's memoizable nested
// loops, sorted, with their executions per main-loop iteration — the loops
// whose checkpoints drive anchoring and restore-cost estimates.
func instrumentedLoops(st *store.Store, p *script.Program) ([]string, map[string]int) {
	rt := skipblock.NewRuntime(p, adapt.New(0), nil, st)
	ids := rt.Blocks()
	sort.Strings(ids)
	mult := make(map[string]int, len(ids))
	for _, id := range ids {
		mult[id] = skipblock.ExecsPerMainIteration(p, id)
	}
	return ids, mult
}

// anchoredIterations returns, sorted, every main-loop iteration e whose
// instrumented loops all have materialized checkpoints for every execution
// during e — the iterations weak initialization can jump to and stealing can
// re-initialize from. A program with no instrumented loops anchors nothing
// (there are no checkpoints to restore).
func anchoredIterations(st *store.Store, p *script.Program, ids []string, mult map[string]int) []int {
	anchors := make([]int, 0)
	if len(ids) == 0 || p.Main == nil {
		return anchors
	}
	for e := 0; e < p.Main.Iters; e++ {
		if iterationAnchored(st, ids, mult, e) {
			anchors = append(anchors, e)
		}
	}
	return anchors
}

// iterationAnchored is the single definition of "anchored": every
// instrumented loop has a materialized checkpoint for each of its
// executions during main-loop iteration e. anchoredIterations (the
// scheduler) and weakAnchor (iteration sampling) both use it.
func iterationAnchored(st *store.Store, ids []string, mult map[string]int, e int) bool {
	for _, id := range ids {
		m := mult[id]
		for x := e * m; x < (e+1)*m; x++ {
			if !st.Has(store.Key{LoopID: id, Exec: x}) {
				return false
			}
		}
	}
	return true
}

// weakAnchor returns the largest main-loop iteration e ≤ target such that
// iteration e is anchored, so the whole iteration can be replayed by
// restoration alone. Falls back to 0 (strong initialization) when no such
// iteration exists.
func weakAnchor(st *store.Store, p *script.Program, rt *skipblock.Runtime, target int) int {
	ids := rt.Blocks()
	if len(ids) == 0 {
		return 0
	}
	mult := make(map[string]int, len(ids))
	for _, id := range ids {
		mult[id] = skipblock.ExecsPerMainIteration(p, id)
	}
	for e := target; e >= 0; e-- {
		if iterationAnchored(st, ids, mult, e) {
			return e
		}
	}
	return 0
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
// tracker prices restore predictions; Replay passes the shared per-replay
// tracker so the same c-factor prior prices scheduling and is later refined
// by the workers' measured restores.
func schedCosts(rec *Recording, p *script.Program, ids []string, mult map[string]int,
	anchors []int, probed bool, tracker *adapt.Tracker) *sched.Costs {

	n := p.Main.Iters

	// Per-iteration compute: recorded wall times, else store metadata.
	comput := make([]int64, n)
	if rec.Timings != nil && len(rec.Timings.IterNs) == n {
		copy(comput, rec.Timings.IterNs)
	} else {
		var sum, cnt int64
		for e := 0; e < n; e++ {
			for _, id := range ids {
				m := mult[id]
				for x := e * m; x < (e+1)*m; x++ {
					if meta, ok := rec.Store.Lookup(store.Key{LoopID: id, Exec: x}); ok && meta.ComputNs > 0 {
						comput[e] += meta.ComputNs
					}
				}
			}
			if comput[e] > 0 {
				sum += comput[e]
				cnt++
			}
		}
		if cnt > 0 {
			mean := sum / cnt
			for e := range comput {
				if comput[e] == 0 {
					comput[e] = mean
				}
			}
		}
	}

	// Per-iteration restore estimate from materialization metadata.
	restore := make([]int64, n)
	for e := 0; e < n; e++ {
		for _, id := range ids {
			m := mult[id]
			for x := e * m; x < (e+1)*m; x++ {
				if meta, ok := rec.Store.Lookup(store.Key{LoopID: id, Exec: x}); ok {
					// Price each loop's restores with its own c estimate:
					// nested loops can sit far apart in restore/materialize
					// ratio, and the balanced partition skews when one
					// global factor prices both.
					restore[e] += tracker.PredictRestoreNsLoop(id, meta.MaterNs)
				}
			}
		}
	}

	anchored := make(map[int]bool, len(anchors))
	for _, a := range anchors {
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
		// No usable cost data: uniform work costs so Balanced degenerates
		// to Static and Stealing splits by count.
		for e := range c.WorkNs {
			c.WorkNs[e] = 1
		}
	}
	return c
}
