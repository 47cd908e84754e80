package replay

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/sched"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
)

// SampleOptions configures a sampling replay for shared (daemon) use; the
// zero value is the standalone library behaviour.
type SampleOptions struct {
	// Cache shares decoded payloads with other queries over the same store.
	Cache *backmat.PayloadCache
	// Slots, when non-nil, gates the sample on one slot of a shared pool; a
	// sample's modeled cost is small, so the pool's cheapest-first ordering
	// lets it overtake queued full-replay workers.
	Slots sched.SlotSource
	// Ctx bounds the slot wait; nil means context.Background().
	Ctx context.Context
	// Park supplies and takes back the sample's program (see Options.Park).
	Park *Park
	// Trace, when non-nil, collects the worker's spans exactly like a full
	// replay's trace — slot wait, setup, init (the catch-up from anchor to
	// sampled point), one work span per sampled iteration, tier-attributed
	// restores, the worker summary. Nil disables tracing at zero cost.
	Trace *obs.Trace
}

// ErrSampleRange reports a requested sample iteration outside the recorded
// main loop — caller input, not a replay failure (the daemon maps it to a
// client error).
var ErrSampleRange = errors.New("replay: sampled iteration out of range")

// SampleResult is the outcome of a sampling replay.
type SampleResult struct {
	Iterations []int // the iterations replayed, sorted
	Logs       []string
	Probes     map[string]bool
	WallNs     int64
	// Restore accounting. Fetch attributes restored bytes to store fetch
	// tiers and is zero unless the sample was traced (SampleOptions.Trace).
	Restored      int
	RestoredBytes int64
	RestoreNs     int64
	Fetch         store.FetchSnapshot
}

// ReplaySample replays only the given main-loop iterations (paper §8,
// "Partial Replay: Search and Approximation"): the worker-initialization
// mechanism gives random access to any iteration, so a replay need not scan
// the whole past. A sample is a replay by one worker over one-iteration
// spans: where a span does not start at the worker's position the worker
// initializes from the nearest anchored checkpoint (weak initialization),
// then re-executes the iteration in replay-execution mode, producing its
// hindsight logs — that iteration's slice of a full replay's log, no tail.
//
// Iterations are deduplicated and visited in ascending order; out-of-range
// iterations are an error. The deferred log check is skipped: a sample's
// log stream is a subsequence of the record log by construction, which
// callers can verify with runlog.PartialDeferredCheck.
func ReplaySample(rec *Recording, factory func() *script.Program, iterations []int) (*SampleResult, error) {
	return ReplaySampleWith(rec, factory, iterations, SampleOptions{})
}

// ReplaySampleWith is ReplaySample with daemon plumbing: a shared payload
// cache and a shared slot source (see SampleOptions).
func ReplaySampleWith(rec *Recording, factory func() *script.Program, iterations []int, sopts SampleOptions) (*SampleResult, error) {
	return ReplaySampleStream(rec, factory, iterations, sopts, nil)
}

// ReplaySampleStream is ReplaySampleWith with incremental delivery: after
// each sampled iteration replays, emit receives the iteration index and its
// log lines — before the next iteration starts. Long multi-point queries
// (binary searches over hundreds of epochs) surface their first results
// immediately and bound the caller's buffering to one iteration; the
// serving daemon streams these chunks over HTTP instead of buffering the
// whole response. An emit error aborts the replay and is returned as-is. A
// nil emit degrades to the buffered behavior. The returned SampleResult
// still aggregates everything emitted.
func ReplaySampleStream(rec *Recording, factory func() *script.Program, iterations []int, sopts SampleOptions, emit func(iteration int, logs []string) error) (*SampleResult, error) {
	env, p, err := newReplayEnv(rec, factory, Options{
		Cache: sopts.Cache, Slots: sopts.Slots, Ctx: sopts.Ctx, Park: sopts.Park, Trace: sopts.Trace})
	if err != nil {
		return nil, err
	}
	n := p.Main.Iters
	for _, it := range iterations {
		if it < 0 || it >= n {
			return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrSampleRange, it, n)
		}
	}
	sample := slices.Clone(iterations)
	slices.Sort(sample)
	sample = slices.Compact(sample)

	// One slot covers the whole (sequential) sample. Its cost estimate — a
	// mean recorded iteration per sampled point — is deliberately coarse:
	// it only needs to be small next to a full replay's segments so the
	// pool's cheapest-first queue lets point queries through.
	if rec.Timings != nil && len(rec.Timings.IterNs) > 0 {
		var sum int64
		for _, ns := range rec.Timings.IterNs {
			sum += ns
		}
		env.slotCostNs = int64(len(sample)) * (sum / int64(len(rec.Timings.IterNs)))
	}
	if err := env.acquireSlot(env.opts.Ctx, 0); err != nil {
		return nil, err
	}
	defer env.releaseSlot()

	t0 := time.Now()
	w, err := newWorker(env, 0)
	if err != nil {
		return nil, err
	}
	pos := 0 // the main-loop iteration the program state currently sits at
	for _, it := range sample {
		if it != pos {
			// Jump to the nearest anchored checkpoint — unless the worker's
			// own state is already past it: then roll forward from where it
			// sits rather than restore backwards.
			from := sched.AnchorBefore(env.st.anchors, it-1)
			if from < pos {
				from = pos
			}
			if err := w.initTo(from, it); err != nil {
				return nil, err
			}
		}
		span, endWork := w.beginWork(it)
		if err := w.runIteration(it); err != nil {
			return nil, err
		}
		pos = it + 1
		endWork(pos, false)
		if emit != nil {
			if err := emit(it, span.lines); err != nil {
				return nil, err
			}
		}
	}
	rep := w.finish()
	env.parkPrograms()
	recordReplayMetrics(len(sample), []WorkerReport{*rep})
	return &SampleResult{
		Iterations:    sample,
		Logs:          rep.Logs,
		Probes:        env.diff.Probes,
		WallNs:        time.Since(t0).Nanoseconds(),
		Restored:      rep.Restored,
		RestoredBytes: rep.RestoredBytes,
		RestoreNs:     rep.RestoreNs,
		Fetch:         rep.Fetch,
	}, nil
}
