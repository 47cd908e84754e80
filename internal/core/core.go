// Package core orchestrates Flor record and replay sessions end-to-end
// (paper §3): instrumentation, the record phase with background
// materialization and adaptive checkpointing, persistence of the program
// structure and record log, and the entry point replay consumes.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flor.dev/flor/internal/adapt"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/runlog"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/skipblock"
	"flor.dev/flor/internal/store"
)

// Program structure, record log, and iteration-timing file names inside a
// run directory.
const (
	programFile   = "PROGRAM"
	recordLogFile = "record.log"
	timingsFile   = "timings.log"
)

// RecordOptions configures a record run.
type RecordOptions struct {
	// Epsilon is the record overhead tolerance ε (adapt.DefaultEpsilon when
	// zero).
	Epsilon float64
	// Strategy selects the background materialization implementation
	// (backmat.Fork is the paper's default).
	Strategy backmat.Strategy
	// DisableAdaptive materializes every loop execution regardless of cost,
	// reproducing the "adaptivity disabled" configuration of Figure 7.
	DisableAdaptive bool
	// DisableBackground forces the Baseline strategy (serialization and
	// write on the training thread), reproducing §5.1's comparison.
	DisableBackground bool
	// ShardFanout requests a hash-prefix sharded chunk store for new runs
	// (power of two in [2, 256]); 0 keeps the single-pack v2 layout.
	ShardFanout int
	// ShardDirs spreads the sharded store's packs over extra root
	// directories (persisted in the run directory, so replay and serving
	// find them without options).
	ShardDirs []string
	// Pool attaches the run to a shared chunk pool at this root (created on
	// first use; see store.Options.Pool). Runs of one project attached to
	// the same pool deduplicate chunks against each other — fine-tuning
	// families sharing a frozen backbone store it once. Replay needs no
	// matching option: the run's manifest records the attachment.
	Pool string
	// FrameStyle forces the chunk-frame encoding for new v2 checkpoints
	// (ckptfmt.StyleDeflate, ckptfmt.StyleLZ4, or ckptfmt.StyleAuto to make
	// the adaptive choice explicit); 0 keeps the adaptive default. See
	// store.Options.FrameStyle.
	FrameStyle byte
}

// RecordResult is the outcome of a record run.
type RecordResult struct {
	Recording *replay.Recording
	// WallNs is the end-to-end duration of the instrumented training run,
	// including waiting for background materialization to drain.
	WallNs int64
	// MatStats aggregates materialization cost accounting.
	MatStats backmat.Stats
	// C is the refined restore/materialize scaling factor after the run.
	C float64
	// LoopStats maps instrumented loop IDs to adaptive checkpointing state.
	LoopStats map[string]adapt.LoopStats
	// Logs is the record-phase run log.
	Logs []string
}

// Record executes the program with Flor instrumentation, materializing
// checkpoints into dir. The returned Recording is everything replay needs.
func Record(dir string, factory func() *script.Program, opts RecordOptions) (*RecordResult, error) {
	p := factory()
	st, err := store.OpenWith(dir, store.Options{
		ShardFanout: opts.ShardFanout,
		ShardDirs:   opts.ShardDirs,
		Pool:        opts.Pool,
		FrameStyle:  opts.FrameStyle,
	})
	if err != nil {
		return nil, err
	}
	if st.ReadOnly() {
		return nil, fmt.Errorf("core: record into %s: a legacy v1 run directory is read-compat only: %w", dir, store.ErrReadOnly)
	}
	strategy := opts.Strategy
	if opts.DisableBackground {
		strategy = backmat.Baseline
	}
	tracker := adapt.New(opts.Epsilon)
	tracker.SetDisabled(opts.DisableAdaptive)
	mat := backmat.New(st, strategy)
	mat.SetObserver(tracker.NoteMaterialized)
	rt := skipblock.NewRuntime(p, tracker, mat, st)

	lg := runlog.New()
	ctx := &script.Ctx{Env: script.NewEnv(), Log: lg.Append, LoopHook: rt.Hook}

	// Run the program phase by phase (same semantics as script.Run), timing
	// setup and every main-loop iteration: the timings feed the replay
	// scheduler's cost model (internal/sched), which balances and steals
	// segments by measured per-iteration cost.
	timings := &runlog.Timings{}
	t0 := time.Now()
	err = script.ExecStmts(ctx, p.Setup)
	timings.SetupNs = time.Since(t0).Nanoseconds()
	if err == nil && p.Main != nil {
		err = script.ExecLoopTimed(ctx, p.Main, func(_ int, ns int64) {
			timings.IterNs = append(timings.IterNs, ns)
		})
	}
	if err == nil {
		err = script.ExecStmts(ctx, p.Tail)
	}
	if err != nil {
		mat.Close()
		return nil, fmt.Errorf("core: record: %w", err)
	}
	if err := mat.Close(); err != nil {
		return nil, fmt.Errorf("core: record materialization: %w", err)
	}
	wall := time.Since(t0).Nanoseconds()

	// Persist the code copy (program structure), the record log, and the
	// per-iteration timings.
	shape := script.StructureOf(p)
	if err := os.WriteFile(filepath.Join(dir, programFile), shape.Encode(), 0o644); err != nil {
		return nil, fmt.Errorf("core: save program structure: %w", err)
	}
	if err := lg.WriteFile(filepath.Join(dir, recordLogFile)); err != nil {
		return nil, err
	}
	timings.C = tracker.C()
	if err := timings.WriteFile(filepath.Join(dir, timingsFile)); err != nil {
		return nil, err
	}

	loopStats := map[string]adapt.LoopStats{}
	for _, id := range rt.Blocks() {
		loopStats[id] = tracker.Stats(id)
	}
	return &RecordResult{
		Recording: &replay.Recording{Store: st, Shape: shape, RecordLog: lg.Lines(), Timings: timings},
		WallNs:    wall,
		MatStats:  mat.Stats(),
		C:         tracker.C(),
		LoopStats: loopStats,
		Logs:      lg.Lines(),
	}, nil
}

// Vanilla executes the program without any Flor instrumentation, returning
// its logs and wall time. The paper's baselines ("vanilla execution") log
// the same data but do no checkpointing.
func Vanilla(factory func() *script.Program) ([]string, int64, error) {
	p := factory()
	lg := runlog.New()
	ctx := &script.Ctx{Env: script.NewEnv(), Log: lg.Append}
	t0 := time.Now()
	if err := script.Run(ctx, p); err != nil {
		return nil, 0, fmt.Errorf("core: vanilla: %w", err)
	}
	return lg.Lines(), time.Since(t0).Nanoseconds(), nil
}

// IsRecording reports whether dir looks like a run directory produced by
// Record: the persisted program structure and record log exist. A checkpoint
// manifest is deliberately not required — an adaptive record run may have
// materialized zero checkpoints and still replay (by re-executing).
// Registration paths use this to reject unrelated directories eagerly.
func IsRecording(dir string) bool {
	if _, err := os.Stat(filepath.Join(dir, programFile)); err != nil {
		return false
	}
	if _, err := os.Stat(filepath.Join(dir, recordLogFile)); err != nil {
		return false
	}
	return true
}

// LoadRecording opens a run directory produced by Record.
func LoadRecording(dir string) (*replay.Recording, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return loadRecording(dir, st)
}

// LoadRecordingShared opens a run directory for shared read-only serving:
// the store rejects writes, the open touches nothing on disk, and the
// resulting Recording may be handed to many concurrent replay and sample
// queries (the daemon's open path — the manifest is replayed once here, not
// per query).
func LoadRecordingShared(dir string) (*replay.Recording, error) {
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		return nil, err
	}
	return loadRecording(dir, st)
}

// LoadRecordingSharedPinned is LoadRecordingShared with the store's
// external roots pinned: the open fails unless the run directory's
// persisted SHARDS list still matches shardDirs (empty means "no extra
// roots") and its pool attachment still matches pool (empty means "not
// pooled"), so a server that validated both at registration time cannot be
// redirected by a later SHARDS or manifest rewrite.
func LoadRecordingSharedPinned(dir string, shardDirs []string, pool string) (*replay.Recording, error) {
	opts := store.Options{ReadOnly: true, Pool: pool, PinPool: true}
	if pool == "" {
		// ShardDirs and Pool are mutually exclusive on pooled stores; pin
		// whichever axis the layout actually has.
		opts.ShardDirs = shardDirs
		opts.PinShardDirs = true
	}
	st, err := store.OpenWith(dir, opts)
	if err != nil {
		return nil, err
	}
	return loadRecording(dir, st)
}

// LoadRecordingWith opens a run directory with explicit store options — the
// remote-backed serving path: the caller fetches the run's control plane
// into dir (remote.FetchControlPlane) and passes Options{ReadOnly: true,
// Backend: <ObjectBackend>} so every pack read routes through the remote
// object store and its cache tier.
func LoadRecordingWith(dir string, opts store.Options) (*replay.Recording, error) {
	st, err := store.OpenWith(dir, opts)
	if err != nil {
		return nil, err
	}
	return loadRecording(dir, st)
}

func loadRecording(dir string, st *store.Store) (*replay.Recording, error) {
	raw, err := os.ReadFile(filepath.Join(dir, programFile))
	if err != nil {
		return nil, fmt.Errorf("core: load program structure: %w", err)
	}
	shape, err := script.DecodeProgramShape(raw)
	if err != nil {
		return nil, fmt.Errorf("core: decode program structure: %w", err)
	}
	logs, err := runlog.ReadFile(filepath.Join(dir, recordLogFile))
	if err != nil {
		return nil, err
	}
	// Timings are optional: recordings made before timing capture replay
	// with a metadata-derived cost model instead.
	var timings *runlog.Timings
	if _, serr := os.Stat(filepath.Join(dir, timingsFile)); serr == nil {
		if timings, err = runlog.ReadTimingsFile(filepath.Join(dir, timingsFile)); err != nil {
			return nil, err
		}
	}
	return &replay.Recording{Store: st, Shape: shape, RecordLog: logs, Timings: timings}, nil
}
