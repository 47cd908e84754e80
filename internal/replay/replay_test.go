package replay_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// trainFactory returns a factory for a miniature training program: weights
// perturbed by RNG draws inside a nested train loop, with per-epoch loss
// logging in the main loop and an LR float mutated inside the train loop so
// weak initialization stays anomaly-free.
func trainFactory(epochs, steps int) func() *script.Program {
	return func() *script.Program {
		train := &script.Loop{
			ID:      "train",
			IterVar: "step",
			Iters:   steps,
			Body: []script.Stmt{
				// The RNG is the receiver so rule 1 places it (and w) in the
				// changeset — mutations must flow through statically visible
				// patterns, as PyTorch mutations do in the paper.
				script.AssignMethod([]string{"w"}, "rng", "perturb", []string{"w", "lr"}, func(e *script.Env) error {
					w := e.MustGet("w").(*value.Tensor).T
					rng := e.MustGet("rng").(*value.RNG).R
					lr := e.Float("lr")
					for pass := 0; pass < 40; pass++ {
						for i := 0; i < w.Len(); i++ {
							w.Data()[i] += rng.Float64() * lr * 0.001
						}
					}
					return nil
				}),
				script.AssignMethod([]string{"lr"}, "lr", "decay", nil, func(e *script.Env) error {
					e.SetFloat("lr", e.Float("lr")*0.999)
					return nil
				}),
			},
		}
		return &script.Program{
			Name: "minitrain",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"w"}, "zeros", nil, func(e *script.Env) error {
					e.Set("w", &value.Tensor{T: tensor.New(128)})
					return nil
				}),
				script.AssignFunc([]string{"rng"}, "RNG", nil, func(e *script.Env) error {
					e.Set("rng", &value.RNG{R: xrand.New(7)})
					return nil
				}),
				script.AssignExpr([]string{"lr"}, nil, func(e *script.Env) error {
					e.SetFloat("lr", 1.0)
					return nil
				}),
			},
			Main: &script.Loop{
				ID:      "main",
				IterVar: "epoch",
				Iters:   epochs,
				Body: []script.Stmt{
					script.LoopStmt(train),
					script.LogStmt("loss", func(e *script.Env) (string, error) {
						w := e.MustGet("w").(*value.Tensor).T
						return fmt.Sprintf("epoch=%d sum=%.17g", e.Int("epoch"), w.Sum()), nil
					}),
				},
			},
			Tail: []script.Stmt{
				script.LogStmt("done", func(e *script.Env) (string, error) {
					return fmt.Sprintf("final=%.17g", e.MustGet("w").(*value.Tensor).T.Sum()), nil
				}),
			},
		}
	}
}

// addOuterProbe wraps a factory, inserting a log statement into the main
// loop body (outside the train loop).
func addOuterProbe(f func() *script.Program) func() *script.Program {
	return func() *script.Program {
		p := f()
		p.Main.Body = script.AddLog(p.Main.Body, 1, script.LogStmt("wnorm", func(e *script.Env) (string, error) {
			return fmt.Sprintf("%.17g", e.MustGet("w").(*value.Tensor).T.Norm()), nil
		}))
		return p
	}
}

// addInnerProbe wraps a factory, inserting a log statement into the train
// loop body.
func addInnerProbe(f func() *script.Program) func() *script.Program {
	return func() *script.Program {
		p := f()
		train := p.Main.Body[0].Loop
		train.Body = script.AddLog(train.Body, 1, script.LogStmt("stepsum", func(e *script.Env) (string, error) {
			return fmt.Sprintf("%.17g", e.MustGet("w").(*value.Tensor).T.Sum()), nil
		}))
		return p
	}
}

func record(t *testing.T, factory func() *script.Program) *core.RecordResult {
	t.Helper()
	// Adaptivity is disabled so these miniature programs (microsecond
	// epochs against millisecond disk writes) checkpoint densely; adaptive
	// behaviour has its own coverage in internal/adapt and the benchmarks.
	res, err := core.Record(t.TempDir(), factory, core.RecordOptions{DisableAdaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSequentialReplayReproducesRecord(t *testing.T) {
	factory := trainFactory(6, 4)
	rec := record(t, factory)
	res, err := replay.Replay(rec.Recording, factory, replay.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probes) != 0 {
		t.Fatalf("probes = %v, want none", res.Probes)
	}
	if strings.Join(res.Logs, "|") != strings.Join(rec.Logs, "|") {
		t.Fatalf("replay logs differ:\nrecord: %v\nreplay: %v", rec.Logs, res.Logs)
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", res.Anomalies)
	}
	// Unprobed: train loop must be fully restored, never executed.
	if res.Workers[0].Executed != 0 {
		t.Fatalf("unprobed sequential replay executed %d loops", res.Workers[0].Executed)
	}
	if res.Workers[0].Restored != 6 {
		t.Fatalf("restored %d, want 6", res.Workers[0].Restored)
	}
}

func TestOuterProbeReplay(t *testing.T) {
	factory := trainFactory(6, 4)
	rec := record(t, factory)
	res, err := replay.Replay(rec.Recording, addOuterProbe(factory), replay.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Probes["main"] || res.Probes["train"] {
		t.Fatalf("probes = %v, want main only", res.Probes)
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", res.Anomalies)
	}
	// The probe output is present: one wnorm line per epoch.
	probeLines := 0
	for _, l := range res.Logs {
		if strings.HasPrefix(l, "wnorm: ") {
			probeLines++
		}
	}
	if probeLines != 6 {
		t.Fatalf("probe lines = %d, want 6", probeLines)
	}
	// Partial replay: train still skipped entirely.
	if res.Workers[0].Executed != 0 {
		t.Fatalf("outer probe should not re-execute train; executed = %d", res.Workers[0].Executed)
	}
}

func TestInnerProbeReplay(t *testing.T) {
	factory := trainFactory(5, 3)
	rec := record(t, factory)
	res, err := replay.Replay(rec.Recording, addInnerProbe(factory), replay.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Probes["train"] || !res.Probes["main"] {
		t.Fatalf("probes = %v, want both", res.Probes)
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", res.Anomalies)
	}
	// Full re-execution of the probed train loop.
	if res.Workers[0].Executed != 5 {
		t.Fatalf("executed = %d, want 5", res.Workers[0].Executed)
	}
	// One stepsum line per (epoch, step).
	probeLines := 0
	for _, l := range res.Logs {
		if strings.HasPrefix(l, "stepsum: ") {
			probeLines++
		}
	}
	if probeLines != 15 {
		t.Fatalf("probe lines = %d, want 15", probeLines)
	}
}

func TestParallelReplayMatchesSequential(t *testing.T) {
	factory := trainFactory(8, 3)
	rec := record(t, factory)
	seq, err := replay.Replay(rec.Recording, addInnerProbe(factory), replay.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{2, 3, 4, 8} {
		par, err := replay.Replay(rec.Recording, addInnerProbe(factory), replay.Options{Workers: g})
		if err != nil {
			t.Fatalf("G=%d: %v", g, err)
		}
		if strings.Join(par.Logs, "|") != strings.Join(seq.Logs, "|") {
			t.Fatalf("G=%d merged logs differ from sequential", g)
		}
		if len(par.Anomalies) != 0 {
			t.Fatalf("G=%d anomalies: %v", g, par.Anomalies)
		}
		// Workers are interchangeable: a fast one may have walked on into a
		// lease before a slow one was scheduled at all.
		if len(par.Workers) < 1 || len(par.Workers) > min(g, 8) {
			t.Fatalf("G=%d workers = %d", g, len(par.Workers))
		}
	}
}

func TestStrongAndWeakInitEquivalent(t *testing.T) {
	factory := trainFactory(8, 3)
	rec := record(t, factory)
	strong, err := replay.Replay(rec.Recording, addInnerProbe(factory), replay.Options{Workers: 4, Init: replay.Strong})
	if err != nil {
		t.Fatal(err)
	}
	weak, err := replay.Replay(rec.Recording, addInnerProbe(factory), replay.Options{Workers: 4, Init: replay.Weak})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(strong.Logs, "|") != strings.Join(weak.Logs, "|") {
		t.Fatal("strong and weak initialization produced different logs")
	}
	if len(weak.Anomalies) != 0 {
		t.Fatalf("weak init anomalies: %v", weak.Anomalies)
	}
	// Weak workers jump to the checkpoint just before their segment.
	for _, w := range weak.Workers {
		if w.Segment[0] > 0 && w.InitFrom != w.Segment[0]-1 {
			t.Fatalf("worker %d: weak init from %d, want %d", w.PID, w.InitFrom, w.Segment[0]-1)
		}
	}
	// Strong workers always initialize from iteration 0.
	for _, w := range strong.Workers {
		if w.InitFrom != 0 {
			t.Fatalf("worker %d: strong init from %d, want 0", w.PID, w.InitFrom)
		}
	}
}

func TestReplayRejectsCodeChanges(t *testing.T) {
	factory := trainFactory(3, 2)
	rec := record(t, factory)
	changed := func() *script.Program {
		p := factory()
		p.Main.Body = append(p.Main.Body, script.ExprFunc("new_stmt", nil, func(e *script.Env) error { return nil }))
		return p
	}
	if _, err := replay.Replay(rec.Recording, changed, replay.Options{}); err == nil {
		t.Fatal("replay accepted a non-logging code change")
	}
}

func TestReplayDetectsDivergenceAsAnomaly(t *testing.T) {
	// A "divergent" replay: same structure (so diff passes) but different
	// behaviour inside a closure — simulating a missed side-effect.
	factory := trainFactory(3, 2)
	rec := record(t, factory)
	divergent := func() *script.Program {
		p := trainFactory(3, 2)()
		// Same structural pattern, different arithmetic.
		p.Main.Body[0].Loop.Body[0].Do = func(e *script.Env) error {
			w := e.MustGet("w").(*value.Tensor).T
			w.Data()[0] += 1000 // corrupt
			return nil
		}
		return p
	}
	// Probe the train loop so the corrupted statement actually re-executes.
	divergentProbed := func() *script.Program {
		p := divergent()
		train := p.Main.Body[0].Loop
		train.Body = script.AddLog(train.Body, 1, script.LogStmt("probe", func(e *script.Env) (string, error) {
			return "x", nil
		}))
		return p
	}
	res, err := replay.Replay(rec.Recording, divergentProbed, replay.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) == 0 {
		t.Fatal("deferred check missed a divergent replay")
	}
}

func TestMaxSpeedupMatchesPaper(t *testing.T) {
	// Paper §6.3: 200 epochs over 16 workers → ≤13 epochs each → 15.38×.
	got := replay.MaxSpeedup(200, 16)
	if got < 15.37 || got > 15.39 {
		t.Fatalf("replay.MaxSpeedup(200,16) = %g, want 15.38", got)
	}
	// RTE & CoLA: "only have 6 epoch-partitions each, so parallelism on
	// 4 GPUs leads to at best 2/6 = 33% replay time" — i.e. the best
	// replay-time fraction is 1/speedup = 2/6.
	if frac := 1 / replay.MaxSpeedup(6, 4); frac != 2.0/6.0 {
		t.Fatalf("replay fraction for (6,4) = %g, want 2/6", frac)
	}
}

func TestLoadRecordingRoundTrip(t *testing.T) {
	factory := trainFactory(4, 2)
	dir := t.TempDir()
	if _, err := core.Record(dir, factory, core.RecordOptions{DisableAdaptive: true}); err != nil {
		t.Fatal(err)
	}
	rec, err := core.LoadRecording(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.Replay(rec, factory, replay.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("anomalies after reload: %v", res.Anomalies)
	}
}

func TestReplaySkipDeferredCheck(t *testing.T) {
	factory := trainFactory(3, 2)
	rec := record(t, factory)
	res, err := replay.Replay(rec.Recording, factory, replay.Options{Workers: 1, SkipDeferredCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalies != nil {
		t.Fatal("deferred check ran despite SkipDeferredCheck")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestReplayStartsNoMaterializerGoroutines: a replay never records, so its
// workers hold no materializer and nothing writes in the background. Seen
// from inside a single-worker replay, the only goroutine beyond the caller's
// is the worker itself; and at any width a finished replay leaves the count
// where it found it.
func TestReplayStartsNoMaterializerGoroutines(t *testing.T) {
	factory := trainFactory(6, 2)
	rec := record(t, factory)
	var peak atomic.Int64
	probed := func() *script.Program {
		p := factory()
		p.Main.Body = script.AddLog(p.Main.Body, 1, script.LogStmt("goroutines", func(*script.Env) (string, error) {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			return "-", nil
		}))
		return p
	}
	for _, workers := range []int{1, 4} {
		peak.Store(0)
		before := runtime.NumGoroutine()
		if _, err := replay.Replay(rec.Recording, probed, replay.Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond) // a worker past its last statement may not be gone yet
		}
		// The count may drop: a goroutine counted before the replay can end
		// during it (the runtime's finalizer goroutine, for one, counts only
		// while it runs finalizers). Only a rise is the replay's.
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("workers=%d: %d goroutines after the replay, %d before", workers, after, before)
		}
		if workers == 1 && peak.Load() != int64(before)+1 {
			t.Fatalf("a single-worker replay ran %d goroutines at its peak, want the caller's %d plus the worker", peak.Load(), before)
		}
	}
}
