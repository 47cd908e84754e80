package skipblock

import (
	"fmt"
	"strings"
	"testing"

	"flor.dev/flor/internal/adapt"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// tensorProgram is a miniature training script: setup defines a weight
// tensor and an RNG; the nested "train" loop perturbs the weights with
// RNG-dependent values (so both tensor and RNG state are side-effects).
func tensorProgram(epochs, steps int) *script.Program {
	train := &script.Loop{
		ID:      "train",
		IterVar: "step",
		Iters:   steps,
		Body: []script.Stmt{
			script.AssignMethod([]string{"w"}, "w", "update", []string{"rng"}, func(e *script.Env) error {
				w := e.MustGet("w").(*value.Tensor).T
				rng := e.MustGet("rng").(*value.RNG).R
				// Enough compute per step that the Joint Invariant always
				// admits materialization (M_i/C_i ≈ 0.01).
				for pass := 0; pass < 50; pass++ {
					for i := 0; i < w.Len(); i++ {
						w.Data()[i] += rng.Float64() * 0.0001
					}
				}
				return nil
			}),
			script.ExprMethod("rng", "advance", nil, func(e *script.Env) error {
				e.MustGet("rng").(*value.RNG).R.Uint64()
				return nil
			}),
		},
	}
	return &script.Program{
		Name: "tensorprog",
		Setup: []script.Stmt{
			script.AssignFunc([]string{"w"}, "zeros", nil, func(e *script.Env) error {
				e.Set("w", &value.Tensor{T: tensor.New(64)})
				return nil
			}),
			script.AssignFunc([]string{"rng"}, "RNG", nil, func(e *script.Env) error {
				e.Set("rng", &value.RNG{R: xrand.New(42)})
				return nil
			}),
		},
		Main: &script.Loop{
			ID:      "main",
			IterVar: "epoch",
			Iters:   epochs,
			Body: []script.Stmt{
				script.LoopStmt(train),
				script.LogStmt("wsum", func(e *script.Env) (string, error) {
					w := e.MustGet("w").(*value.Tensor).T
					return formatFloat(w.Sum()), nil
				}),
			},
		},
	}
}

// formatFloat renders with %.17g so log diffs catch bit-level divergence.
func formatFloat(f float64) string {
	return fmt.Sprintf("%.17g", f)
}

func newHarness(t *testing.T, p *script.Program, strat backmat.Strategy) (*Runtime, *store.Store, *backmat.Materializer, *adapt.Tracker) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tracker := adapt.New(adapt.DefaultEpsilon)
	// These tests assert memoization *correctness*, which assumes a
	// checkpoint exists for every execution. Leave the adaptive policy to
	// its own package's tests: on a host with slow enough file I/O the Joint
	// Invariant legitimately goes sparse, which is correct behaviour but
	// would make every assertion here timing-dependent.
	tracker.SetDisabled(true)
	mat := backmat.New(st, strat)
	mat.SetObserver(tracker.NoteMaterialized)
	return NewRuntime(p, tracker, mat, st), st, mat, tracker
}

func runProgram(t *testing.T, p *script.Program, rt *Runtime, logSink func(string)) *script.Env {
	t.Helper()
	ctx := &script.Ctx{Env: script.NewEnv(), Log: logSink, LoopHook: rt.Hook}
	if err := script.Run(ctx, p); err != nil {
		t.Fatal(err)
	}
	return ctx.Env
}

func TestRecordMaterializesEveryEpoch(t *testing.T) {
	p := tensorProgram(3, 5)
	rt, st, mat, _ := newHarness(t, p, backmat.Fork)
	runProgram(t, p, rt, nil)
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if !st.Has(store.Key{LoopID: "train", Exec: e}) {
			t.Fatalf("checkpoint for train@%d missing", e)
		}
	}
	b, _ := rt.Block("train")
	if b.Stats().Executed != 3 || b.Stats().Materialized != 3 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestMainLoopNotInstrumented(t *testing.T) {
	p := tensorProgram(2, 2)
	rt, _, mat, _ := newHarness(t, p, backmat.Fork)
	defer mat.Close()
	if _, ok := rt.Block("main"); ok {
		t.Fatal("main loop received a SkipBlock")
	}
	if _, ok := rt.Block("train"); !ok {
		t.Fatal("train loop not instrumented")
	}
}

// TestMemoizationCorrectness is the paper's core correctness claim: loading
// the side-effects of a loop from disk is equivalent to executing the loop.
func TestMemoizationCorrectness(t *testing.T) {
	p := tensorProgram(4, 6)

	// Record run.
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	var recordLogs []string
	recordEnv := runProgram(t, p, rt, func(l string) { recordLogs = append(recordLogs, l) })
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay run in init mode: every train execution restored from disk.
	p2 := tensorProgram(4, 6)
	rt2 := NewRuntime(p2, tracker, backmat.New(st, backmat.Fork), st)
	rt2.SetMode(ModeReplayInit)
	var replayLogs []string
	replayEnv := runProgram(t, p2, rt2, func(l string) { replayLogs = append(replayLogs, l) })

	// Bit-identical final state and logs.
	wr := recordEnv.MustGet("w").(*value.Tensor).T
	wp := replayEnv.MustGet("w").(*value.Tensor).T
	if !tensor.Equal(wr, wp) {
		t.Fatal("restored weights differ from executed weights")
	}
	rngR := recordEnv.MustGet("rng").(*value.RNG).R
	rngP := replayEnv.MustGet("rng").(*value.RNG).R
	if !rngR.Equal(rngP) {
		t.Fatal("restored RNG state differs")
	}
	if strings.Join(recordLogs, "|") != strings.Join(replayLogs, "|") {
		t.Fatalf("logs differ:\nrecord: %v\nreplay: %v", recordLogs, replayLogs)
	}
	b, _ := rt2.Block("train")
	if b.Stats().Executed != 0 || b.Stats().Restored != 4 {
		t.Fatalf("replay-init stats = %+v (loop should be fully skipped)", b.Stats())
	}
}

func TestReplayExecProbedLoopReExecutes(t *testing.T) {
	p := tensorProgram(3, 4)
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	runProgram(t, p, rt, nil)
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := tensorProgram(3, 4)
	rt2 := NewRuntime(p2, tracker, backmat.New(st, backmat.Fork), st)
	rt2.SetMode(ModeReplayExec)
	rt2.SetProbes(map[string]bool{"train": true, "main": true})
	env := runProgram(t, p2, rt2, nil)

	b, _ := rt2.Block("train")
	if b.Stats().Executed != 3 || b.Stats().Restored != 0 {
		t.Fatalf("probed loop stats = %+v, want full re-execution", b.Stats())
	}
	// Re-execution reproduces the same state as record (determinism).
	p3 := tensorProgram(3, 4)
	plain := &script.Ctx{Env: script.NewEnv()}
	if err := script.Run(plain, p3); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(env.MustGet("w").(*value.Tensor).T, plain.Env.MustGet("w").(*value.Tensor).T) {
		t.Fatal("probed re-execution diverged from vanilla execution")
	}
}

func TestReplayExecUnprobedLoopSkips(t *testing.T) {
	p := tensorProgram(3, 4)
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	runProgram(t, p, rt, nil)
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := tensorProgram(3, 4)
	rt2 := NewRuntime(p2, tracker, backmat.New(st, backmat.Fork), st)
	rt2.SetMode(ModeReplayExec)
	rt2.SetProbes(map[string]bool{"main": true}) // outer-loop probe only
	runProgram(t, p2, rt2, nil)
	b, _ := rt2.Block("train")
	if b.Stats().Restored != 3 || b.Stats().Executed != 0 {
		t.Fatalf("unprobed loop stats = %+v, want full skip", b.Stats())
	}
}

func TestSparseCheckpointFallbackToExecution(t *testing.T) {
	// Record with adaptivity disabled for epochs {0, 2}: delete checkpoint 1
	// to simulate sparseness, then replay-init must re-execute epoch 1.
	p := tensorProgram(3, 4)
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	recordEnv := runProgram(t, p, rt, nil)
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh store holding only execs 0 and 2, section for section.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, exec := range []int{0, 2} {
		secs, err := readAll(st, store.Key{LoopID: "train", Exec: exec})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st2.PutSections(store.Key{LoopID: "train", Exec: exec}, secs, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	p2 := tensorProgram(3, 4)
	rt2 := NewRuntime(p2, tracker, backmat.New(st2, backmat.Fork), st2)
	rt2.SetMode(ModeReplayInit)
	env := runProgram(t, p2, rt2, nil)
	b, _ := rt2.Block("train")
	if b.Stats().Restored != 2 || b.Stats().Executed != 1 {
		t.Fatalf("sparse replay stats = %+v, want 2 restores + 1 execution", b.Stats())
	}
	if !tensor.Equal(env.MustGet("w").(*value.Tensor).T, recordEnv.MustGet("w").(*value.Tensor).T) {
		t.Fatal("sparse replay diverged from record")
	}
}

func TestSetExecIndexPositionsBlock(t *testing.T) {
	p := tensorProgram(5, 3)
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	recordEnv := runProgram(t, p, rt, nil)
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}

	// Jump straight to epoch 4: restore checkpoint 3's end state, then
	// replay epoch 4 logically — a miniature weak initialization.
	p2 := tensorProgram(5, 3)
	rt2 := NewRuntime(p2, tracker, backmat.New(st, backmat.Fork), st)
	ctx := &script.Ctx{Env: script.NewEnv(), LoopHook: rt2.Hook}
	if err := script.ExecStmts(ctx, p2.Setup); err != nil {
		t.Fatal(err)
	}
	b, _ := rt2.Block("train")
	b.SetExecIndex(3)
	rt2.SetMode(ModeReplayInit)
	ctx.Env.SetInt("epoch", 3)
	if err := script.ExecStmts(ctx, []script.Stmt{p2.Main.Body[0]}); err != nil {
		t.Fatal(err)
	}
	rt2.SetMode(ModeReplayExec)
	ctx.Env.SetInt("epoch", 4)
	if err := script.ExecStmts(ctx, p2.Main.Body); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(ctx.Env.MustGet("w").(*value.Tensor).T, recordEnv.MustGet("w").(*value.Tensor).T) {
		t.Fatal("jump-and-replay diverged from sequential record")
	}
}

func TestNestedCounterAdvanceOnSkip(t *testing.T) {
	// outer loop contains an inner loop; both memoizable. When outer is
	// skipped via checkpoint, inner's execution counter must advance.
	inner := &script.Loop{ID: "inner", IterVar: "j", Iters: 2, Body: []script.Stmt{
		script.ExprMethod("acc", "bump", nil, func(e *script.Env) error {
			e.MustGet("acc").(*value.Int).V++
			return nil
		}),
	}}
	outer := &script.Loop{ID: "outer", IterVar: "i", Iters: 3, Body: []script.Stmt{script.LoopStmt(inner)}}
	mk := func() *script.Program {
		return &script.Program{
			Name: "nested",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"acc"}, "zero", nil, func(e *script.Env) error {
					e.Set("acc", &value.Int{V: 0})
					return nil
				}),
			},
			Main: &script.Loop{ID: "main", IterVar: "e", Iters: 2, Body: []script.Stmt{script.LoopStmt(outer)}},
		}
	}
	p := mk()
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	runProgram(t, p, rt, nil)
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	ib, _ := rt.Block("inner")
	if ib.ExecIndex() != 6 { // 2 epochs × 3 outer iters
		t.Fatalf("record inner exec index = %d, want 6", ib.ExecIndex())
	}

	p2 := mk()
	rt2 := NewRuntime(p2, tracker, backmat.New(st, backmat.Fork), st)
	rt2.SetMode(ModeReplayInit)
	env := runProgram(t, p2, rt2, nil)
	if env.MustGet("acc").(*value.Int).V != 12 {
		t.Fatalf("acc = %d, want 12", env.MustGet("acc").(*value.Int).V)
	}
	ib2, _ := rt2.Block("inner")
	if ib2.ExecIndex() != 6 {
		t.Fatalf("replay inner exec index = %d, want 6 after outer skips", ib2.ExecIndex())
	}
	ob2, _ := rt2.Block("outer")
	if ob2.Stats().Restored != 2 {
		t.Fatalf("outer stats = %+v", ob2.Stats())
	}
}

func TestExecsPerMainIteration(t *testing.T) {
	p := tensorProgram(2, 3)
	if got := ExecsPerMainIteration(p, "train"); got != 1 {
		t.Fatalf("train execs/main-iter = %d, want 1", got)
	}
	inner := &script.Loop{ID: "inner", IterVar: "j", Iters: 4}
	outer := &script.Loop{ID: "outer", IterVar: "i", Iters: 3, Body: []script.Stmt{script.LoopStmt(inner)}}
	p2 := &script.Program{Main: &script.Loop{ID: "main", IterVar: "e", Iters: 2,
		Body: []script.Stmt{script.LoopStmt(outer)}}}
	if got := ExecsPerMainIteration(p2, "outer"); got != 1 {
		t.Fatalf("outer = %d, want 1", got)
	}
	if got := ExecsPerMainIteration(p2, "inner"); got != 3 {
		t.Fatalf("inner = %d, want 3", got)
	}
	if got := ExecsPerMainIteration(p2, "ghost"); got != 0 {
		t.Fatalf("ghost = %d, want 0", got)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeRecord: "record", ModeReplayInit: "replay-init", ModeReplayExec: "replay-exec",
	} {
		if m.String() != want {
			t.Fatalf("Mode %d = %q", m, m.String())
		}
	}
}
