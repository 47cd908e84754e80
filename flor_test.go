package flor_test

import (
	"fmt"
	"strings"
	"testing"

	flor "flor.dev/flor"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// counterFactory builds a minimal training program through the public API:
// weights perturbed by a captured RNG inside a nested train loop.
func counterFactory(epochs, steps int) func() *flor.Program {
	return func() *flor.Program {
		train := &flor.Loop{ID: "train", IterVar: "step", Iters: steps, Body: []flor.Stmt{
			flor.AssignMethod([]string{"w"}, "rng", "perturb", []string{"w"}, func(e *flor.Env) error {
				w := e.MustGet("w").(*flor.TensorVal).T
				rng := e.MustGet("rng").(*flor.RNGVal).R
				for pass := 0; pass < 30; pass++ {
					for i := 0; i < w.Len(); i++ {
						w.Data()[i] += rng.Float64() * 0.001
					}
				}
				return nil
			}),
		}}
		return &flor.Program{
			Name: "api-quickstart",
			Setup: []flor.Stmt{
				flor.AssignFunc([]string{"w"}, "zeros", nil, func(e *flor.Env) error {
					e.Set("w", &flor.TensorVal{T: tensor.New(32)})
					return nil
				}),
				flor.AssignFunc([]string{"rng"}, "RNG", nil, func(e *flor.Env) error {
					e.Set("rng", &flor.RNGVal{R: xrand.New(11)})
					return nil
				}),
			},
			Main: &flor.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []flor.Stmt{
				flor.LoopStmt(train),
				flor.LogStmt("sum", func(e *flor.Env) (string, error) {
					return fmt.Sprintf("%.17g", e.MustGet("w").(*flor.TensorVal).T.Sum()), nil
				}),
			}},
		}
	}
}

func TestPublicAPIRecordReplay(t *testing.T) {
	dir := t.TempDir()
	factory := counterFactory(5, 4)
	rec, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoints != 5 {
		t.Fatalf("checkpoints = %d, want 5", rec.Checkpoints)
	}
	if rec.CheckpointBytes <= 0 || rec.WallNs <= 0 {
		t.Fatalf("missing record accounting: %+v", rec)
	}
	if len(rec.Logs) != 5 {
		t.Fatalf("record logs = %d lines", len(rec.Logs))
	}

	// Unprobed replay reproduces the record exactly.
	res, err := flor.Replay(dir, factory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", res.Anomalies)
	}
	if len(res.ProbedLoops) != 0 {
		t.Fatalf("probed loops: %v", res.ProbedLoops)
	}
	if strings.Join(res.Logs, "|") != strings.Join(rec.Logs, "|") {
		t.Fatal("replay logs differ from record")
	}
}

func TestPublicAPIHindsightProbe(t *testing.T) {
	dir := t.TempDir()
	factory := counterFactory(6, 3)
	if _, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing()); err != nil {
		t.Fatal(err)
	}
	probed := func() *flor.Program {
		p := factory()
		train := p.Main.Body[0].Loop
		train.Body = flor.AddLog(train.Body, 1, flor.LogStmt("hindsight", func(e *flor.Env) (string, error) {
			return fmt.Sprintf("%.6g", e.MustGet("w").(*flor.TensorVal).T.Norm()), nil
		}))
		return p
	}
	res, err := flor.Replay(dir, probed, flor.Workers(3), flor.Init(flor.WeakInit))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", res.Anomalies)
	}
	if res.Workers < 1 || res.Workers > 3 {
		t.Fatalf("workers = %d", res.Workers)
	}
	probeLines := 0
	for _, l := range res.Logs {
		if strings.HasPrefix(l, "hindsight: ") {
			probeLines++
		}
	}
	if probeLines != 18 {
		t.Fatalf("hindsight lines = %d, want 18 (6 epochs x 3 steps)", probeLines)
	}
	found := false
	for _, id := range res.ProbedLoops {
		if id == "train" {
			found = true
		}
	}
	if !found {
		t.Fatalf("probed loops %v missing train", res.ProbedLoops)
	}
}

func TestPublicAPIVanilla(t *testing.T) {
	logs, wall, err := flor.Vanilla(counterFactory(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 3 || wall <= 0 {
		t.Fatalf("vanilla run: %d logs, %d ns", len(logs), wall)
	}
}

func TestPublicAPIValidate(t *testing.T) {
	good := counterFactory(2, 2)()
	if err := flor.Validate(good); err != nil {
		t.Fatal(err)
	}
	if err := flor.Validate(&flor.Program{Name: "no-main"}); err == nil {
		t.Fatal("program without main loop validated")
	}
	dup := counterFactory(2, 2)()
	dup.Main.Body[0].Loop.ID = "main"
	if err := flor.Validate(dup); err == nil {
		t.Fatal("duplicate loop ID validated")
	}
}

func TestValidateIterVarCollisions(t *testing.T) {
	// A nested loop reusing its ancestor's iteration variable clobbers the
	// outer counter; Validate must reject it at any nesting depth.
	clash := counterFactory(2, 2)()
	clash.Main.Body[0].Loop.IterVar = clash.Main.IterVar
	if err := flor.Validate(clash); err == nil {
		t.Fatal("nested loop sharing the main loop's IterVar validated")
	}

	deep := counterFactory(2, 2)()
	inner := &flor.Loop{ID: "inner", IterVar: deep.Main.IterVar, Iters: 2}
	train := deep.Main.Body[0].Loop
	train.Body = append(train.Body, flor.LoopStmt(inner))
	if err := flor.Validate(deep); err == nil {
		t.Fatal("grandchild loop sharing the main loop's IterVar validated")
	}

	// Sibling loops may share an IterVar: each runs to completion before
	// the variable is read again.
	siblings := counterFactory(2, 2)()
	extra := &flor.Loop{ID: "extra", IterVar: siblings.Main.Body[0].Loop.IterVar, Iters: 2}
	siblings.Main.Body = append(siblings.Main.Body, flor.LoopStmt(extra))
	if err := flor.Validate(siblings); err != nil {
		t.Fatalf("sibling loops sharing an IterVar rejected: %v", err)
	}
}

func TestPublicAPIRejectsCodeChange(t *testing.T) {
	dir := t.TempDir()
	factory := counterFactory(3, 2)
	if _, err := flor.Record(dir, factory); err != nil {
		t.Fatal(err)
	}
	changed := func() *flor.Program {
		p := factory()
		p.Main.Body = append(p.Main.Body, flor.ExprFunc("sneaky", nil, func(e *flor.Env) error { return nil }))
		return p
	}
	if _, err := flor.Replay(dir, changed); err == nil {
		t.Fatal("non-logging code change accepted")
	}
}

func TestEpsilonOptionControlsCheckpointDensity(t *testing.T) {
	factory := counterFactory(30, 2)
	// A tiny ε admits almost nothing; a huge ε admits everything.
	tight, err := flor.Record(t.TempDir(), factory, flor.Epsilon(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	loose, err := flor.Record(t.TempDir(), factory, flor.Epsilon(0.99))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Checkpoints > loose.Checkpoints {
		t.Fatalf("tight ε materialized more (%d) than loose ε (%d)",
			tight.Checkpoints, loose.Checkpoints)
	}
}

func TestPublicAPIParallelReplay(t *testing.T) {
	dir := t.TempDir()
	factory := counterFactory(12, 2)
	if _, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing()); err != nil {
		t.Fatal(err)
	}
	probed := func() *flor.Program {
		p := factory()
		train := p.Main.Body[0].Loop
		train.Body = flor.AddLog(train.Body, 1, flor.LogStmt("hindsight", func(e *flor.Env) (string, error) {
			return fmt.Sprintf("%.6g", e.MustGet("w").(*flor.TensorVal).T.Norm()), nil
		}))
		return p
	}
	baseline, err := flor.Replay(dir, probed, flor.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, init := range []flor.InitMode{flor.StrongInit, flor.WeakInit} {
		res, err := flor.Replay(dir, probed, flor.Workers(4), flor.Init(init))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Anomalies) != 0 {
			t.Fatalf("%v: anomalies: %v", init, res.Anomalies)
		}
		if res.Workers < 1 || res.Workers > 4 {
			t.Fatalf("%v: result reports %d workers", init, res.Workers)
		}
		if strings.Join(res.Logs, "\n") != strings.Join(baseline.Logs, "\n") {
			t.Fatalf("%v: merged logs differ from single-worker baseline", init)
		}
	}
}
