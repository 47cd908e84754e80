package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/value"
)

// counter builds a trivial instrumentable program.
func counter(epochs, steps int) func() *script.Program {
	return func() *script.Program {
		train := &script.Loop{ID: "train", IterVar: "step", Iters: steps, Body: []script.Stmt{
			script.ExprMethod("total", "add", nil, func(e *script.Env) error {
				e.MustGet("total").(*value.Int).V++
				return nil
			}),
		}}
		return &script.Program{
			Name: "counter",
			Setup: []script.Stmt{
				script.AssignExpr([]string{"total"}, nil, func(e *script.Env) error {
					e.Set("total", &value.Int{V: 0})
					return nil
				}),
			},
			Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []script.Stmt{
				script.LoopStmt(train),
				script.LogStmt("total", func(e *script.Env) (string, error) {
					return string(rune('0' + e.MustGet("total").(*value.Int).V%10)), nil
				}),
			}},
		}
	}
}

func TestRecordProducesArtifacts(t *testing.T) {
	dir := t.TempDir()
	res, err := core.Record(dir, counter(3, 2), core.RecordOptions{DisableAdaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallNs <= 0 || len(res.Logs) != 3 {
		t.Fatalf("result = %+v", res)
	}
	for _, f := range []string{"PROGRAM", "record.log", "MANIFEST"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing artifact %s: %v", f, err)
		}
	}
	if res.MatStats.Checkpoints != 3 {
		t.Fatalf("checkpoints = %d", res.MatStats.Checkpoints)
	}
	if len(res.LoopStats) != 1 {
		t.Fatalf("loop stats = %v", res.LoopStats)
	}
	if st, ok := res.LoopStats["train"]; !ok || st.N != 3 {
		t.Fatalf("train stats = %+v", res.LoopStats)
	}
}

func TestRecordPropagatesProgramErrors(t *testing.T) {
	boom := errors.New("data loading failed")
	factory := func() *script.Program {
		return &script.Program{
			Name: "failing",
			Setup: []script.Stmt{
				script.ExprFunc("load", nil, func(e *script.Env) error { return boom }),
			},
			Main: &script.Loop{ID: "main", IterVar: "e", Iters: 1},
		}
	}
	if _, err := core.Record(t.TempDir(), factory, core.RecordOptions{}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestLoadRecordingRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec1, err := core.Record(dir, counter(4, 2), core.RecordOptions{DisableAdaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := core.LoadRecording(dir)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rec2.RecordLog, "|") != strings.Join(rec1.Logs, "|") {
		t.Fatal("reloaded record log differs")
	}
	if rec2.Shape.Name != "counter" || rec2.Shape.Main == nil {
		t.Fatalf("reloaded shape = %+v", rec2.Shape)
	}
	if len(rec2.Store.Metas()) != 4 {
		t.Fatalf("reloaded store has %d checkpoints", len(rec2.Store.Metas()))
	}
}

func TestLoadRecordingMissingDir(t *testing.T) {
	if _, err := core.LoadRecording(filepath.Join(t.TempDir(), "ghost")); err == nil {
		t.Fatal("loading an empty directory succeeded")
	}
}

func TestLoadRecordingCorruptProgram(t *testing.T) {
	dir := t.TempDir()
	if _, err := core.Record(dir, counter(2, 1), core.RecordOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "PROGRAM"), []byte{0xff, 0x00}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadRecording(dir); err == nil {
		t.Fatal("corrupt PROGRAM accepted")
	}
}

func TestVanillaMatchesRecordLogs(t *testing.T) {
	factory := counter(5, 3)
	vlogs, _, err := core.Vanilla(factory)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Record(t.TempDir(), factory, core.RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(vlogs, "|") != strings.Join(res.Logs, "|") {
		t.Fatal("instrumentation changed program output")
	}
}

func TestDisableBackgroundUsesBaseline(t *testing.T) {
	res, err := core.Record(t.TempDir(), counter(3, 2),
		core.RecordOptions{DisableAdaptive: true, Strategy: backmat.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline strategy: all materialization on the caller, none behind.
	if res.MatStats.BackgroundNs != 0 {
		t.Fatalf("baseline record did background work: %+v", res.MatStats)
	}
	if res.MatStats.CallerNs <= 0 {
		t.Fatal("baseline record has no caller time")
	}
}

func TestStrategyOptionHonored(t *testing.T) {
	res, err := core.Record(t.TempDir(), counter(3, 2),
		core.RecordOptions{DisableAdaptive: true, Strategy: backmat.Queue})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatStats.Checkpoints != 3 {
		t.Fatalf("queue strategy checkpoints = %d", res.MatStats.Checkpoints)
	}
}
