package replay_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// sgdFactory is florperf's query program in miniature: a residual MLP trained
// with SGD momentum on noise gradients, so every epoch's checkpoint holds a
// model section, an equally large optimizer section and the avg_loss scalar,
// and a "metrics" log per epoch that reads only the scalar.
func sgdFactory(epochs int) func() *script.Program {
	return func() *script.Program {
		train := &script.Loop{ID: "train", IterVar: "step", Iters: 1, Body: []script.Stmt{
			script.AssignFunc([]string{"avg_loss"}, "train_batch", []string{"net"}, func(e *script.Env) error {
				m := e.MustGet("net").(*value.Model).M
				rng := xrand.New(uint64(e.Int("epoch")))
				for _, p := range m.Params() {
					p.Var.Grad = tensor.Randn(rng, 0.01, p.Var.Value.Shape()...)
				}
				e.SetFloat("avg_loss", rng.Float64())
				return nil
			}),
			script.ExprMethod("optimizer", "step", nil, func(e *script.Env) error {
				e.MustGet("optimizer").(*value.Optimizer).O.Step()
				return nil
			}),
		}}
		return &script.Program{
			Name: "sgdquery",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"net", "optimizer", "avg_loss"}, "build", nil, func(e *script.Env) error {
					m := nn.NewResidualMLP(xrand.New(7), 16, 64, 64, 2, 4)
					e.Set("net", &value.Model{M: m})
					e.Set("optimizer", &value.Optimizer{O: opt.NewSGD(m, 0.05, 0.9, 1e-4)})
					e.SetFloat("avg_loss", 0)
					return nil
				}),
			},
			Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []script.Stmt{
				script.LoopStmt(train),
				script.LogStmt("metrics", func(e *script.Env) (string, error) {
					return fmt.Sprintf("epoch=%d loss=%.17g", e.Int("epoch"), e.Float("avg_loss")), nil
				}),
			}},
		}
	}
}

// withLog returns factory with one more log statement after the train loop.
func withLog(factory func() *script.Program, label string, eval func(*script.Env) (string, error)) func() *script.Program {
	return func() *script.Program {
		p := factory()
		p.Main.Body = script.AddLog(p.Main.Body, 1, script.LogStmt(label, eval))
		return p
	}
}

// TestRestoredBytesCountOnlyWhatStatementsRead pins, exactly and whatever the
// seed, what a replay loads. With a weight-norm probe the worker loads the
// model section and the scalar the metrics log reads of every epoch it skips —
// no optimizer byte and no optimizer frame on any fetch tier. With a probe
// that reads the optimizer (and through it the model) it loads every section,
// as every replay did before loads were deferred. And a sampled iteration
// loads that iteration's sections alone: the catch-up iteration before it
// binds a checkpoint that the sampled one supersedes unread, whose segment
// file — deleted here — is never opened.
func TestRestoredBytesCountOnlyWhatStatementsRead(t *testing.T) {
	const epochs = 6
	factory := sgdFactory(epochs)
	dir := t.TempDir()
	if _, err := core.Record(dir, factory, core.RecordOptions{DisableAdaptive: true}); err != nil {
		t.Fatal(err)
	}
	rec, err := core.LoadRecordingShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	secs, ok, err := rec.Store.GetSections(store.Key{LoopID: "train", Exec: 0}, nil)
	if err != nil || !ok {
		t.Fatalf("read train@0: ok=%v err=%v", ok, err)
	}
	size := map[string]int64{}
	for _, s := range secs {
		if s.RawLen > ckptfmt.DefaultChunkSize {
			t.Fatalf("section %s spans several chunks; the frame counts below assume one each", s.Name)
		}
		size[s.Name] = int64(s.RawLen)
	}
	if len(size) != 3 || size["optimizer"] < size["net"] || size["net"] < 64<<10 {
		t.Fatalf("checkpoint sections %v, want net, an optimizer at least as large, and avg_loss", size)
	}

	wnorm := withLog(factory, "wnorm", func(e *script.Env) (string, error) {
		return fmt.Sprintf("%.17g", nn.WeightNorm(e.MustGet("net").(*value.Model).M)), nil
	})
	everything := withLog(factory, "lr", func(e *script.Env) (string, error) {
		return fmt.Sprint(e.MustGet("optimizer").(*value.Optimizer).O.LR()), nil
	})
	for _, tc := range []struct {
		name    string
		factory func() *script.Program
		bytes   int64
		frames  int64
	}{
		{"model-only probe", wnorm, size["net"] + size["avg_loss"], 2},
		{"read-everything probe", everything, size["net"] + size["optimizer"] + size["avg_loss"], 3},
	} {
		res, err := replay.Replay(rec, tc.factory, replay.Options{Workers: 1, Trace: obs.NewTrace()})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		w := res.Workers[0]
		if w.Restored != epochs || w.RestoredBytes != epochs*tc.bytes || w.Fetch.TotalFrames() != epochs*tc.frames {
			t.Fatalf("%s: %d skipped executions loaded %d bytes in %d frames, want %d, %d and %d",
				tc.name, w.Restored, w.RestoredBytes, w.Fetch.TotalFrames(), epochs, epochs*tc.bytes, epochs*tc.frames)
		}
	}

	const sampled = 4
	m, _ := rec.Store.Lookup(store.Key{LoopID: "train", Exec: sampled - 1})
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("ckpt-%08d.bin", m.Seq))); err != nil {
		t.Fatal(err)
	}
	full, err := replay.Replay(rec, wnorm, replay.Options{Workers: 1, Init: replay.Weak, SkipDeferredCheck: true})
	if err == nil {
		t.Fatalf("a replay that reads epoch %d's checkpoint succeeded without its segment file: %v", sampled-1, full.Logs)
	}
	res, err := replay.ReplaySampleWith(rec, wnorm, []int{sampled}, replay.SampleOptions{Trace: obs.NewTrace()})
	if err != nil {
		t.Fatalf("sample of epoch %d: %v", sampled, err)
	}
	if want := size["net"] + size["avg_loss"]; res.Restored != 2 || res.RestoredBytes != want || res.Fetch.TotalFrames() != 2 {
		t.Fatalf("sample skipped %d executions and loaded %d bytes in %d frames, want 2 (catch-up and sampled), %d and 2",
			res.Restored, res.RestoredBytes, res.Fetch.TotalFrames(), want)
	}
}
