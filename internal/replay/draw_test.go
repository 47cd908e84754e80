package replay_test

import (
	"fmt"
	"slices"
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// benchMLP builds the model of the benchmark's query programs.
func benchMLP(rng *xrand.RNG) nn.Module { return nn.NewResidualMLP(rng, 32, 64, 64, 8, 10) }

// drawnBy returns how many initializer values f made the process draw.
func drawnBy(t *testing.T, f func() error) int64 {
	t.Helper()
	before := tensor.DrawnValues()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return tensor.DrawnValues() - before
}

// TestFreshWorkersDrawNoInitialWeights pins, by the exact draw counter, what
// a fresh replay worker's setup draws. Every weight of the benchmark's model
// comes from a pending initializer: 68,224 values, which a program draws
// once a statement first reads them.
//
// A model-only probe reads the model only after a skipped loop bound a
// checkpoint, so every worker's first read is a restore that lands in the
// live weights: the replay, the sample and the stream draw nothing, at each
// worker count and initialization mode. Two probes read the setup weights
// before any checkpoint could supply them — one at the top of epoch 0, one
// inside the training loop, which re-executes from setup in epoch 0 — and
// the one worker that starts there draws them once, while every other
// worker's first restore drops its draw. Those restores land in the live
// tensors (value.Layout) on a private payload cache and copy decoded
// payloads (codec.Dense.CopyInto) once a shared cache holds them. Every
// replay logs what the uninstrumented program logs.
func TestFreshWorkersDrawNoInitialWeights(t *testing.T) {
	const epochs, perProgram = 6, 68224
	factory := sgdModelFactory(epochs, benchMLP)
	if got := drawnBy(t, func() error {
		for _, p := range benchMLP(xrand.New(7)).Params() {
			p.Var.Value.Data()
		}
		return nil
	}); got != perProgram {
		t.Fatalf("reading every parameter of the model drew %d values, want %d", got, perProgram)
	}
	rec := record(t, factory)
	if got := drawnBy(t, func() error {
		_, err := core.Record(t.TempDir(), factory, core.RecordOptions{DisableAdaptive: true})
		return err
	}); got != perProgram {
		t.Fatalf("recording drew %d values, want the model's %d once: the first forward pass reads every weight", got, perProgram)
	}
	wnorm := func(e *script.Env) (string, error) {
		return fmt.Sprintf("%.17g", nn.WeightNorm(e.MustGet("net").(*value.Model).M)), nil
	}
	after := withLog(factory, "wnorm", wnorm)
	atTop := func() *script.Program {
		p := factory()
		p.Main.Body = script.AddLog(p.Main.Body, 0, script.LogStmt("wnorm0", wnorm))
		return p
	}
	inner := func() *script.Program {
		p := factory()
		train := p.Main.Body[0].Loop
		train.Body = script.AddLog(train.Body, 2, script.LogStmt("wnorm_step", wnorm))
		return p
	}
	probes := []struct {
		name    string
		factory func() *script.Program
		draws   int64
		want    []string
	}{
		{"model-only probe", after, 0, nil},
		{"probe at the top of epoch 0", atTop, perProgram, nil},
		{"probe inside the training loop", inner, perProgram, nil},
	}
	for i := range probes {
		var err error
		if probes[i].want, _, err = core.Vanilla(probes[i].factory); err != nil {
			t.Fatal(err)
		}
	}
	for _, cache := range []*backmat.PayloadCache{nil, backmat.NewPayloadCache(0)} {
		for _, workers := range []int{1, 2, 4} {
			for _, init := range []replay.InitMode{replay.Weak, replay.Strong} {
				opts := replay.Options{Workers: workers, Init: init, Cache: cache}
				for _, pr := range probes {
					var logs []string
					if got := drawnBy(t, func() error {
						res, err := replay.Replay(rec.Recording, pr.factory, opts)
						if err == nil && len(res.Anomalies) != 0 {
							err = fmt.Errorf("anomalies %v", res.Anomalies)
						}
						if err == nil {
							logs = res.Logs
						}
						return err
					}); got != pr.draws {
						t.Fatalf("%s, workers=%d init=%v shared cache=%v: drew %d values, want %d", pr.name, workers, init, cache != nil, got, pr.draws)
					}
					if !slices.Equal(logs, pr.want) {
						t.Fatalf("%s, workers=%d init=%v shared cache=%v: replay logged\n%q\nthe uninstrumented run\n%q", pr.name, workers, init, cache != nil, logs, pr.want)
					}
				}
			}
		}
	}
	for _, iters := range [][]int{{0}, {3}, {1, 4, 5}} {
		if got := drawnBy(t, func() error { _, err := replay.ReplaySample(rec.Recording, after, iters); return err }); got != 0 {
			t.Fatalf("model-only sample of %v drew %d values, want 0", iters, got)
		}
		emit := func(int, []string) error { return nil }
		if got := drawnBy(t, func() error {
			_, err := replay.ReplaySampleStream(rec.Recording, after, iters, replay.SampleOptions{}, emit)
			return err
		}); got != 0 {
			t.Fatalf("model-only stream of %v drew %d values, want 0", iters, got)
		}
	}
}
