package skipblock

import (
	"runtime"
	"runtime/debug"
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// sgdProgram trains a residual MLP with SGD momentum: every epoch's Loop End
// Checkpoint carries the model and an equally large velocity state, about
// half a MiB in all. afterEpoch runs once per main-loop iteration, after the
// train loop's SkipBlock.
func sgdProgram(epochs int, afterEpoch func(epoch int)) *script.Program {
	train := &script.Loop{ID: "train", IterVar: "step", Iters: 1, Body: []script.Stmt{
		script.ExprMethod("optimizer", "step", nil, func(e *script.Env) error {
			// Noise gradients: the velocity state must be as incompressible
			// as real training state, so its frames stay raw like the model's.
			o := e.MustGet("optimizer").(*value.Optimizer).O
			rng := xrand.New(uint64(e.Int("epoch")))
			for _, p := range o.Model().Params() {
				p.Var.Grad = tensor.Randn(rng, 0.01, p.Var.Value.Shape()...)
			}
			o.Step()
			return nil
		}),
	}}
	return &script.Program{
		Name: "sgdprog",
		Setup: []script.Stmt{
			script.AssignFunc([]string{"net", "optimizer"}, "build", nil, func(e *script.Env) error {
				m := nn.NewResidualMLP(xrand.New(7), 32, 64, 64, 4, 10)
				e.Set("net", &value.Model{M: m})
				e.Set("optimizer", &value.Optimizer{O: opt.NewSGD(m, 0.05, 0.9, 1e-4)})
				return nil
			}),
		},
		Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []script.Stmt{
			script.LoopStmt(train),
			script.LogStmt("norm", func(e *script.Env) (string, error) {
				if afterEpoch != nil {
					afterEpoch(e.Int("epoch"))
				}
				return formatFloat(nn.WeightNorm(e.MustGet("net").(*value.Model).M)), nil
			}),
		}},
	}
}

// TestRestoreSteadyStateAllocation is the allocation guard of the restore
// path: with a payload cache too small to admit anything, so that every
// restore reads and decodes its checkpoint, a restore after the second
// allocates at most a tenth of the bytes it restores. The first restore
// allocates the block's section buffers and the optimizer's velocity
// tensors; from then on sections are read into those buffers, state decodes
// to views over them, and the model and optimizer overwrite their own
// tensors.
func TestRestoreSteadyStateAllocation(t *testing.T) {
	const epochs = 24
	p := sgdProgram(epochs, nil)
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	var recorded []string
	runProgram(t, p, rt, func(s string) { recorded = append(recorded, s) })
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}

	// One P for the replay: the fetch path's scratch arena is a sync.Pool,
	// and a span released on one P is not always found from another — a miss
	// is a one-off refill that says nothing about the restore path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	allocated := make([]uint64, epochs)
	p2 := sgdProgram(epochs, func(epoch int) {
		runtime.ReadMemStats(&ms)
		allocated[epoch] = ms.TotalAlloc
	})
	rt2 := NewRuntime(p2, tracker, nil, st)
	rt2.SetCache(backmat.NewPayloadCache(1))
	rt2.SetMode(ModeReplayExec)
	rt2.SetProbes(map[string]bool{"main": true})
	var replayed []string
	runProgram(t, p2, rt2, func(s string) { replayed = append(replayed, s) })

	b, _ := rt2.Block("train")
	if s := b.Stats(); s.Restored != epochs || s.Executed != 0 {
		t.Fatalf("replay stats = %+v, want %d restores", s, epochs)
	}
	if len(replayed) != epochs || len(recorded) != epochs {
		t.Fatalf("%d replayed and %d recorded log lines, want %d", len(replayed), len(recorded), epochs)
	}
	for i := range recorded {
		if replayed[i] != recorded[i] {
			t.Fatalf("epoch %d: replay logged %s, record %s", i, replayed[i], recorded[i])
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the fetch path's scratch arena reallocates at random")
			}
		}
	}
	perRestore := uint64(b.Stats().RestoredBytes) / epochs
	if perRestore < 256<<10 {
		t.Fatalf("checkpoints hold %d bytes; too small for the guard to mean anything", perRestore)
	}
	var worst uint64
	for e := 2; e < epochs; e++ {
		got := allocated[e] - allocated[e-1]
		if got > perRestore/10 {
			t.Fatalf("restore %d allocated %d bytes to restore %d (%.0f%%); steady state must stay under 10%%",
				e, got, perRestore, 100*float64(got)/float64(perRestore))
		}
		worst = max(worst, got)
	}
	t.Logf("restores of %d bytes: the second allocated %d, the worst after it %d", perRestore, allocated[1]-allocated[0], worst)
}
