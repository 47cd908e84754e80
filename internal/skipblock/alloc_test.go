package skipblock

import (
	"runtime"
	"runtime/debug"
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
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
			// The gradient tensors are allocated once and refilled, so that
			// what a recorded epoch allocates is its checkpoint's doing.
			o := e.MustGet("optimizer").(*value.Optimizer).O
			rng := xrand.New(uint64(e.Int("epoch")))
			for _, p := range o.Model().Params() {
				if p.Var.Grad == nil {
					p.Var.Grad = tensor.New(p.Var.Value.Shape()...)
				}
				g := p.Var.Grad.Data()
				for i := range g {
					g[i] = 0.01 * rng.NormFloat64()
				}
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
// load reads its sections, an epoch's load after the second allocates at
// most a tenth of the bytes it loads. The log statement reads the model
// alone, so a load is the model's section — the optimizer's is never
// fetched — and the section is read straight into the model's tensors
// (value.LiveLayout): no section buffer, no decoded payload.
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
	skipUnderRace(t)
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

// TestFirstRestoreAllocation pins that a fresh worker's first cold load
// allocates under a tenth of the bytes it restores: the model section lands
// in the live tensors, so nothing section-sized is allocated even once. A
// first replay warms what the process keeps across workers (the fetch
// arena); the measured one starts from a new runtime, a new environment
// and a new model, as every query's workers do.
func TestFirstRestoreAllocation(t *testing.T) {
	skipUnderRace(t)
	const epochs = 4
	p := sgdProgram(epochs, nil)
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	runProgram(t, p, rt, func(string) {})
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the arena is a sync.Pool, as above
	replay := func(afterEpoch func(int)) *Runtime {
		p := sgdProgram(epochs, afterEpoch)
		rt := NewRuntime(p, tracker, nil, st)
		rt.SetCache(backmat.NewPayloadCache(1))
		rt.SetMode(ModeReplayExec)
		rt.SetProbes(map[string]bool{"main": true})
		runProgram(t, p, rt, func(string) {})
		return rt
	}
	replay(nil)
	var ms runtime.MemStats
	allocated := make([]uint64, epochs)
	rt2 := replay(func(epoch int) {
		runtime.ReadMemStats(&ms)
		allocated[epoch] = ms.TotalAlloc
	})
	b, _ := rt2.Block("train")
	perRestore := uint64(b.Stats().RestoredBytes) / epochs
	if perRestore < 256<<10 {
		t.Fatalf("checkpoints hold %d bytes; too small for the guard to mean anything", perRestore)
	}
	// The hook runs as epoch e's log statement starts, before it reads the
	// model: epoch 0's load falls between allocated[0] and allocated[1].
	if got := allocated[1] - allocated[0]; got > perRestore/10 {
		t.Fatalf("the first restore allocated %d bytes to restore %d (%.0f%%); it must stay under 10%%",
			got, perRestore, 100*float64(got)/float64(perRestore))
	} else {
		t.Logf("the first restore of %d bytes allocated %d", perRestore, got)
	}
}

// skipUnderRace skips an allocation guard when the race detector is on:
// sync.Pool then drops a quarter of its Puts, so the store's scratch arena
// reallocates at random.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the scratch arena reallocates at random")
			}
		}
	}
}

// TestMaterializeSteadyStateAllocation is the allocation guard of the write
// path, the twin of the restore guard above: recording through Fork, a
// checkpoint after the fourth allocates at most a tenth of the bytes it
// materializes. The first two allocate the materializer's two section-buffer
// sets (the free list hands out every empty set before it hands one back) and
// the first append the arena's staging span; from then on live state is
// encoded into those buffers, hashed once and staged in that span.
func TestMaterializeSteadyStateAllocation(t *testing.T) {
	skipUnderRace(t)
	const epochs = 24
	// One P, as above: the pack append stages frames in the sync.Pool arena.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	allocated := make([]uint64, epochs)
	p := sgdProgram(epochs, func(epoch int) {
		runtime.ReadMemStats(&ms)
		allocated[epoch] = ms.TotalAlloc
	})
	rt, _, mat, _ := newHarness(t, p, backmat.Fork)
	runProgram(t, p, rt, func(string) {})
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	stats := mat.Stats()
	if stats.Checkpoints != epochs {
		t.Fatalf("materialized %d checkpoints, want %d", stats.Checkpoints, epochs)
	}
	perCheckpoint := uint64(stats.BytesWritten) / epochs
	if perCheckpoint < 256<<10 {
		t.Fatalf("checkpoints hold %d bytes; too small for the guard to mean anything", perCheckpoint)
	}
	// allocated[e] is read after checkpoint e was handed off, while the
	// writer may still be busy with e-1 and e-2: a difference charges an
	// epoch with whatever the writer allocated meanwhile, which is the point.
	var worst uint64
	for e := 4; e < epochs; e++ {
		got := allocated[e] - allocated[e-1]
		if got > perCheckpoint/10 {
			t.Fatalf("checkpoint %d allocated %d bytes to materialize %d (%.0f%%); steady state must stay under 10%%",
				e, got, perCheckpoint, 100*float64(got)/float64(perCheckpoint))
		}
		worst = max(worst, got)
	}
	t.Logf("checkpoints of %d bytes: the second to the fourth allocated %d, the worst after them %d",
		perCheckpoint, allocated[3]-allocated[0], worst)
}

// attrSink keeps the reference map of TestTracedLoadAllocation alive, so the
// compiler cannot build it on the stack.
var attrSink map[string]int64

// TestTracedLoadAllocation pins what a trace adds to a load: the restore
// span and its attribute map, made at its final size with keys the store's
// tier table spells once — not a name built per tier on every load, nor a
// map grown entry by entry. The same model-only load runs untraced and
// traced under testing.AllocsPerRun; the difference may be at most what
// building a map of the span's keys alone allocates, plus one for the
// trace's span list growing.
func TestTracedLoadAllocation(t *testing.T) {
	skipUnderRace(t)
	const epochs = 4
	p := sgdProgram(epochs, nil)
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	runProgram(t, p, rt, func(string) {})
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	load := func(tr *obs.Trace) float64 {
		rt, _ := replayModelOnly(t, st, tracker, epochs, false, nil)
		rt.SetTrace(tr, 0)
		b, _ := rt.Block("train")
		bd := &binding{b: b, key: store.Key{LoopID: "train", Exec: 1}}
		names := []string{"net"}
		return testing.AllocsPerRun(50, func() {
			bd.done = bd.done[:0]
			if _, err := b.load(bd, names); err != nil {
				t.Fatal(err)
			}
		})
	}
	untraced := load(nil)
	tr := obs.NewTrace()
	traced := load(tr)

	spans := tr.Spans()
	if len(spans) == 0 || spans[len(spans)-1].Name != "restore" {
		t.Fatalf("the traced loads left no restore span: %v", spans)
	}
	attrs := spans[len(spans)-1].Attrs
	want := []string{"exec", "restored_bytes"}
	for _, tier := range []string{"scatter", "ranged", "cache", "remote", "cache_tier", "singleflight"} {
		want = append(want, tier+"_bytes", tier+"_frames")
	}
	if len(attrs) != len(want) {
		t.Fatalf("restore span attributes %v, want the keys %v", attrs, want)
	}
	for _, k := range want {
		if _, ok := attrs[k]; !ok {
			t.Fatalf("restore span attributes %v lack %q", attrs, k)
		}
	}
	if attrs["restored_bytes"] <= 0 || attrs["exec"] != 1 {
		t.Fatalf("restore span attributes %v: want exec 1 and the model's bytes", attrs)
	}
	mapAllocs := testing.AllocsPerRun(50, func() {
		m := make(map[string]int64, len(want))
		for _, k := range want {
			m[k] = 1
		}
		attrSink = m
	})
	if traced-untraced > mapAllocs+1 {
		t.Fatalf("a traced load allocates %v times, an untraced one %v: tracing may add the span's map (%v) and one more",
			traced, untraced, mapAllocs)
	}
	t.Logf("a load allocates %v times untraced and %v traced; the span's map alone %v", untraced, traced, mapAllocs)
}
