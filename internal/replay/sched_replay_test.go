package replay_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/runlog"
	"flor.dev/flor/internal/sched"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// skewedFactory builds a training program whose per-epoch compute is
// head-heavy: the first eighth of the epochs do 40x the work (the "heavy
// probes on a few epochs" shape the cost-balanced scheduler exists for).
// The log output is identical regardless of how iterations are scheduled.
func skewedFactory(epochs, steps int) func() *script.Program {
	return func() *script.Program {
		train := &script.Loop{
			ID:      "train",
			IterVar: "step",
			Iters:   steps,
			Body: []script.Stmt{
				script.AssignMethod([]string{"w"}, "rng", "perturb", []string{"w", "epoch"}, func(e *script.Env) error {
					w := e.MustGet("w").(*value.Tensor).T
					rng := e.MustGet("rng").(*value.RNG).R
					passes := 5
					if e.Int("epoch") < epochs/8 {
						passes = 200
					}
					for pass := 0; pass < passes; pass++ {
						for i := 0; i < w.Len(); i++ {
							w.Data()[i] += rng.Float64() * 0.001
						}
					}
					return nil
				}),
			},
		}
		return &script.Program{
			Name: "skewtrain",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"w"}, "zeros", nil, func(e *script.Env) error {
					e.Set("w", &value.Tensor{T: tensor.New(64)})
					return nil
				}),
				script.AssignFunc([]string{"rng"}, "RNG", nil, func(e *script.Env) error {
					e.Set("rng", &value.RNG{R: xrand.New(99)})
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

// replayWith replays rec with the given factory and options and fails on
// error or anomalies.
func replayWith(t *testing.T, rec *core.RecordResult, factory func() *script.Program, opts replay.Options) *replay.Result {
	t.Helper()
	res, err := replay.Replay(rec.Recording, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("deferred check found anomalies at workers=%d init=%v: %v", opts.Workers, opts.Init, res.Anomalies[0])
	}
	return res
}

// TestReplayMatrixByteIdentical is the contract of the one executor: for
// every worker count x initialization x slot budget, on a densely and on a
// sparsely checkpointed recording, the merged log is byte-identical to the
// 1-worker replay of the same program, and the unprobed replay to the record
// log itself. Slot budgets below the worker count force workers to walk from
// lease to lease and late workers to find nothing; skewed costs make idle
// ones steal.
func TestReplayMatrixByteIdentical(t *testing.T) {
	factory := skewedFactory(24, 2)
	sparse, err := core.Record(t.TempDir(), factory, core.RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []struct {
		name string
		rec  *core.RecordResult
	}{
		{"dense", record(t, factory)},
		// Adaptive checkpointing on microsecond epochs materializes few or
		// no checkpoints: weak initialization falls back toward iteration 0
		// and stealing stands down wherever no anchor is reachable.
		{"sparse", sparse},
	} {
		for _, variant := range []struct {
			name    string
			factory func() *script.Program
		}{
			{"unprobed", factory},
			{"outer", addOuterProbe(factory)},
			{"inner", addInnerProbe(factory)},
		} {
			want := strings.Join(replayWith(t, prog.rec, variant.factory, replay.Options{Workers: 1}).Logs, "\n")
			if variant.name == "unprobed" && want != strings.Join(prog.rec.Logs, "\n") {
				t.Fatalf("%s: 1-worker unprobed replay differs from the record log", prog.name)
			}
			for _, workers := range []int{1, 2, 3, 4, 8} {
				for _, init := range []replay.InitMode{replay.Strong, replay.Weak} {
					for _, slots := range []int{0, 1, 2} {
						opts := replay.Options{Workers: workers, Init: init}
						var pool *sched.Pool
						if slots > 0 {
							pool = sched.NewPool(slots)
							opts.Slots = pool
						}
						res := replayWith(t, prog.rec, variant.factory, opts)
						if got := strings.Join(res.Logs, "\n"); got != want {
							t.Fatalf("%s/%s workers=%d init=%v slots=%d: logs diverge from the 1-worker replay:\n got: %.200s\nwant: %.200s",
								prog.name, variant.name, workers, init, slots, got, want)
						}
						if len(res.Workers) < 1 || len(res.Workers) > workers {
							t.Fatalf("%s/%s workers=%d slots=%d: %d workers reported", prog.name, variant.name, workers, slots, len(res.Workers))
						}
						if pool != nil {
							if st := pool.Stats(); st.InUse != 0 || st.Waiting != 0 {
								t.Fatalf("%s/%s workers=%d slots=%d: pool not drained: %+v", prog.name, variant.name, workers, slots, st)
							}
						}
					}
				}
			}
		}
	}
}

// TestOneSlotRunsOneWorker: a replay squeezed to one slot degrades to one
// sequential worker — it walks the initial leases in order with no
// re-initialization, and the workers granted the slot afterwards find
// nothing and leave before building a program. (One statically assigned
// worker per segment used to pay four setups and three restores here.)
func TestOneSlotRunsOneWorker(t *testing.T) {
	factory := trainFactory(8, 3)
	rec := record(t, factory)
	tr := obs.NewTrace()
	pool := sched.NewPool(1)
	res := replayWith(t, rec, addOuterProbe(factory), replay.Options{
		Workers: 4, Init: replay.Weak, Slots: pool, Cache: backmat.NewPayloadCache(0), Trace: tr,
	})
	if len(res.Workers) != 1 {
		t.Fatalf("%d workers reported, want 1", len(res.Workers))
	}
	if res.Steals != 0 || res.Workers[0].Stolen != 0 || res.Workers[0].InitNs != 0 {
		t.Fatalf("sequential walk stole or re-initialized: steals=%d report=%+v", res.Steals, res.Workers[0])
	}
	if res.CFactor <= 0 {
		t.Fatalf("CFactor = %v, want > 0", res.CFactor)
	}
	setups, next := 0, 0
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "setup":
			setups++
		case "init":
			t.Fatalf("init span %+v on a walk over adjacent leases", sp)
		case "work":
			if sp.Attrs["stolen"] != 0 || int(sp.Attrs["start"]) != next {
				t.Fatalf("work span %+v: want an unstolen lease starting at %d", sp.Attrs, next)
			}
			next = int(sp.Attrs["end"])
		}
	}
	if setups != 1 || next != 8 {
		t.Fatalf("%d setup spans, leases end at %d; want 1 and 8", setups, next)
	}
	if st := pool.Stats(); st.InUse != 0 || st.Acquires > 4 {
		t.Fatalf("pool stats = %+v", st)
	}
}

// stingySlots grants exactly one slot, ever: every later Acquire waits until
// its context is done and fails with the context's error.
type stingySlots struct {
	mu      sync.Mutex
	granted bool
}

func (s *stingySlots) Acquire(ctx context.Context, _ int64) error {
	s.mu.Lock()
	first := !s.granted
	s.granted = true
	s.mu.Unlock()
	if first {
		return nil
	}
	<-ctx.Done()
	return ctx.Err()
}

func (s *stingySlots) Release() {}

// TestReplayEndsWhenWorkDoes: workers still queued for a slot once every
// iteration has been handed out are taken off the queue, and their failed
// wait is not the replay's failure. (With one worker per segment the replay
// needed every worker to be granted a slot: this one never returned.)
func TestReplayEndsWhenWorkDoes(t *testing.T) {
	factory := trainFactory(8, 3)
	rec := record(t, factory)
	res := replayWith(t, rec, addInnerProbe(factory), replay.Options{Workers: 4, Slots: &stingySlots{}})
	if len(res.Workers) != 1 {
		t.Fatalf("%d workers reported, want 1", len(res.Workers))
	}
	want := replayWith(t, rec, addInnerProbe(factory), replay.Options{Workers: 1})
	if strings.Join(res.Logs, "\n") != strings.Join(want.Logs, "\n") {
		t.Fatal("logs diverge from the 1-worker replay")
	}

	// A wait that fails while work remains is still the replay's failure.
	// The pool's one slot is taken, so no worker can finish the work before
	// another's wait fails.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	busy := sched.NewPool(1)
	if err := busy.Acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Replay(rec.Recording, factory, replay.Options{Workers: 2, Slots: busy, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("replay under a cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestReplayZeroIterationLoop: a program whose main loop runs zero times
// still has a setup and a tail, and its record log holds the tail's line.
// Replay runs one worker through setup and tail whatever Workers says. (No
// worker used to be spawned: empty log, one anomaly.)
func TestReplayZeroIterationLoop(t *testing.T) {
	factory := trainFactory(0, 2)
	rec := record(t, factory)
	if len(rec.Logs) != 1 {
		t.Fatalf("record log = %v, want the tail's line", rec.Logs)
	}
	for _, workers := range []int{1, 4} {
		for _, init := range []replay.InitMode{replay.Strong, replay.Weak} {
			res := replayWith(t, rec, factory, replay.Options{Workers: workers, Init: init})
			if strings.Join(res.Logs, "\n") != strings.Join(rec.Logs, "\n") {
				t.Fatalf("workers=%d: replay log %v, record log %v", workers, res.Logs, rec.Logs)
			}
			if len(res.Workers) != 1 {
				t.Fatalf("workers=%d: %d workers reported, want 1", workers, len(res.Workers))
			}
		}
	}
}

// TestInitialLeasesRespectSkew verifies the partitioner actually consumes
// the recording's timings: with a deterministic head-heavy timing vector
// injected into the recording, the lease starting at iteration 0 must be
// shorter than the uniform split would make it. (The timings are injected
// rather than wall-clock-measured so the partition is independent of
// machine load; end-to-end timing capture has its own coverage.)
func TestInitialLeasesRespectSkew(t *testing.T) {
	factory := skewedFactory(32, 3)
	rec := record(t, factory)
	iters := make([]int64, 32)
	for e := range iters {
		iters[e] = 1_000_000
		if e < 4 {
			iters[e] = 40_000_000
		}
	}
	rec.Recording.Timings = &runlog.Timings{SetupNs: 1000, IterNs: iters}
	res := replayWith(t, rec, addInnerProbe(factory), replay.Options{Workers: 4, Init: replay.Weak})
	// The head eighth (4 epochs) does 40x the per-epoch work, so the first
	// lease must be shorter than the uniform 32/4 = 8 iterations.
	for _, w := range res.Workers {
		if w.Segment[0] == 0 {
			if w.Segment[1] >= 8 {
				t.Fatalf("first lease %v ignores the recorded head skew", w.Segment)
			}
			return
		}
	}
	t.Fatalf("no worker reports the lease starting at 0: %+v", res.Workers)
}
