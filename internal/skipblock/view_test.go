package skipblock

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// viewProgram trains a small residual MLP with SGD momentum on noise
// gradients: each epoch's checkpoint carries the model, the optimizer's
// velocities and a float. An Opaque "holder" reaches the model by pointer.
// After the train loop comes the probe log statement, then, with observe, an
// ordinary statement that reads the model and the optimizer into "seen" and
// a log statement of it.
func viewProgram(epochs int, probe func(e *script.Env) (string, error), observe bool) *script.Program {
	train := &script.Loop{ID: "train", IterVar: "step", Iters: 1, Body: []script.Stmt{
		script.ExprMethod("optimizer", "step", nil, func(e *script.Env) error {
			o := e.MustGet("optimizer").(*value.Optimizer).O
			rng := xrand.New(uint64(e.Int("epoch")))
			for _, p := range o.Model().Params() {
				p.Var.Grad = tensor.Randn(rng, 0.01, p.Var.Value.Shape()...)
			}
			o.Step()
			return nil
		}),
		script.AssignExpr([]string{"loss"}, []string{"epoch"}, func(e *script.Env) error {
			e.SetFloat("loss", 1/float64(1+e.Int("epoch")))
			return nil
		}),
	}}
	body := []script.Stmt{script.LoopStmt(train), script.LogStmt("probe", probe)}
	if observe {
		body = append(body,
			script.AssignFunc([]string{"seen"}, "observe", []string{"net", "optimizer"}, func(e *script.Env) error {
				e.SetFloat("seen", nn.WeightNorm(e.MustGet("net").(*value.Model).M)+velocityNorm(e))
				return nil
			}),
			script.LogStmt("seen", func(e *script.Env) (string, error) { return formatFloat(e.Float("seen")), nil }),
		)
	}
	return &script.Program{
		Name: "viewprog",
		Setup: []script.Stmt{
			script.AssignFunc([]string{"net", "optimizer", "holder", "loss", "seen"}, "build", nil, func(e *script.Env) error {
				m := nn.NewResidualMLP(xrand.New(3), 8, 16, 16, 2, 4)
				e.Set("net", &value.Model{M: m})
				e.Set("optimizer", &value.Optimizer{O: opt.NewSGD(m, 0.05, 0.9, 1e-4)})
				e.Set("holder", &value.Opaque{V: m})
				e.SetFloat("loss", 0)
				e.SetFloat("seen", 0)
				return nil
			}),
		},
		Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: body},
	}
}

// velocityNorm reads the optimizer and folds its state's tensor norms, in
// name order.
func velocityNorm(e *script.Env) float64 {
	st := e.MustGet("optimizer").(*value.Optimizer).O.Snapshot()
	sum := 0.0
	for _, k := range slices.Sorted(maps.Keys(st.Tensors)) {
		sum += st.Tensors[k].Tensor().Norm()
	}
	return sum
}

// modelNorm is the probe's first read: the model's weight norm.
func modelNorm(e *script.Env) string {
	return formatFloat(nn.WeightNorm(e.MustGet("net").(*value.Model).M))
}

// vanillaLog runs p uninstrumented and returns its log.
func vanillaLog(t *testing.T, p *script.Program) []string {
	t.Helper()
	var logs []string
	if err := script.Run(&script.Ctx{Env: script.NewEnv(), Log: func(l string) { logs = append(logs, l) }}, p); err != nil {
		t.Fatal(err)
	}
	return logs
}

// recordProgram records p and returns its store.
func recordProgram(t *testing.T, p *script.Program) *store.Store {
	t.Helper()
	rt, st, mat, _ := newHarness(t, p, backmat.Fork)
	runProgram(t, p, rt, nil)
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// warmReplays replays p's main loop over st rounds times, each through a
// fresh runtime sharing cache, checks that every replay logs want, and
// returns the last replay's runtime. Admission takes two touches, so the
// third replay is the first whose reads can find their sections cached.
func warmReplays(t *testing.T, st *store.Store, factory func() *script.Program, cache *backmat.PayloadCache, rounds int, want []string) *Runtime {
	t.Helper()
	var rt *Runtime
	for round := 0; round < rounds; round++ {
		p := factory()
		rt = NewRuntime(p, newTracker(), nil, st)
		rt.SetCache(cache)
		rt.SetMode(ModeReplayExec)
		rt.SetProbes(map[string]bool{"main": true})
		var logs []string
		runProgram(t, p, rt, func(l string) { logs = append(logs, l) })
		sameLines(t, fmt.Sprintf("replay %d", round), logs, want)
	}
	return rt
}

// TestViewLifetime is the view battery. Each case records a program, replays
// it three times over one shared payload cache, and requires every replay to
// log what the uninstrumented program logs; the third replay's reads find
// their sections cached, so it is the one that views, and its counters say
// how many reads a view served.
func TestViewLifetime(t *testing.T) {
	const epochs = 4
	for _, tc := range []struct {
		name    string
		probe   func(e *script.Env) (string, error)
		observe bool
		// viewed is how many reads the third replay serves from a view, and
		// loaded whether it also loads the model.
		viewed int
		loaded bool
	}{
		{
			// The florperf probe's order: the int read keeps the view.
			name: "model then int",
			probe: func(e *script.Env) (string, error) {
				return modelNorm(e) + fmt.Sprintf(" epoch=%d", e.Int("epoch")), nil
			},
			viewed: epochs,
		},
		{
			// The optimizer's closure includes the model: the view is handed
			// back and the model loaded before the optimizer loads, so the
			// ordinary statement after sees both as checkpointed.
			name: "model then optimizer",
			probe: func(e *script.Env) (string, error) {
				return modelNorm(e) + " " + formatFloat(velocityNorm(e)), nil
			},
			observe: true,
			viewed:  epochs,
			loaded:  true,
		},
		{
			// An Opaque names nothing to follow: its read loads everything.
			name: "model then opaque",
			probe: func(e *script.Env) (string, error) {
				return modelNorm(e) + " " + formatFloat(nn.WeightNorm(e.MustGet("holder").(*value.Opaque).V.(nn.Module))), nil
			},
			observe: true,
			viewed:  epochs,
			loaded:  true,
		},
		{
			// The view ends with its statement; the next statement's Sync
			// loads what it showed into the live model.
			name:    "ordinary statement after",
			probe:   func(e *script.Env) (string, error) { return modelNorm(e), nil },
			observe: true,
			viewed:  epochs,
			loaded:  true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			factory := func() *script.Program { return viewProgram(epochs, tc.probe, tc.observe) }
			want := vanillaLog(t, factory())
			st := recordProgram(t, factory())
			cache := backmat.NewPayloadCache(0)
			rt := warmReplays(t, st, factory, cache, 3, want)
			b, _ := rt.Block("train")
			s := b.Stats()
			if s.Viewed != tc.viewed || s.ViewedBytes == 0 || s.Restored != epochs {
				t.Fatalf("third replay stats %+v, want %d reads served by views", s, tc.viewed)
			}
			if tc.loaded != (s.RestoredBytes > 0) {
				t.Fatalf("third replay stats %+v: loaded bytes, want the model loaded = %v", s, tc.loaded)
			}
		})
	}
}

// TestViewCacheMissPullsAsToday: with a cache too small to admit anything,
// every read loads exactly as before views existed, and the view's failed
// probe of the cache counts no miss — each load counts its one.
func TestViewCacheMissPullsAsToday(t *testing.T) {
	const epochs = 4
	factory := func() *script.Program {
		return viewProgram(epochs, func(e *script.Env) (string, error) { return modelNorm(e), nil }, false)
	}
	want := vanillaLog(t, factory())
	st := recordProgram(t, factory())
	cache := backmat.NewPayloadCache(1)
	rt := warmReplays(t, st, factory, cache, 3, want)
	b, _ := rt.Block("train")
	if s := b.Stats(); s.Viewed != 0 || s.ViewedBytes != 0 || s.RestoredBytes == 0 {
		t.Fatalf("stats %+v, want every read loaded and none viewed", s)
	}
	if cs := cache.Stats(); cs.Hits != 0 || cs.Misses != 3*epochs {
		t.Fatalf("cache stats %+v, want no hit and one miss per load (%d)", cs, 3*epochs)
	}
}

// TestViewShowsTheYoungerBinding is the tensor case over two loops that
// checkpoint one name: a log statement between the loops views the first
// loop's w, and the one after both the second's, which the first's is
// older than. A view that outlived its statement would show the first
// loop's w in the second statement.
func TestViewShowsTheYoungerBinding(t *testing.T) {
	const epochs = 4
	factory := func() *script.Program {
		p := twoLoopProgram(epochs)
		p.Main.Body = slices.Insert(p.Main.Body, 1, script.LogStmt("w-grown", func(e *script.Env) (string, error) {
			return formatFloat(e.MustGet("w").(*value.Tensor).T.Sum()), nil
		}))
		return p
	}
	want := vanillaLog(t, factory())
	st := recordProgram(t, factory())
	cache := backmat.NewPayloadCache(0)
	rt := warmReplays(t, st, factory, cache, 3, want)
	for _, id := range []string{"grow", "scale"} {
		b, _ := rt.Block(id)
		if s := b.Stats(); s.Viewed != epochs {
			t.Fatalf("%s stats %+v, want each epoch's w viewed once", id, s)
		}
	}
	if !strings.Contains(strings.Join(want, "\n"), "w-grown: ") {
		t.Fatal("the log between the loops logged nothing")
	}
}
