package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/data"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// parkRegistry collects, for every program instance a factory's setup
// built, a function that scribbles over that instance's state — so a test
// can poison a program while it sits in a park. The function is given the
// instance's index, to make every instance's poison its own.
type parkRegistry struct {
	mu  sync.Mutex
	all []func(i int)
}

func (r *parkRegistry) add(poison func(i int)) {
	r.mu.Lock()
	r.all = append(r.all, poison)
	r.mu.Unlock()
}

func (r *parkRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.all)
}

// poison overwrites the state of every program instance ever set up — the
// parked ones among them — with values no replay could produce. Call it
// only while no query runs.
func (r *parkRegistry) poison() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, poison := range r.all {
		poison(i)
	}
}

// poisonRNG sets r to a state no replay draws from.
func poisonRNG(r *xrand.RNG) {
	r.SetState([16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
}

// parkFactory builds a small training program whose every kind of state a
// parked program could carry over is visible in its log: a model, SGD
// momentum, an RNG drawing the batches, a step LR schedule, and a Float the
// training loop decays. "pre" logs all of it at the top of each epoch —
// at epoch 0 before any loop ran, so from setup's values — and whether the
// main loop's own name "note" exists yet.
func parkFactory(reg *parkRegistry, epochs, steps int) func() *script.Program {
	return func() *script.Program {
		type trainer struct{ ds *data.VectorDataset }
		train := &script.Loop{ID: "train", IterVar: "step", Iters: steps, Body: []script.Stmt{
			script.AssignMethod([]string{"batch"}, "rng", "intn", nil, func(e *script.Env) error {
				e.SetInt("batch", e.MustGet("rng").(*value.RNG).R.Intn(4))
				return nil
			}),
			script.AssignMethod([]string{"loss"}, "net", "fit", []string{"batch", "trainer"}, func(e *script.Env) error {
				m := e.MustGet("net").(*value.Model).M.(*nn.ResidualMLP)
				x, labels := e.MustGet("trainer").(*value.Opaque).V.(*trainer).ds.Batch(e.Int("epoch"), e.Int("batch"))
				tape := autograd.NewTape()
				nn.ZeroGrads(m)
				loss := tape.SoftmaxCrossEntropy(m.Forward(tape, autograd.NewConst(x)), labels)
				tape.Backward(loss)
				e.SetFloat("loss", loss.Value.Item()*e.Float("lr_scale"))
				return nil
			}),
			script.ExprMethod("optimizer", "step", nil, func(e *script.Env) error {
				e.MustGet("optimizer").(*value.Optimizer).O.Step()
				return nil
			}),
			script.ExprMethod("sched", "step", nil, func(e *script.Env) error {
				e.MustGet("sched").(*value.Scheduler).S.Step()
				return nil
			}),
			script.ExprMethod("lr_scale", "decay", []string{"batch"}, func(e *script.Env) error {
				f := e.MustGet("lr_scale").(*value.Float)
				f.V = f.V*0.9 + 0.01*float64(e.Int("batch"))
				return nil
			}),
		}}
		return &script.Program{
			Name: "parked",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"net", "optimizer", "sched", "rng", "trainer", "lr_scale", "loss"}, "build", nil, func(e *script.Env) error {
					m := nn.NewResidualMLP(xrand.New(5), 8, 8, 8, 1, 3)
					sgd := opt.NewSGD(m, 0.1, 0.9, 1e-4)
					sched := opt.NewStepLR(sgd, 3, 0.5)
					rng := xrand.New(9)
					e.Set("net", &value.Model{M: m})
					e.Set("optimizer", &value.Optimizer{O: sgd})
					e.Set("sched", &value.Scheduler{S: sched})
					e.Set("rng", &value.RNG{R: rng})
					e.Set("trainer", &value.Opaque{V: &trainer{ds: data.NewVectorDataset(3, 8, 3, 4, 4, 0.6)}})
					e.SetFloat("lr_scale", 1)
					e.SetFloat("loss", 0)
					scale, _ := e.Get("lr_scale")
					// The poison reaches every kind of state: tensors, optimizer
					// momentum and learning rate, RNG, LR scheduler, the setup
					// Float epoch 0 logs before any loop binds it, and the name
					// the main loop creates.
					reg.add(func(i int) {
						st := opt.NewState()
						st.Scalars["lr"] = 99
						for _, p := range m.Params() {
							d := p.Var.Value.Data()
							for j := range d {
								d[j] = 7 + float64(i)
							}
							st.Tensors["vel."+p.Name] = codec.Dense{T: tensor.Full(3, p.Var.Value.Shape()...)}
						}
						if err := sgd.Restore(st); err != nil {
							panic(err)
						}
						sst := opt.NewState()
						sst.Scalars["epoch"] = 17
						if err := sched.Restore(sst); err != nil {
							panic(err)
						}
						poisonRNG(rng)
						scale.(*value.Float).V = -1
						e.Set("note", &value.Int{V: 99})
					})
					return nil
				}),
			},
			Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []script.Stmt{
				script.LogStmt("pre", func(e *script.Env) (string, error) {
					m := e.MustGet("net").(*value.Model).M
					sgd := e.MustGet("optimizer").(*value.Optimizer).O.(*opt.SGD)
					live := sgd.Live()
					vel := 0.0
					for _, p := range m.Params() {
						if d, ok := live.Tensors["vel."+p.Name]; ok {
							n := d.T.Norm()
							vel += n * n
						}
					}
					_, noted := e.Get("note")
					return fmt.Sprintf("epoch=%d scale=%.17g w=%.17g vel=%.17g lr=%.17g rng=%x sched=%v note=%v",
						e.Int("epoch"), e.Float("lr_scale"), nn.WeightNorm(m), vel, sgd.LR(),
						e.MustGet("rng").(*value.RNG).R.State(),
						e.MustGet("sched").(*value.Scheduler).S.Snapshot().Scalars["epoch"], noted), nil
				}),
				script.LoopStmt(train),
				script.LogStmt("post", func(e *script.Env) (string, error) {
					return fmt.Sprintf("epoch=%d loss=%.17g", e.Int("epoch"), e.Float("loss")), nil
				}),
				script.AssignExpr([]string{"note"}, []string{"epoch"}, func(e *script.Env) error {
					e.SetInt("note", e.Int("epoch"))
					return nil
				}),
			}},
			Tail: []script.Stmt{script.LogStmt("final", func(e *script.Env) (string, error) {
				return fmt.Sprintf("loss=%.17g w=%.17g", e.Float("loss"), nn.WeightNorm(e.MustGet("net").(*value.Model).M)), nil
			})},
		}
	}
}

// parkProbes returns the hindsight variants of base the tests query: a log
// after the training loop ("outer", the loop stays skipped), one inside it
// ("inner", the loop re-executes), and two for failure paths — "boom" fails
// at epoch 3, and "cancel" calls *cancel (when set) at epoch 2.
func parkProbes(base func() *script.Program, cancel *atomic.Pointer[context.CancelFunc]) map[string]func() *script.Program {
	with := func(edit func(p *script.Program)) func() *script.Program {
		return func() *script.Program {
			p := base()
			edit(p)
			return p
		}
	}
	return map[string]func() *script.Program{
		"base": base,
		"outer": with(func(p *script.Program) {
			p.Main.Body = script.AddLog(p.Main.Body, 2, script.LogStmt("hs_outer", func(e *script.Env) (string, error) {
				return fmt.Sprintf("w=%.17g loss=%.17g", nn.WeightNorm(e.MustGet("net").(*value.Model).M), e.Float("loss")), nil
			}))
		}),
		"inner": with(func(p *script.Program) {
			train := p.Main.Body[1].Loop
			train.Body = script.AddLog(train.Body, len(train.Body), script.LogStmt("hs_inner", func(e *script.Env) (string, error) {
				return fmt.Sprintf("step=%d loss=%.17g scale=%.17g", e.Int("step"), e.Float("loss"), e.Float("lr_scale")), nil
			}))
		}),
		"boom": with(func(p *script.Program) {
			p.Main.Body = script.AddLog(p.Main.Body, 2, script.LogStmt("hs_boom", func(e *script.Env) (string, error) {
				if e.Int("epoch") == 3 {
					return "", fmt.Errorf("boom")
				}
				return "ok", nil
			}))
		}),
		"cancel": with(func(p *script.Program) {
			p.Main.Body = script.AddLog(p.Main.Body, 2, script.LogStmt("hs_cancel", func(e *script.Env) (string, error) {
				if f := cancel.Load(); f != nil && e.Int("epoch") == 2 {
					(*f)()
				}
				return "ok", nil
			}))
		}),
	}
}

// parkOracle runs a program uninstrumented and returns its log lines by
// main-loop iteration, and the tail's.
func parkOracle(t *testing.T, factory func() *script.Program) (iters [][]string, tail []string) {
	t.Helper()
	p := factory()
	var cur []string
	ctx := &script.Ctx{Env: script.NewEnv(), Log: func(line string) { cur = append(cur, line) }}
	if err := script.ExecStmts(ctx, p.Setup); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < p.Main.Iters; e++ {
		cur = nil
		ctx.Env.SetInt(p.Main.IterVar, e)
		if err := script.ExecStmts(ctx, p.Main.Body); err != nil {
			t.Fatal(err)
		}
		iters = append(iters, cur)
	}
	cur = nil
	if err := script.ExecStmts(ctx, p.Tail); err != nil {
		t.Fatal(err)
	}
	return iters, cur
}

// recordParkRun records parkFactory into dir and registers it with srv under
// runID, with every probe of parkProbes.
func recordParkRun(t *testing.T, srv *serve.Server, runID, dir string, reg *parkRegistry, cancel *atomic.Pointer[context.CancelFunc], ropts core.RecordOptions) map[string]func() *script.Program {
	t.Helper()
	// Recording builds programs too; they are not the daemon's.
	if _, err := core.Record(dir, parkFactory(&parkRegistry{}, 6, 2), ropts); err != nil {
		t.Fatal(err)
	}
	probes := parkProbes(parkFactory(reg, 6, 2), cancel)
	if err := srv.Register(serve.RunConfig{ID: runID, Dir: dir, Factories: probes}); err != nil {
		t.Fatal(err)
	}
	return probes
}

func sameLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: logs differ from the uninstrumented oracle\n got: %q\nwant: %q", what, got, want)
	}
}

// parkMatrix queries each of probes on runID across replay, sample and
// stream × workers 1/2/4 × weak/strong init, poisoning every program
// instance of reg before each query, and fails unless every reply matches
// the uninstrumented program line for line and, from the second query on,
// the probe's park holds programs.
func parkMatrix(t *testing.T, srv *serve.Server, runID string, factories map[string]func() *script.Program, reg *parkRegistry, probes ...string) {
	t.Helper()
	ctx := context.Background()
	samples := [][]int{{0, 3}, {5, 1}, {2}, {0}, {4, 5}, {3, 0, 5}}
	for _, probe := range probes {
		iters, tail := parkOracle(t, factories[probe])
		full := slices.Concat(append(slices.Clone(iters), tail)...)
		cell := 0
		for _, kind := range []string{"replay", "sample", "stream"} {
			for _, workers := range []int{1, 2, 4} {
				for _, init := range []string{"weak", "strong"} {
					name := fmt.Sprintf("%s/%s/%s/workers=%d/%s", runID, probe, kind, workers, init)
					reg.poison()
					if cell > 0 {
						if n := serve.ParkOf(srv, runID, probe).Len(); n == 0 {
							t.Fatalf("%s: nothing parked after %d queries", name, cell)
						}
					}
					cell++
					its := samples[cell%len(samples)]
					var want []string
					for _, it := range slices.Sorted(slices.Values(its)) {
						want = append(want, iters[it]...)
					}
					switch kind {
					case "replay":
						res, err := srv.Replay(ctx, runID, serve.ReplayRequest{Probe: probe, Workers: workers, Init: init})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						sameLines(t, name, res.Logs, full)
					case "sample":
						res, err := srv.Sample(ctx, runID, serve.SampleRequest{Probe: probe, Iterations: its})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						sameLines(t, name, res.Logs, want)
					case "stream":
						var got []string
						_, err := srv.SampleStream(ctx, runID, serve.SampleRequest{Probe: probe, Iterations: its}, func(c serve.SampleChunk) error {
							sameLines(t, fmt.Sprintf("%s chunk %d", name, c.Iteration), c.Logs, iters[c.Iteration])
							got = append(got, c.Logs...)
							return nil
						})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						sameLines(t, name, got, want)
					}
				}
			}
		}
	}
}

// v1ParkFactory is the program of the committed format-v1 run
// (testdata/v1run: a 32-float tensor w that a seeded RNG perturbs three
// times per epoch for six epochs), registering a poison for every instance.
func v1ParkFactory(reg *parkRegistry) func() *script.Program {
	return func() *script.Program {
		train := &script.Loop{ID: "train", IterVar: "step", Iters: 3, Body: []script.Stmt{
			script.AssignMethod([]string{"w"}, "rng", "perturb", []string{"w"}, func(e *script.Env) error {
				w := e.MustGet("w").(*value.Tensor).T
				rng := e.MustGet("rng").(*value.RNG).R
				for pass := 0; pass < 30; pass++ {
					for i := 0; i < w.Len(); i++ {
						w.Data()[i] += rng.Float64() * 0.001
					}
				}
				return nil
			}),
		}}
		return &script.Program{
			Name: "api-quickstart",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"w"}, "zeros", nil, func(e *script.Env) error {
					e.Set("w", &value.Tensor{T: tensor.New(32)})
					return nil
				}),
				script.AssignFunc([]string{"rng"}, "RNG", nil, func(e *script.Env) error {
					rng := xrand.New(11)
					e.Set("rng", &value.RNG{R: rng})
					w := e.MustGet("w").(*value.Tensor).T
					reg.add(func(i int) {
						for j := range w.Data() {
							w.Data()[j] = 7 + float64(i)
						}
						poisonRNG(rng)
					})
					return nil
				}),
			},
			Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: 6, Body: []script.Stmt{
				script.LoopStmt(train),
				script.LogStmt("sum", func(e *script.Env) (string, error) {
					return fmt.Sprintf("%.17g", e.MustGet("w").(*value.Tensor).T.Sum()), nil
				}),
			}},
		}
	}
}

// v1ParkProbes returns hindsight variants of the v1 run's program: "outer"
// logs the RNG's state after the recorded log has read w — two logs of one
// epoch reading different names after the training loop was skipped — and
// "inner" logs inside the training loop, which re-executes.
func v1ParkProbes(base func() *script.Program) map[string]func() *script.Program {
	return map[string]func() *script.Program{
		"outer": func() *script.Program {
			p := base()
			p.Main.Body = script.AddLog(p.Main.Body, 2, script.LogStmt("hs_rng", func(e *script.Env) (string, error) {
				return fmt.Sprintf("rng=%x", e.MustGet("rng").(*value.RNG).R.State()), nil
			}))
			return p
		},
		"inner": func() *script.Program {
			p := base()
			train := p.Main.Body[0].Loop
			train.Body = script.AddLog(train.Body, 1, script.LogStmt("hs_w", func(e *script.Env) (string, error) {
				return fmt.Sprintf("step=%d w=%.17g", e.Int("step"), e.MustGet("w").(*value.Tensor).T.Norm()), nil
			}))
			return p
		},
	}
}

// rewriteOpaque stores every checkpoint of the run in dir again, whole, as
// one opaque section (store.Put): what the run's checkpoints hold is then
// known only by reading each one in full.
func rewriteOpaque(t *testing.T, dir string) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range st.Metas() {
		raw, err := st.Get(m.Key)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Put(m.Key, raw, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range st.Metas() {
		ck, err := st.Resolve(m.Key)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Sectioned() {
			t.Fatalf("%v is still sectioned after the rewrite", m.Key)
		}
	}
}

// TestParkedProgramIsIndistinguishableFromFresh pins that a program reused
// from a park answers exactly as a freshly set-up one: before every query
// each program instance ever built — the parked ones among them — is
// poisoned (tensors, momentum, LR, RNG, scheduler, a setup Float the first
// epoch logs before any loop binds it, the main loop's own name), and every
// reply must still match the uninstrumented program line for line, across
// replay, sample and stream × workers 1/2/4 × weak/strong init × an outer
// and an inner probe. It does so for a sectioned run, a run whose
// checkpoints are opaque and the committed format-v1 run: checkpoints of
// the last two are read whole, so a load restores names no log asked for.
// It also pins that a query that errors or whose caller cancels parks
// nothing, and that after a stale-store refresh no query takes a program
// whose runtime reads the superseded store.
func TestParkedProgramIsIndistinguishableFromFresh(t *testing.T) {
	const runID = "parked"
	srv := serve.New(serve.Options{Slots: 4})
	reg := &parkRegistry{}
	var cancel atomic.Pointer[context.CancelFunc]
	probes := recordParkRun(t, srv, runID, t.TempDir(), reg, &cancel, core.RecordOptions{DisableAdaptive: true})
	ctx := context.Background()
	parkMatrix(t, srv, runID, probes, reg, "outer", "inner")

	// Opaque checkpoints: "post" reads loss, then "hs_outer" reads net, and
	// the ordinary statement after them reaches everything.
	opaqueDir := t.TempDir()
	if _, err := core.Record(opaqueDir, parkFactory(&parkRegistry{}, 6, 2), core.RecordOptions{DisableAdaptive: true}); err != nil {
		t.Fatal(err)
	}
	rewriteOpaque(t, opaqueDir)
	opaqueReg := &parkRegistry{}
	opaqueProbes := parkProbes(parkFactory(opaqueReg, 6, 2), nil)
	if err := srv.Register(serve.RunConfig{ID: "parked-opaque", Dir: opaqueDir, Factories: opaqueProbes}); err != nil {
		t.Fatal(err)
	}
	parkMatrix(t, srv, "parked-opaque", opaqueProbes, opaqueReg, "outer", "inner")

	// The format-v1 run.
	v1Dir := t.TempDir()
	if err := os.CopyFS(v1Dir, os.DirFS(filepath.Join("..", "..", "testdata", "v1run"))); err != nil {
		t.Fatal(err)
	}
	v1Reg := &parkRegistry{}
	v1Probes := v1ParkProbes(v1ParkFactory(v1Reg))
	if err := srv.Register(serve.RunConfig{ID: "parked-v1", Dir: v1Dir, Factories: v1Probes}); err != nil {
		t.Fatal(err)
	}
	parkMatrix(t, srv, "parked-v1", v1Probes, v1Reg, "outer", "inner")

	// A query that errors parks nothing, though its workers set programs up.
	built := reg.count()
	if _, err := srv.Replay(ctx, runID, serve.ReplayRequest{Probe: "boom", Workers: 2}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("boom replay: err = %v, want the probe's failure", err)
	}
	if _, err := srv.Sample(ctx, runID, serve.SampleRequest{Probe: "boom", Iterations: []int{3}}); err == nil {
		t.Fatal("boom sample: no error")
	}
	if reg.count() == built {
		t.Fatal("the failing queries set no program up: the check below would be vacuous")
	}
	if n := serve.ParkOf(srv, runID, "boom").Len(); n != 0 {
		t.Fatalf("%d programs parked by failing queries", n)
	}
	if _, err := srv.Sample(ctx, runID, serve.SampleRequest{Probe: "boom", Iterations: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if n := serve.ParkOf(srv, runID, "boom").Len(); n != 1 {
		t.Fatalf("%d programs parked by a successful sample, want 1", n)
	}

	// A query whose caller cancels mid-replay parks nothing, whatever the
	// query returned.
	cctx, stop := context.WithCancel(ctx)
	cancel.Store(&stop)
	_, _ = srv.Replay(cctx, runID, serve.ReplayRequest{Probe: "cancel", Workers: 1})
	cancel.Store(nil)
	if cctx.Err() == nil {
		t.Fatal("the cancel probe never cancelled")
	}
	if n := serve.ParkOf(srv, runID, "cancel").Len(); n != 0 {
		t.Fatalf("%d programs parked by a cancelled query", n)
	}

	// Stale refresh: park programs on one store entry, let GC delete the pack
	// generation that entry reads, and query again. The superseded entry's
	// park is closed with it; the queries after the refresh run on the new
	// entry's programs, so none meets the deleted pack again.
	const staleID = "parked-gc"
	dir := t.TempDir()
	recordParkRun(t, srv, staleID, dir, &parkRegistry{}, &cancel, core.RecordOptions{DisableAdaptive: true})
	// One single-worker replay: it parks, and loads every checkpoint once,
	// which the payload cache only notes (it admits content on its second
	// touch) — so the next query's loads must go to the store.
	if _, err := srv.Replay(ctx, staleID, serve.ReplayRequest{Probe: "outer", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	old := serve.ParkOf(srv, staleID, "outer")
	if old.Len() == 0 {
		t.Fatal("nothing parked before the GC")
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var execs []int
	for _, m := range st.Metas() {
		if m.Key.LoopID == "train" {
			execs = append(execs, m.Key.Exec)
		}
	}
	supersedeAndExpire(t, st, store.Key{LoopID: "train", Exec: execs[0]}, store.Key{LoopID: "train", Exec: execs[len(execs)-1]})
	if _, err := srv.Replay(ctx, staleID, serve.ReplayRequest{Probe: "outer", Workers: 1}); err != nil {
		t.Fatalf("replay against the stale store: %v", err)
	}
	if rs := srv.Stats().Runs[staleID]; rs.StaleRefreshes != 1 {
		t.Fatalf("stale refreshes = %d, want 1", rs.StaleRefreshes)
	}
	if old.Len() != 0 {
		t.Fatalf("the superseded entry's park still holds %d programs", old.Len())
	}
	fresh := serve.ParkOf(srv, staleID, "outer")
	if fresh == old || fresh.Len() == 0 {
		t.Fatalf("after the refresh: park %p (was %p) holds %d programs", fresh, old, fresh.Len())
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Replay(ctx, staleID, serve.ReplayRequest{Probe: "outer", Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Sample(ctx, staleID, serve.SampleRequest{Probe: "outer", Iterations: []int{4, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if rs := srv.Stats().Runs[staleID]; rs.StaleRefreshes != 1 || rs.Errors != 0 {
		t.Fatalf("after more queries: stale refreshes = %d, errors = %d; want 1 and 0", rs.StaleRefreshes, rs.Errors)
	}
}

// TestParkedProgramsDrawFromThePayloadBudget pins what parked programs cost:
// their bytes come out of the entry's payload-cache budget, so a budget
// below one program parks nothing and costs no allocation; cached plus parked
// bytes never exceed the cap under concurrent queries; evicting a
// pool-attached run hands its reservation back to the pool's shared cache;
// and /v1/stats shows parked bytes against the cap.
func TestParkedProgramsDrawFromThePayloadBudget(t *testing.T) {
	ctx := context.Background()

	t.Run("below one program", func(t *testing.T) {
		dir := t.TempDir()
		srv := serve.New(serve.Options{PayloadCacheBytes: 1 << 10})
		probes := recordParkRun(t, srv, "tiny", dir, &parkRegistry{}, nil, core.RecordOptions{DisableAdaptive: true})
		for i := 0; i < 3; i++ {
			if _, err := srv.Replay(ctx, "tiny", serve.ReplayRequest{Probe: "outer", Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}
		if n := serve.ParkOf(srv, "tiny", "outer").Len(); n != 0 {
			t.Fatalf("%d programs parked under a 1 KiB budget", n)
		}
		if pc := srv.Stats().PayloadCaches["tiny"]; pc.ParkedBytes != 0 {
			t.Fatalf("parked bytes = %d under a 1 KiB budget", pc.ParkedBytes)
		}

		// Per query, a park that can hold nothing allocates nothing: the same
		// sample with and without one allocates alike.
		rec, err := core.LoadRecordingShared(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache := backmat.NewPayloadCache(1 << 10)
		park := replay.NewPark(rec, cache)
		sample := func(pk *replay.Park) func() {
			return func() {
				if _, err := replay.ReplaySampleWith(rec, probes["outer"], []int{2, 4}, replay.SampleOptions{Cache: cache, Park: pk}); err != nil {
					t.Fatal(err)
				}
			}
		}
		without := testing.AllocsPerRun(20, sample(nil))
		with := testing.AllocsPerRun(20, sample(park))
		if with > without {
			t.Fatalf("a sample allocates %.1f times with a park that holds nothing, %.1f without one", with, without)
		}
		if park.Len() != 0 || cache.Stats().ParkedBytes != 0 {
			t.Fatalf("park holds %d programs, %d bytes", park.Len(), cache.Stats().ParkedBytes)
		}
	})

	t.Run("concurrent queries stay under the cap", func(t *testing.T) {
		const runID = "capped"
		// Room for the snapshot and a few programs, and for some cached
		// content beside them: the two compete for one cap.
		srv := serve.New(serve.Options{Slots: 4, PayloadCacheBytes: 24 << 10})
		probes := recordParkRun(t, srv, runID, t.TempDir(), &parkRegistry{}, nil, core.RecordOptions{DisableAdaptive: true})
		iters, tail := parkOracle(t, probes["outer"])
		full := slices.Concat(append(slices.Clone(iters), tail)...)

		done := make(chan struct{})
		var polls sync.WaitGroup
		var maxParked, maxCached atomic.Int64
		var overCap atomic.Value
		polls.Add(1)
		go func() {
			defer polls.Done()
			for {
				pc := srv.Stats().PayloadCaches[runID]
				if pc.SizeBytes+pc.ParkedBytes > pc.CapBytes {
					overCap.Store(pc)
				}
				if pc.ParkedBytes > maxParked.Load() {
					maxParked.Store(pc.ParkedBytes)
				}
				if pc.SizeBytes > maxCached.Load() {
					maxCached.Store(pc.SizeBytes)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					if (c+i)%3 == 0 {
						res, err := srv.Sample(ctx, runID, serve.SampleRequest{Probe: "outer", Iterations: []int{(c + i) % 6}})
						if err == nil && !slices.Equal(res.Logs, iters[(c+i)%6]) {
							err = fmt.Errorf("sample %d: logs differ from the oracle", (c+i)%6)
						}
						if err != nil {
							errs <- err
							return
						}
						continue
					}
					res, err := srv.Replay(ctx, runID, serve.ReplayRequest{Probe: "outer", Workers: 1 + (c+i)%3})
					if err == nil && !slices.Equal(res.Logs, full) {
						err = fmt.Errorf("replay: logs differ from the oracle")
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(done)
		polls.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if pc := overCap.Load(); pc != nil {
			t.Fatalf("cached + parked bytes exceeded the cap: %+v", pc)
		}
		final := srv.Stats().PayloadCaches[runID]
		if final.SizeBytes+final.ParkedBytes > final.CapBytes {
			t.Fatalf("cached + parked bytes exceed the cap: %+v", final)
		}
		if maxParked.Load() == 0 || maxCached.Load() == 0 {
			t.Fatalf("max parked %d, max cached %d bytes: the budget was not shared", maxParked.Load(), maxCached.Load())
		}
	})

	t.Run("pool-attached eviction returns the reservation", func(t *testing.T) {
		base := t.TempDir()
		pool := filepath.Join(base, "POOL")
		srv := serve.New(serve.Options{StoreCacheSize: 1})
		for i := 0; i < 2; i++ {
			recordParkRun(t, srv, fmt.Sprintf("sib-%d", i), filepath.Join(base, fmt.Sprintf("sib-%d", i)), &parkRegistry{}, nil,
				core.RecordOptions{DisableAdaptive: true, Pool: pool})
		}
		// One worker per query parks one program: what a run holds is the
		// same after each of its queries.
		parked := func(runID string) int64 {
			t.Helper()
			if _, err := srv.Replay(ctx, runID, serve.ReplayRequest{Probe: "outer", Workers: 1}); err != nil {
				t.Fatal(err)
			}
			caches := srv.Stats().PayloadCaches
			if len(caches) != 1 {
				t.Fatalf("want the pool's one shared cache, got %d caches", len(caches))
			}
			for _, pc := range caches {
				return pc.ParkedBytes
			}
			return 0
		}
		a := parked("sib-0")
		b := parked("sib-1") // evicts sib-0
		c := parked("sib-0") // evicts sib-1
		d := parked("sib-1")
		if a == 0 || b == 0 || c != a || d != b {
			t.Fatalf("pool parked bytes after alternating evictions: %d, %d, %d, %d; want a, b, a, b with a, b > 0", a, b, c, d)
		}
	})

	t.Run("stats show parked bytes against the cap", func(t *testing.T) {
		srv := serve.New(serve.Options{})
		recordParkRun(t, srv, "shown", t.TempDir(), &parkRegistry{}, nil, core.RecordOptions{DisableAdaptive: true})
		if _, err := srv.Replay(ctx, "shown", serve.ReplayRequest{Probe: "outer", Workers: 2}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			PayloadCaches map[string]map[string]int64 `json:"payload_caches"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		pc := st.PayloadCaches["shown"]
		if pc["parked_bytes"] <= 0 || pc["cap_bytes"] != backmat.DefaultPayloadCacheBytes ||
			pc["size_bytes"]+pc["parked_bytes"] > pc["cap_bytes"] {
			t.Fatalf("/v1/stats payload cache = %v, want parked_bytes > 0 within cap_bytes", pc)
		}
	})
}
