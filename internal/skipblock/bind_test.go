package skipblock

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flor.dev/flor/internal/adapt"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// twoLoopProgram has two instrumented loops per epoch that checkpoint one
// shared name: "grow" adds RNG noise to w, "scale" multiplies w by a factor
// the epoch decides — reaching it through a Go pointer its closure captured,
// not through the environment — and each also writes a float of its own. The "holder"
// Opaque reaches w's tensor by pointer. The main loop's logs read w by name,
// the floats, and w through the Opaque alone.
func twoLoopProgram(epochs int) *script.Program {
	var held *tensor.Tensor // w's tensor, set by setup
	grow := &script.Loop{ID: "grow", IterVar: "i", Iters: 2, Body: []script.Stmt{
		script.AssignMethod([]string{"grown"}, "w", "grow", []string{"rng"}, func(e *script.Env) error {
			w := e.MustGet("w").(*value.Tensor).T
			rng := e.MustGet("rng").(*value.RNG).R
			for i := range w.Data() {
				w.Data()[i] += rng.Float64()
			}
			e.SetFloat("grown", w.Sum())
			return nil
		}),
		script.ExprMethod("rng", "advance", nil, func(e *script.Env) error {
			e.MustGet("rng").(*value.RNG).R.Uint64()
			return nil
		}),
	}}
	scale := &script.Loop{ID: "scale", IterVar: "j", Iters: 1, Body: []script.Stmt{
		script.AssignMethod([]string{"scaled"}, "w", "scale", []string{"epoch"}, func(e *script.Env) error {
			f := 1.5 - 0.125*float64(e.Int("epoch"))
			for i := range held.Data() {
				held.Data()[i] *= f
			}
			e.SetFloat("scaled", f)
			return nil
		}),
	}}
	return &script.Program{
		Name: "twoloops",
		Setup: []script.Stmt{
			script.AssignFunc([]string{"w", "rng", "holder", "grown", "scaled"}, "build", nil, func(e *script.Env) error {
				held = tensor.New(32)
				e.Set("w", &value.Tensor{T: held})
				e.Set("rng", &value.RNG{R: xrand.New(5)})
				e.Set("holder", &value.Opaque{V: held})
				e.SetFloat("grown", 0)
				e.SetFloat("scaled", 0)
				return nil
			}),
		},
		Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []script.Stmt{
			script.LoopStmt(grow),
			script.LoopStmt(scale),
			script.LogStmt("w", func(e *script.Env) (string, error) {
				return formatFloat(e.MustGet("w").(*value.Tensor).T.Sum()), nil
			}),
			script.LogStmt("floats", func(e *script.Env) (string, error) {
				return fmt.Sprintf("epoch=%d grown=%.17g scaled=%.17g", e.Int("epoch"), e.Float("grown"), e.Float("scaled")), nil
			}),
			script.LogStmt("held", func(e *script.Env) (string, error) {
				return formatFloat(e.MustGet("holder").(*value.Opaque).V.(*tensor.Tensor).Norm()), nil
			}),
		}},
	}
}

// recordTwoLoops records twoLoopProgram and returns its store and log.
func recordTwoLoops(t *testing.T, epochs int) (*store.Store, []string) {
	t.Helper()
	p := twoLoopProgram(epochs)
	rt, st, mat, _ := newHarness(t, p, backmat.Fork)
	var logs []string
	runProgram(t, p, rt, func(l string) { logs = append(logs, l) })
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	return st, logs
}

// replayTwoLoops replays p over st in replay-execution mode with the given
// probed loops and returns the runtime, the environment and the log.
func replayTwoLoops(t *testing.T, st *store.Store, p *script.Program, probes map[string]bool) (*Runtime, *script.Env, []string) {
	t.Helper()
	rt := NewRuntime(p, newTracker(), nil, st)
	rt.SetMode(ModeReplayExec)
	rt.SetProbes(probes)
	var logs []string
	env := runProgram(t, p, rt, func(l string) { logs = append(logs, l) })
	return rt, env, logs
}

// keepLogs returns p with only the main-loop log statements whose labels are
// listed (and every other statement).
func keepLogs(p *script.Program, labels ...string) *script.Program {
	var body []script.Stmt
	for _, s := range p.Main.Body {
		keep := !s.IsLog
		for _, l := range labels {
			keep = keep || s.Label == l
		}
		if keep {
			body = append(body, s)
		}
	}
	p.Main.Body = body
	return p
}

// linesOf filters a log down to the lines of the given labels.
func linesOf(logs []string, labels ...string) []string {
	var out []string
	for _, l := range logs {
		for _, label := range labels {
			if strings.HasPrefix(l, label+": ") {
				out = append(out, l)
			}
		}
	}
	return out
}

func sameLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
	}
}

// TestBoundLoopsSharingANameLoadInBindOrder is pull rule 4: both loops of an
// epoch are skipped and bound before anything reads w, which both
// checkpoints carry. The read must land the older binding's w first and the
// younger's last; the other order leaves w as it stood between the loops.
func TestBoundLoopsSharingANameLoadInBindOrder(t *testing.T) {
	st, recorded := recordTwoLoops(t, 4)
	rt, _, logs := replayTwoLoops(t, st, keepLogs(twoLoopProgram(4), "w"), map[string]bool{"main": true})
	sameLines(t, "w read after two binds", logs, linesOf(recorded, "w"))
	for _, id := range []string{"grow", "scale"} {
		b, _ := rt.Block(id)
		if s := b.Stats(); s.Restored != 4 || s.Executed != 0 || s.RestoredBytes == 0 {
			t.Fatalf("%s stats = %+v, want 4 skips, each loading its w", id, s)
		}
	}
}

// TestWriteBetweenBindAndReadIsNotRolledBack is pull rule 3: a SetFloat or
// SetInt of a checkpointed name after its loop was skipped retires the name
// from the bound checkpoint, so the load a later read triggers brings in the
// checkpoint's other names and leaves the written one alone.
func TestWriteBetweenBindAndReadIsNotRolledBack(t *testing.T) {
	st, recorded := recordTwoLoops(t, 2)
	p := twoLoopProgram(2)
	rt := NewRuntime(p, newTracker(), nil, st)
	rt.SetMode(ModeReplayExec)
	ctx := &script.Ctx{Env: script.NewEnv(), LoopHook: rt.Hook}
	if err := script.ExecStmts(ctx, p.Setup); err != nil {
		t.Fatal(err)
	}
	ctx.Env.SetInt("epoch", 0)
	if err := script.ExecStmts(ctx, p.Main.Body[:2]); err != nil { // both loops skipped and bound
		t.Fatal(err)
	}
	ctx.Env.SetFloat("grown", -1)
	ctx.Env.Set("scaled", &value.Float{V: -2})
	var logs []string
	ctx.Log = func(l string) { logs = append(logs, l) }
	if err := script.ExecStmts(ctx, p.Main.Body[2:]); err != nil {
		t.Fatal(err)
	}
	want := linesOf(recorded[:3], "w", "held")
	sameLines(t, "names not written", linesOf(logs, "w", "held"), want)
	sameLines(t, "names written after the bind", linesOf(logs, "floats"), []string{"floats: epoch=0 grown=-1 scaled=-2"})
}

// TestOpaqueReadLoadsEverything is pull rule 2's far end: the only log
// statement reaches w through an Opaque, which names nothing the runtime can
// follow, so the read must load every bound name.
func TestOpaqueReadLoadsEverything(t *testing.T) {
	st, recorded := recordTwoLoops(t, 3)
	_, env, logs := replayTwoLoops(t, st, keepLogs(twoLoopProgram(3), "held"), map[string]bool{"main": true})
	sameLines(t, "w read through the Opaque", logs, linesOf(recorded, "held"))
	// Everything was loaded, not just w: the RNG sits where record left it.
	vanilla := &script.Ctx{Env: script.NewEnv()}
	if err := script.Run(vanilla, twoLoopProgram(3)); err != nil {
		t.Fatal(err)
	}
	if !env.MustGet("rng").Equal(vanilla.Env.MustGet("rng")) {
		t.Fatal("RNG state differs from an uninstrumented run's after the Opaque read")
	}
}

// TestExecutedLoopSeesBoundPredecessor is pull rule 1: "scale" is probed and
// re-executes right after "grow" was skipped and bound; its statement reaches
// w through a captured pointer and never asks the environment for it, so w
// must be loaded before the statement runs.
func TestExecutedLoopSeesBoundPredecessor(t *testing.T) {
	st, recorded := recordTwoLoops(t, 4)
	rt, _, logs := replayTwoLoops(t, st, twoLoopProgram(4), map[string]bool{"main": true, "scale": true})
	sameLines(t, "replay with scale re-executed", logs, recorded)
	g, _ := rt.Block("grow")
	s, _ := rt.Block("scale")
	if g.Stats().Restored != 4 || s.Stats().Executed != 4 || s.Stats().Restored != 0 {
		t.Fatalf("grow %+v scale %+v, want grow skipped and scale executed every epoch", g.Stats(), s.Stats())
	}
}

// TestSparseSectionedCheckpointsFallBackAfterLoading is the sparse-checkpoint
// fallback over sectioned checkpoints: epoch 1 of "grow" has no checkpoint, so
// it executes — on top of epoch 0's state, which was only bound when epoch 0
// was skipped, in init mode with no log statement evaluated.
func TestSparseSectionedCheckpointsFallBackAfterLoading(t *testing.T) {
	full, recorded := recordTwoLoops(t, 3)
	sparse, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range full.Metas() {
		if m.Key == (store.Key{LoopID: "grow", Exec: 1}) {
			continue
		}
		secs, err := readAll(full, m.Key)
		if err != nil {
			t.Fatalf("read %s: %v", m.Key, err)
		}
		if _, err := sparse.PutSections(m.Key, secs, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	p := twoLoopProgram(3)
	rt := NewRuntime(p, newTracker(), nil, sparse)
	rt.SetMode(ModeReplayInit)
	env := runProgram(t, p, rt, nil)
	g, _ := rt.Block("grow")
	if s := g.Stats(); s.Restored != 2 || s.Executed != 1 {
		t.Fatalf("grow stats = %+v, want 2 skips and 1 execution", s)
	}
	got := []string{"w: " + formatFloat(env.MustGet("w").(*value.Tensor).T.Sum())}
	sameLines(t, "final w", got, linesOf(recorded[len(recorded)-3:], "w"))
}

// TestSupersededBindingIsNeverRead pins what binding is for: in init mode no
// log statement is evaluated, so every epoch's binding is superseded by the
// next one unread — its checkpoint is never resolved (a Resolve of it fails:
// its directory is broken here) and no byte of it is loaded. Only the last
// epoch's is read, by the test.
func TestSupersededBindingIsNeverRead(t *testing.T) {
	st, recorded := recordTwoLoops(t, 4)
	breakDirectories(t, st.Dir(), func(k store.Key) bool { return k.Exec < 3 })
	ro, err := store.OpenWith(st.Dir(), store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Resolve(store.Key{LoopID: "grow", Exec: 2}); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("Resolve of a broken directory: %v, want codec.ErrCorrupt", err)
	}
	p := twoLoopProgram(4)
	rt := NewRuntime(p, newTracker(), nil, ro)
	rt.SetMode(ModeReplayInit)
	env := runProgram(t, p, rt, nil)
	g, _ := rt.Block("grow")
	if s := g.Stats(); s.Restored != 4 || s.RestoredBytes != 0 || s.RestoreNs != 0 {
		t.Fatalf("grow stats after four unread binds = %+v, want 4 skips and nothing loaded", s)
	}
	got := []string{"w: " + formatFloat(env.MustGet("w").(*value.Tensor).T.Sum())}
	sameLines(t, "w of the last epoch", got, linesOf(recorded[len(recorded)-3:], "w"))
	if s := g.Stats(); s.RestoredBytes == 0 {
		t.Fatalf("grow stats after the read = %+v, want the last binding's w loaded", s)
	}
}

// TestFailedLoadFailsTheLogStatement is the error path of a load that runs
// inside a log statement's Env.MustGet, which has no error return: the
// statement fails with the store's typed error, emits no line, and the
// binding stays bound. The load fails because the run's pack is deleted
// after the store was opened, as a GC in another process would retire it.
func TestFailedLoadFailsTheLogStatement(t *testing.T) {
	st, _ := recordTwoLoops(t, 2)
	ro, err := store.OpenWith(st.Dir(), store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(st.Dir(), "CHUNKS")); err != nil {
		t.Fatal(err)
	}
	p := twoLoopProgram(2)
	rt := NewRuntime(p, newTracker(), nil, ro)
	rt.SetMode(ModeReplayExec)
	var logs []string
	ctx := &script.Ctx{Env: script.NewEnv(), LoopHook: rt.Hook, Log: func(l string) { logs = append(logs, l) }}
	err = script.Run(ctx, p)
	if !errors.Is(err, store.ErrStalePack) || !strings.Contains(err.Error(), `log "w"`) {
		t.Fatalf("Run = %v, want store.ErrStalePack out of log statement w", err)
	}
	if len(logs) != 0 {
		t.Fatalf("failed statement emitted %v", logs)
	}
	if len(rt.bound) == 0 {
		t.Fatal("the binding whose load failed was dropped")
	}
}

func newTracker() *adapt.Tracker { return adapt.New(adapt.DefaultEpsilon) }

// breakDirectories rewrites, CRC-valid, the manifest meta records of the
// checkpoints broken selects so that their directories do not decode: a store
// opened afterwards fails a Resolve of one with codec.ErrCorrupt.
func breakDirectories(t *testing.T, dir string, broken func(store.Key) bool) {
	t.Helper()
	path := filepath.Join(dir, "MANIFEST")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for off := 0; off < len(raw); {
		payload, n, err := codec.Unframe(raw[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		if payload[0] == 'M' {
			r := codec.NewReader(payload[1:])
			loop, _ := r.String()
			exec, _ := r.Int()
			if broken(store.Key{LoopID: loop, Exec: exec}) {
				payload = bytes.Replace(bytes.Clone(payload), []byte("FLV2"), []byte("FLV?"), 1)
			}
		}
		out = append(out, codec.Frame(payload)...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}
