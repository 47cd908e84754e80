package replay_test

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
)

// countingTensor is a tensor value that counts the restores it receives.
type countingTensor struct {
	*value.Tensor
	restores *atomic.Int64
}

func (c countingTensor) Restore(p value.Payload) error {
	c.restores.Add(1)
	return c.Tensor.Restore(p)
}

// TestParkedReuseMovesNoSetupBytes pins the cost side of reusing a parked
// program: the setup snapshot it binds gives way to every checkpoint that
// carries the same name, so a reused program restores w exactly as often as
// a fresh one — once per epoch whose log reads it — while a setup value no
// checkpoint carries still reads as setup left it. The trace tells the two
// apart: a reused program's setup span carries parked=1.
func TestParkedReuseMovesNoSetupBytes(t *testing.T) {
	const epochs = 5
	var restores atomic.Int64
	var built []*script.Env // every program's environment, as setup left it
	factory := func() *script.Program {
		train := &script.Loop{ID: "train", IterVar: "step", Iters: 1, Body: []script.Stmt{
			script.AssignMethod([]string{"s"}, "w", "grow", nil, func(e *script.Env) error {
				w := e.MustGet("w").(countingTensor).T
				for i := range w.Data() {
					w.Data()[i] += float64(e.Int("epoch") + 1)
				}
				e.SetFloat("s", w.Sum())
				return nil
			}),
		}}
		return &script.Program{
			Name: "counted",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"w", "s", "k"}, "build", nil, func(e *script.Env) error {
					e.Set("w", countingTensor{Tensor: &value.Tensor{T: tensor.New(16)}, restores: &restores})
					e.SetFloat("s", 0)
					e.SetFloat("k", 3)
					built = append(built, e)
					return nil
				}),
			},
			Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []script.Stmt{
				script.LoopStmt(train),
				script.LogStmt("m", func(e *script.Env) (string, error) {
					return fmt.Sprintf("epoch=%d w=%.17g s=%.17g k=%.17g", e.Int("epoch"),
						e.MustGet("w").(countingTensor).T.Sum(), e.Float("s"), e.Float("k")), nil
				}),
			}},
		}
	}
	dir := t.TempDir()
	if _, err := core.Record(dir, factory, core.RecordOptions{DisableAdaptive: true}); err != nil {
		t.Fatal(err)
	}
	rec, err := core.LoadRecordingShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Vanilla(factory)
	if err != nil {
		t.Fatal(err)
	}

	built = nil // recording and the oracle set programs up too
	park := replay.NewPark(rec, backmat.NewPayloadCache(0))
	for i, wantParked := range []int64{0, 1, 1} {
		if i == 2 {
			// Scribble over the parked program: k is no checkpoint's, so only
			// the setup snapshot can put it back.
			for _, e := range built {
				e.SetFloat("k", -7)
			}
		}
		restores.Store(0)
		tr := obs.NewTrace()
		res, err := replay.Replay(rec, factory, replay.Options{Park: park, Trace: tr})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !slices.Equal(res.Logs, want) {
			t.Fatalf("query %d: logs %q, want %q", i, res.Logs, want)
		}
		if got := restores.Load(); got != epochs {
			t.Fatalf("query %d restored w %d times, want %d (one per epoch's checkpoint)", i, got, epochs)
		}
		setups := 0
		for _, sp := range tr.Spans() {
			if sp.Name == "setup" {
				setups++
				if sp.Attrs["parked"] != wantParked {
					t.Fatalf("query %d: setup span parked=%d, want %d", i, sp.Attrs["parked"], wantParked)
				}
			}
		}
		if setups != 1 || park.Len() != 1 || len(built) != 1 {
			t.Fatalf("query %d: %d setup spans, %d programs parked, %d built; want 1 of each", i, setups, park.Len(), len(built))
		}
	}
}

// TestRefusedLoopKeepsProgramsUnparked pins why a program with a statement
// the analysis refuses after setup never parks: that statement runs again
// from whatever state it meets, and here it advances a counter inside an
// Opaque, which no snapshot covers — from a refused loop, or from the tail.
// A fresh program counts from setup's zero every query, as the recording
// did; a parked one would go on from the last query's count.
func TestRefusedLoopKeepsProgramsUnparked(t *testing.T) {
	type counter struct{ n int }
	bump := script.ExprFunc("bump", []string{"ctr"}, func(e *script.Env) error {
		e.MustGet("ctr").(*value.Opaque).V.(*counter).n++
		return nil
	})
	for _, where := range []string{"loop", "tail"} {
		factory := func() *script.Program {
			p := &script.Program{
				Name: "refused",
				Setup: []script.Stmt{
					script.AssignFunc([]string{"ctr"}, "counter", nil, func(e *script.Env) error {
						e.Set("ctr", &value.Opaque{V: &counter{}})
						return nil
					}),
				},
				Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: 3, Body: []script.Stmt{
					script.LogStmt("n", func(e *script.Env) (string, error) {
						return fmt.Sprintf("epoch=%d n=%d", e.Int("epoch"), e.MustGet("ctr").(*value.Opaque).V.(*counter).n), nil
					}),
				}},
			}
			if where == "loop" {
				tick := &script.Loop{ID: "tick", IterVar: "step", Iters: 2, Body: []script.Stmt{bump}}
				p.Main.Body = append([]script.Stmt{script.LoopStmt(tick)}, p.Main.Body...)
			} else {
				p.Tail = []script.Stmt{bump}
			}
			return p
		}
		dir := t.TempDir()
		if _, err := core.Record(dir, factory, core.RecordOptions{DisableAdaptive: true}); err != nil {
			t.Fatal(err)
		}
		rec, err := core.LoadRecordingShared(dir)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := core.Vanilla(factory)
		if err != nil {
			t.Fatal(err)
		}
		park := replay.NewPark(rec, backmat.NewPayloadCache(0))
		for i := 0; i < 3; i++ {
			res, err := replay.Replay(rec, factory, replay.Options{Park: park})
			if err != nil {
				t.Fatalf("%s, query %d: %v", where, i, err)
			}
			if !slices.Equal(res.Logs, want) {
				t.Fatalf("%s, query %d: logs %q, want %q", where, i, res.Logs, want)
			}
			if park.Len() != 0 {
				t.Fatalf("%s, query %d parked %d programs", where, i, park.Len())
			}
		}
	}
}
