package replay_test

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// TestRecycledBufferIsNeverRead pins that a pending tensor's buffer — fresh
// or recycled from an earlier query's program — is never read before the
// draw or an overwrite fills it whole. Every pending tensor is born on a
// buffer of NaN (tensor.PoisonPendingBuffers), and every query gives its
// programs' buffers back, so most births reuse one. The replay, the sample
// and the stream, at workers 1/2/4 × weak/strong initialization, over a
// private and a shared payload cache, with a model-only probe (every weight
// a restore lands), a probe at the top of epoch 0 and one inside the
// training loop (weights drawn in the worker that starts there), must log
// byte for byte what the uninstrumented program logs. A restore that left
// one value of a laid tensor unwritten would log NaN.
func TestRecycledBufferIsNeverRead(t *testing.T) {
	const epochs = 6
	factory := sgdModelFactory(epochs, benchMLP)
	rec := record(t, factory)
	wnorm := func(e *script.Env) (string, error) {
		return fmt.Sprintf("%.17g", nn.WeightNorm(e.MustGet("net").(*value.Model).M)), nil
	}
	probes := []struct {
		name    string
		factory func() *script.Program
		want    []string
	}{
		{"model-only probe", withLog(factory, "wnorm", wnorm), nil},
		{"probe at the top of epoch 0", func() *script.Program {
			p := factory()
			p.Main.Body = script.AddLog(p.Main.Body, 0, script.LogStmt("wnorm0", wnorm))
			return p
		}, nil},
		{"probe inside the training loop", func() *script.Program {
			p := factory()
			train := p.Main.Body[0].Loop
			train.Body = script.AddLog(train.Body, 2, script.LogStmt("wnorm_step", wnorm))
			return p
		}, nil},
	}
	for i := range probes {
		var err error
		if probes[i].want, _, err = core.Vanilla(probes[i].factory); err != nil {
			t.Fatal(err)
		}
		if len(probes[i].want) != 2*epochs {
			t.Fatalf("%s: the uninstrumented run logged %d lines, want two per epoch", probes[i].name, len(probes[i].want))
		}
	}
	defer tensor.PoisonPendingBuffers()()
	for _, cache := range []*backmat.PayloadCache{nil, backmat.NewPayloadCache(0)} {
		for _, pr := range probes {
			for _, workers := range []int{1, 2, 4} {
				for _, init := range []replay.InitMode{replay.Weak, replay.Strong} {
					res, err := replay.Replay(rec.Recording, pr.factory, replay.Options{Workers: workers, Init: init, Cache: cache})
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(res.Logs, pr.want) || len(res.Anomalies) != 0 {
						t.Fatalf("%s, workers=%d init=%v shared cache=%v: replay logged\n%q\nthe uninstrumented run\n%q", pr.name, workers, init, cache != nil, res.Logs, pr.want)
					}
				}
			}
			for _, iters := range [][]int{{0}, {3}, {1, 4, 5}, {5, 2}} {
				var want []string
				for _, it := range slices.Sorted(slices.Values(iters)) {
					want = append(want, pr.want[2*it:2*it+2]...)
				}
				id := fmt.Sprintf("%s, sample %v, shared cache=%v", pr.name, iters, cache != nil)
				sres, err := replay.ReplaySampleWith(rec.Recording, pr.factory, iters, replay.SampleOptions{Cache: cache})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if !slices.Equal(sres.Logs, want) {
					t.Fatalf("%s: logged %q, want %q", id, sres.Logs, want)
				}
				var chunks []string
				if _, err := replay.ReplaySampleStream(rec.Recording, pr.factory, iters, replay.SampleOptions{Cache: cache},
					func(_ int, logs []string) error { chunks = append(chunks, logs...); return nil }); err != nil {
					t.Fatalf("%s, streamed: %v", id, err)
				}
				if !slices.Equal(chunks, want) {
					t.Fatalf("%s, streamed: logged %q, want %q", id, chunks, want)
				}
			}
		}
	}
}

// tiedNet is a module whose parameters "a" and "b" share one Var.
type tiedNet struct{ ps []nn.Param }

func (m *tiedNet) Params() []nn.Param { return m.ps }

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestReleaseTakesOnlyWhatARestoreWrote pins which buffers a query gives
// back: those of the pending tensors its programs' setups made whose draws
// a restore's overwrite dropped. Each worker's setup builds a model with two tied
// parameters and a third of its own, all pending; a tensor it draws before
// setup ends; and binds a pending tensor the factory shares across every
// instance. The training loop changes all four, so the log statement after
// it restores them. After the replay, the model's tensors panic on any
// access, and the tied buffer went back once (four tensors born after it
// hold four distinct buffers); the tensor setup drew and the shared one are
// whole and hold what the record ended with. A probe that reads the model
// before the first restore draws it, and its tensors keep their buffers
// too. A second part fails a query
// inside a log statement that views the model's cached state through a
// shared payload cache: the lent cache tensors are never released, and the
// next query through that cache logs what the record logged.
func TestReleaseTakesOnlyWhatARestoreWrote(t *testing.T) {
	const epochs = 4
	// One P: a buffer released twice lands twice where the births below
	// look first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		mu      sync.Mutex
		shared  *tensor.Tensor // what every instance's setup binds as "shared"
		own     []*tensor.Tensor
		drawnIn []*tensor.Tensor
	)
	factory := func() *script.Program {
		train := &script.Loop{ID: "train", IterVar: "step", Iters: 1, Body: []script.Stmt{
			script.AssignFunc([]string{"net", "drawn", "shared"}, "perturb", []string{"net", "drawn", "shared"}, func(e *script.Env) error {
				rng := xrand.New(uint64(e.Int("epoch")))
				for _, name := range []string{"drawn", "shared"} {
					x := e.MustGet(name).(*value.Tensor).T
					tensor.AddInPlace(x, tensor.Randn(rng, 0.1, x.Shape()...))
				}
				ps := e.MustGet("net").(*value.Model).M.Params()
				for _, p := range ps[1:] { // "a" and "b" are one Var
					tensor.AddInPlace(p.Var.Value, tensor.Randn(rng, 0.1, p.Var.Value.Shape()...))
				}
				return nil
			}),
		}}
		return &script.Program{
			Name: "releaseprog",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"net", "drawn", "shared"}, "build", nil, func(e *script.Env) error {
					rng := xrand.New(3)
					tied := autograd.NewParam(tensor.XavierUniform(rng, 8, 4))
					c := autograd.NewParam(tensor.Uniform(rng, -1, 1, 4, 5))
					d := tensor.Uniform(rng, -1, 1, 3, 7)
					d.Sum() // drawn in setup
					e.Set("net", &value.Model{M: &tiedNet{ps: []nn.Param{{Name: "a", Var: tied}, {Name: "b", Var: tied}, {Name: "c", Var: c}}}})
					e.Set("drawn", &value.Tensor{T: d})
					mu.Lock()
					e.Set("shared", &value.Tensor{T: shared})
					own = append(own, tied.Value, c.Value)
					drawnIn = append(drawnIn, d)
					mu.Unlock()
					return nil
				}),
			},
			Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []script.Stmt{
				script.LoopStmt(train),
				script.LogStmt("sums", func(e *script.Env) (string, error) {
					ps := e.MustGet("net").(*value.Model).M.Params()
					return fmt.Sprintf("a=%.17g c=%.17g drawn=%.17g shared=%.17g", ps[0].Var.Value.Sum(), ps[2].Var.Value.Sum(),
						e.MustGet("drawn").(*value.Tensor).T.Sum(), e.MustGet("shared").(*value.Tensor).T.Sum()), nil
				}),
			}},
		}
	}
	shared = tensor.Uniform(xrand.New(9), -1, 1, 2, 11)
	rec := record(t, factory)
	final := shared.Clone() // the record left its shared tensor here

	// Workers take their leases in turn: the instances share "shared", and a
	// restore into it must not race another's.
	shared = tensor.Uniform(xrand.New(9), -1, 1, 2, 11)
	own, drawnIn = nil, nil
	res, err := replay.Replay(rec.Recording, factory, replay.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Logs, rec.Logs) || len(res.Anomalies) != 0 {
		t.Fatalf("replay logged\n%q\nthe record\n%q", res.Logs, rec.Logs)
	}
	if len(own) != 2 || len(drawnIn) != 1 {
		t.Fatalf("one worker set up %d model tensors and %d drawn ones, want 2 and 1", len(own), len(drawnIn))
	}
	for i, x := range own {
		for name, access := range map[string]func(){
			"Data": func() { x.Data() }, "At": func() { x.At(0, 0) }, "Sum": func() { x.Sum() },
			"Overwrite": func() { x.Overwrite() }, "Storage": func() { x.Storage() }, "Clone": func() { x.Clone() },
		} {
			if !panics(access) {
				t.Fatalf("model tensor %d: %s of a released tensor did not panic", i, name)
			}
		}
	}
	if panics(func() { drawnIn[0].Sum() }) {
		t.Fatal("the tensor setup drew was released")
	}
	if panics(func() { shared.Sum() }) || !tensor.Equal(shared, final) {
		t.Fatal("the tensor the factory shares was released, or does not hold what the record left in it")
	}
	// The tied buffer went back once: four tensors of its length born now
	// hold four buffers.
	var bufs []*float64
	for range 4 {
		bufs = append(bufs, unsafe.SliceData(tensor.XavierUniform(xrand.New(1), 8, 4).Storage()))
	}
	for i := range bufs {
		for j := range i {
			if bufs[i] == bufs[j] {
				t.Fatalf("tensors %d and %d born after the replay share one recycled buffer: the tied parameter was released twice", j, i)
			}
		}
	}
	runtime.KeepAlive(bufs)

	// A probe at the top of epoch 0 reads the model before any restore:
	// the one worker draws its setup weights, and keeps their buffers.
	atTop := func() *script.Program {
		p := factory()
		p.Main.Body = script.AddLog(p.Main.Body, 0, script.LogStmt("c0", func(e *script.Env) (string, error) {
			return fmt.Sprintf("%.17g", e.MustGet("net").(*value.Model).M.Params()[2].Var.Value.Sum()), nil
		}))
		return p
	}
	shared = tensor.Uniform(xrand.New(9), -1, 1, 2, 11)
	own = nil
	if _, err := replay.Replay(rec.Recording, atTop, replay.Options{Workers: 1, Init: replay.Strong}); err != nil {
		t.Fatal(err)
	}
	if len(own) != 2 || panics(func() { own[1].Sum() }) {
		t.Fatal("a tensor a probe drew before its first restore was released")
	}

	t.Run("lent tensors of a failed query", func(t *testing.T) {
		const epochs = 6
		factory := sgdFactory(epochs)
		rec := record(t, factory)
		wnorm := func(e *script.Env) (string, error) {
			return fmt.Sprintf("%.17g", nn.WeightNorm(e.MustGet("net").(*value.Model).M)), nil
		}
		probe := withLog(factory, "wnorm", wnorm)
		want, _, err := core.Vanilla(probe)
		if err != nil {
			t.Fatal(err)
		}
		cache := backmat.NewPayloadCache(0)
		for range 2 { // two touches: the second query's loads are admitted
			if _, err := replay.Replay(rec.Recording, probe, replay.Options{Workers: 2, Cache: cache}); err != nil {
				t.Fatal(err)
			}
		}
		var lent []*tensor.Tensor
		var lentSums []float64
		errBoom := errors.New("the probe fails inside its view")
		failing := withLog(factory, "wnorm", func(e *script.Env) (string, error) {
			if e.Int("epoch") < epochs-1 {
				return wnorm(e)
			}
			for _, p := range e.MustGet("net").(*value.Model).M.Params() {
				lent = append(lent, p.Var.Value)
				lentSums = append(lentSums, p.Var.Value.Sum())
			}
			return "", errBoom
		})
		if _, err := replay.Replay(rec.Recording, failing, replay.Options{Workers: 1, Cache: cache}); !errors.Is(err, errBoom) {
			t.Fatalf("the failing query returned %v", err)
		}
		// The statement read the model through a view: its tensors were the
		// cached payload's.
		secs, err := readAll(rec.Recording.Store, store.Key{LoopID: "train", Exec: epochs - 1})
		if err != nil {
			t.Fatal(err)
		}
		items, err := backmat.DecodeSectionsCached(cache, secs)
		if err != nil {
			t.Fatal(err)
		}
		k := slices.IndexFunc(items, func(it backmat.NamedPayload) bool { return it.Name == "net" })
		if k < 0 || len(lent) == 0 {
			t.Fatalf("no model section in the last checkpoint, or the failing statement read no tensor (%d)", len(lent))
		}
		cached := items[k].Payload.(value.StatePayload).S.Tensors
		for i, x := range lent {
			if !slices.ContainsFunc(slices.Collect(maps.Values(cached)), func(d codec.Dense) bool { return d.T == x }) {
				t.Fatalf("the failing statement read tensor %d of the model, not a view of the cached payload", i)
			}
		}
		for i, x := range lent {
			if panics(func() { x.Sum() }) || x.Sum() != lentSums[i] {
				t.Fatalf("lent tensor %d was released or changed by the failed query", i)
			}
		}
		res, err := replay.Replay(rec.Recording, probe, replay.Options{Workers: 2, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Logs, want) {
			t.Fatalf("after the failed query the replay logged\n%q\nthe uninstrumented run\n%q", res.Logs, want)
		}
	})
}
