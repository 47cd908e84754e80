package replay_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// stateFactory trains a small residual MLP with SGD momentum on noise
// gradients: each epoch's checkpoint holds a model section and an equally
// large optimizer section, both KindState, whose content never repeats. Its
// log statement reads the optimizer, and through it the model, so a replay
// loads both sections of every checkpoint it skips over.
func stateFactory(epochs int) func() *script.Program {
	return func() *script.Program {
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
		}}
		return &script.Program{
			Name: "stateprog",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"net", "optimizer"}, "build", nil, func(e *script.Env) error {
					m := nn.NewResidualMLP(xrand.New(7), 16, 64, 64, 2, 4)
					e.Set("net", &value.Model{M: m})
					e.Set("optimizer", &value.Optimizer{O: opt.NewSGD(m, 0.05, 0.9, 1e-4)})
					return nil
				}),
			},
			Main: &script.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []script.Stmt{
				script.LoopStmt(train),
				script.LogStmt("norm", func(e *script.Env) (string, error) {
					o := e.MustGet("optimizer").(*value.Optimizer).O
					return fmt.Sprintf("epoch=%d lr=%g norm=%.17g", e.Int("epoch"), o.LR(), nn.WeightNorm(o.Model())), nil
				}),
			}},
		}
	}
}

// TestSharedCacheNeverViewsRecycledBuffer pins the ownership rule of restore
// buffers: a worker overwrites its section buffers restore after restore,
// except one whose payload the shared cache admitted, which it gives up for
// good. Replays at three widths share one cache (two-touch admission, so the
// same content is decoded by several workers before one of them hands its
// buffer over) for three rounds; every log must match the record log, and
// afterwards every cached payload must re-encode to the bytes a fresh read of
// its checkpoint returns. A buffer recycled while the cache still views it
// shows up as a cached payload holding another epoch's state, and under
// -race as a write racing the other replays' reads.
func TestSharedCacheNeverViewsRecycledBuffer(t *testing.T) {
	factory := stateFactory(12)
	rec := record(t, factory)
	want := strings.Join(rec.Logs, "\n")
	cache := backmat.NewPayloadCache(0)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for _, workers := range []int{1, 2, 4} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := replay.Replay(rec.Recording, factory, replay.Options{Workers: workers, Cache: cache})
				if err != nil {
					t.Errorf("round %d workers=%d: %v", round, workers, err)
					return
				}
				if got := strings.Join(res.Logs, "\n"); got != want || len(res.Anomalies) != 0 {
					t.Errorf("round %d workers=%d: replay log differs from the record log (%d anomalies)", round, workers, len(res.Anomalies))
				}
			}()
		}
		wg.Wait()
	}
	if t.Failed() {
		return
	}

	st := rec.Recording.Store
	for _, m := range st.Metas() {
		secs, ok, err := st.GetSections(m.Key, nil)
		if err != nil || !ok {
			t.Fatalf("read %s: ok=%v err=%v", m.Key, ok, err)
		}
		fresh := make([][]byte, len(secs))
		for i := range secs {
			fresh[i] = bytes.Clone(secs[i].Data)
		}
		hits := cache.Stats().Hits
		items, err := backmat.DecodeSectionsCached(cache, secs)
		if err != nil {
			t.Fatal(err)
		}
		if got := cache.Stats().Hits - hits; got != int64(len(secs)) {
			t.Fatalf("%s: %d of %d sections served from the cache after three rounds", m.Key, got, len(secs))
		}
		for i, it := range items {
			w := codec.NewWriter()
			value.EncodePayload(w, it.Payload)
			if !bytes.Equal(w.Bytes(), fresh[i]) {
				t.Fatalf("%s: cached payload %q no longer holds the bytes of its checkpoint", m.Key, it.Name)
			}
		}
	}
}
