package backmat

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/faultbackend"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// openOver opens a fresh run directory whose packs go through wrap(its local
// backend).
func openOver(t *testing.T, wrap func(store.Backend) store.Backend) (*store.Store, string) {
	t.Helper()
	dir := t.TempDir()
	local := store.DirBackendAt(dir)
	st, err := store.OpenWith(dir, store.Options{Backend: wrap(local)})
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

// waitForGoroutines fails unless the goroutine count comes back to want: a
// worker that has signalled its WaitGroup may still be a few instructions
// from gone.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUnusedMaterializerStartsNothing: an adaptive recording that skips every
// checkpoint holds a materializer it never materializes with. It must cost
// no goroutine, and draining or closing it is a no-op.
func TestUnusedMaterializerStartsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(newStore(t), Fork)
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("New left %d goroutines running, found %d", got, before)
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("Drain and Close left %d goroutines running, found %d", got, before)
	}
	if s := m.Stats(); s != (Stats{}) {
		t.Fatalf("stats of a materializer that did nothing: %+v", s)
	}
}

// TestCaptureOutlivesNeitherBorrowNorBuffer is the aliasing test of the
// capture path, meant for -race: behind a backend whose every operation
// sleeps, the writer is always behind and both buffer sets are in the pipeline, while
// the caller overwrites every tensor the moment each Materialize returns.
// Each checkpoint must still decode to exactly the state at its capture. A
// borrow that outlived Materialize races with the overwrite; a set recycled
// before its put returned is overwritten under the writer and decodes to a
// later epoch's state.
func TestCaptureOutlivesNeitherBorrowNorBuffer(t *testing.T) {
	const checkpoints = 24
	for _, strat := range []Strategy{Fork, Plasma} {
		t.Run(strat.String(), func(t *testing.T) {
			st, _ := openOver(t, func(b store.Backend) store.Backend {
				return faultbackend.WrapBackend(b, faultbackend.Config{LatencyNth: 1, Latency: 2 * time.Millisecond})
			})
			model := nn.NewLinear("fc", xrand.New(1), 64, 32)
			sgd := opt.NewSGD(model, 0.1, 0.9, 0)
			w := tensor.New(40_000) // 320 KB: two chunks
			vals := []NamedValue{
				{Name: "w", V: &value.Tensor{T: w}},
				{Name: "net", V: &value.Model{M: model}},
				{Name: "optimizer", V: &value.Optimizer{O: sgd}},
			}
			// epoch sets every tensor of the program — weights, parameters
			// and, through a step on constant gradients, velocities — to
			// values only that epoch has.
			epoch := func(e int) {
				w.Fill(float64(e))
				for _, p := range model.Params() {
					p.Var.Value.Fill(float64(e))
					p.Var.Grad = tensor.Full(float64(e+1), p.Var.Value.Shape()...)
				}
				sgd.Step()
			}
			want := make([][]NamedPayload, checkpoints)
			m := New(st, strat)
			for e := 0; e < checkpoints; e++ {
				epoch(e)
				for _, nv := range vals {
					want[e] = append(want[e], NamedPayload{Name: nv.Name, Payload: nv.V.Snapshot()})
				}
				m.Materialize(store.Key{LoopID: "train", Exec: e}, vals, 0)
				epoch(-1 - e) // the training loop moves on at once
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if s := m.Stats(); s.Checkpoints != checkpoints || s.SerializeNs != 0 {
				t.Fatalf("stats = %+v", s)
			}
			for e := 0; e < checkpoints; e++ {
				secs, err := readAll(st, store.Key{LoopID: "train", Exec: e})
				if err != nil {
					t.Fatalf("checkpoint %d: %v", e, err)
				}
				// Byte equality with the snapshot's encoding is state
				// equality: the encoding is canonical.
				if got, want := BundleBytes(secs), EncodeBundle(want[e]); string(got) != string(want) {
					t.Fatalf("checkpoint %d does not hold the state at its capture", e)
				}
			}
		})
	}
}

// failingBackend fails every pack append from the failFrom-th on, writing
// nothing.
type failingBackend struct {
	store.Backend
	failFrom int64
	appends  atomic.Int64
}

var errAppend = errors.New("injected append failure")

func (b *failingBackend) Append(name string, p []byte) error {
	if b.appends.Add(1) >= b.failFrom {
		return fmt.Errorf("append %s: %w", name, errAppend)
	}
	return b.Backend.Append(name, p)
}

// TestFailedPutGivesItsBuffersBack: when the store fails under the
// materializer — here from the third pack append on, for good — Close reports
// the first failure, every later Materialize still finds a buffer set (a
// failed put that kept its set would strand the caller after two), no
// goroutine is left behind, and the directory reopens to the checkpoints
// committed before the failure.
func TestFailedPutGivesItsBuffersBack(t *testing.T) {
	const checkpoints, committed = 12, 2
	before := runtime.NumGoroutine()
	st, dir := openOver(t, func(b store.Backend) store.Backend {
		return &failingBackend{Backend: b, failFrom: committed + 1}
	})
	m := New(st, Fork)
	w := &value.Tensor{T: tensor.New(1 << 12)}
	done := make(chan error, 1)
	go func() {
		for e := 0; e < checkpoints; e++ {
			w.T.Fill(float64(e)) // fresh content: every checkpoint appends
			m.Materialize(store.Key{LoopID: "train", Exec: e}, []NamedValue{{Name: "w", V: w}}, 0)
		}
		done <- m.Close()
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errAppend) {
			t.Fatalf("Close = %v, want the injected append failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Materialize hangs after a failed put")
	}
	waitForGoroutines(t, before)
	if s := m.Stats(); s.Checkpoints != checkpoints || s.BytesWritten != committed*st.Metas()[0].Size {
		t.Fatalf("stats = %+v, want %d checkpoints attempted and %d committed", s, checkpoints, committed)
	}

	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < checkpoints; e++ {
		key := store.Key{LoopID: "train", Exec: e}
		if reopened.Has(key) != (e < committed) {
			t.Fatalf("after reopen Has(%s) = %v", key, reopened.Has(key))
		}
		if e >= committed {
			continue
		}
		items, err := readItems(reopened, key)
		if err != nil {
			t.Fatal(err)
		}
		if got := items[0].Payload.(value.TensorPayload).Tensor(); got.At(0) != float64(e) || got.At(got.Len()-1) != float64(e) {
			t.Fatalf("checkpoint %d reopened to state %g", e, got.At(0))
		}
	}
}
