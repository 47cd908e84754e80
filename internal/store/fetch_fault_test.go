package store_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/faultbackend"
	"flor.dev/flor/internal/store/remote"
)

// countingObjects counts the ranged GETs that reach the object store, each
// taking delay to come back.
type countingObjects struct {
	remote.ObjectStore
	gets  atomic.Int64
	delay time.Duration
}

func (c *countingObjects) GetRange(key string, off, n int64) ([]byte, error) {
	c.gets.Add(1)
	time.Sleep(c.delay)
	return c.ObjectStore.GetRange(key, off, n)
}

// TestFetchStopsDispatchingAfterFirstError pins the executor's failure
// contract on a many-run restore: once one run's read fails, no further runs
// are handed out — only the reads already in flight on the worker group
// finish — the restore fails with the injected error still typed, returns no
// sections, and leaves no goroutine behind.
func TestFetchStopsDispatchingAfterFirstError(t *testing.T) {
	// Forty small needed sections, each followed by an incompressible filler wider
	// than the coalescing gap: skipping the fillers leaves forty single-frame runs.
	const needed = 40
	var secs []store.Section
	for i := 0; i < needed; i++ {
		secs = append(secs,
			store.Section{Name: fmt.Sprintf("need%02d", i), Data: store.TestPayload(4<<10, uint64(2*i+1))},
			store.Section{Name: fmt.Sprintf("fill%02d", i), Data: store.TestPayload(300<<10, uint64(2*i+2))})
	}
	// Recorded locally and shipped with UploadRun, then read back through
	// the object backend, as a remote run is.
	dir := t.TempDir()
	key := store.Key{LoopID: "train", Exec: 0}
	w, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.PutSections(key, secs, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteIndex(); err != nil { // so that the opens below GET no pack byte
		t.Fatal(err)
	}
	objs := &countingObjects{ObjectStore: remote.NewMemStore()}
	if _, err := remote.UploadRun(objs, dir, "run"); err != nil {
		t.Fatal(err)
	}

	restore := func(st remote.ObjectStore, have func(ckptfmt.Hash) bool) ([]store.Section, error) {
		ro, err := store.OpenWith(dir, store.Options{ReadOnly: true, Backend: remote.NewObjectBackend(st, remote.PacksPrefix("run"), nil)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.ReadAll(ro, key, have)
		return got, err
	}
	all, err := restore(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fillers := map[ckptfmt.Hash]bool{}
	for i, sec := range all {
		if i%2 == 1 {
			fillers[sec.Hash] = true
		}
	}
	have := func(h ckptfmt.Hash) bool { return fillers[h] }
	objs.gets.Store(0)
	if _, err := restore(objs, have); err != nil {
		t.Fatal(err)
	}
	if n := objs.gets.Load(); n != needed {
		t.Fatalf("clean sparse restore issued %d GETs, want %d single-frame runs", n, needed)
	}

	// Fail the third read, and only it. Successful GETs take a few
	// milliseconds, as remote ones do, so the failure (which returns at once)
	// is recorded while its neighbours are still on the wire: what is counted
	// below is the executor's dispatch, not a scheduling race.
	const failAt = 2
	objs.delay = 5 * time.Millisecond
	fb := faultbackend.WrapObject(objs, faultbackend.Config{Seed: failAt, ReadErrNth: 1 << 20})
	before := runtime.NumGoroutine()
	objs.gets.Store(0)
	got, err := restore(fb, have)
	if !errors.Is(err, faultbackend.ErrInjected) {
		t.Fatalf("restore error = %v, want the injected fault, typed", err)
	}
	if len(got) != 0 {
		t.Fatalf("failed restore returned %d sections", len(got))
	}
	if fb.Injected() != 1 {
		t.Fatalf("%d faults fired, want exactly 1", fb.Injected())
	}
	issued := objs.gets.Load() + fb.Injected()
	if limit := int64(failAt + 1 + store.FetchWorkers()); issued > limit {
		t.Fatalf("%d of %d reads were issued around a failure at read %d; want at most %d (those already on the %d workers)",
			issued, needed, failAt, limit, store.FetchWorkers())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines outlived the failed restore", n-before)
	}
}
