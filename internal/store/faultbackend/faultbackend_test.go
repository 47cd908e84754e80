package faultbackend_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/cachetier"
	"flor.dev/flor/internal/store/faultbackend"
	"flor.dev/flor/internal/store/remote"
)

// faultPayload is a deterministic compressible-ish payload for battery runs.
func faultPayload(n int, seed uint64) []byte {
	p := make([]byte, n)
	x := seed*6364136223846793005 + 1442695040888963407
	for i := range p {
		if i%5 == 0 {
			x = x*6364136223846793005 + 1442695040888963407
			p[i] = byte(x >> 56)
		}
	}
	return p
}

// TestFaultScheduleDeterministic pins the harness's own contract: the same
// seed and config produce the same fault schedule, faults are typed, and
// Injected counts them.
func TestFaultScheduleDeterministic(t *testing.T) {
	schedule := func(seed int64) []int {
		mem := remote.NewMemStore()
		if err := mem.Put("k", []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		fb := faultbackend.WrapObject(mem, faultbackend.Config{Seed: seed, ReadErrNth: 3})
		var failed []int
		for i := 0; i < 12; i++ {
			if _, err := fb.Get("k"); err != nil {
				if !errors.Is(err, faultbackend.ErrInjected) {
					t.Fatalf("read %d: %v, want ErrInjected", i, err)
				}
				failed = append(failed, i)
			}
		}
		if int(fb.Injected()) != len(failed) {
			t.Fatalf("Injected() = %d, want %d", fb.Injected(), len(failed))
		}
		return failed
	}
	a, b := schedule(42), schedule(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	if len(a) != 4 {
		t.Fatalf("ReadErrNth=3 over 12 reads fired %d faults, want 4", len(a))
	}
	if fmt.Sprint(schedule(43)) == fmt.Sprint(a) && fmt.Sprint(schedule(44)) == fmt.Sprint(a) {
		t.Fatal("seed does not shift the fault phase")
	}
}

// TestFaultShortReadAndTornPut pins the two corruption-shaped classes:
// short reads return fewer bytes without error, torn puts persist a prefix
// and report failure.
func TestFaultShortReadAndTornPut(t *testing.T) {
	mem := remote.NewMemStore()
	full := []byte("0123456789abcdef")
	if err := mem.Put("k", full); err != nil {
		t.Fatal(err)
	}
	fb := faultbackend.WrapObject(mem, faultbackend.Config{Seed: 1, ShortReadNth: 1})
	got, err := fb.GetRange("k", 0, int64(len(full)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(full) || !bytes.Equal(got, full[:len(got)]) {
		t.Fatalf("short read returned %d bytes (%q), want a strict prefix", len(got), got)
	}

	fb = faultbackend.WrapObject(mem, faultbackend.Config{Seed: 1, TornPutNth: 1})
	if err := fb.Put("t", full); !errors.Is(err, faultbackend.ErrInjected) {
		t.Fatalf("torn put: %v, want ErrInjected", err)
	}
	// The tear is observable in the raw store (a prefix landed)...
	torn, err := mem.Get("t")
	if err != nil || len(torn) == 0 || len(torn) >= len(full) || !bytes.Equal(torn, full[:len(torn)]) {
		t.Fatalf("torn object = %d bytes, err=%v; want a non-empty strict prefix", len(torn), err)
	}
	// ...and a retried put replaces it wholesale (atomic PUT semantics).
	fb = faultbackend.WrapObject(mem, faultbackend.Config{})
	if err := fb.Put("t", full); err != nil {
		t.Fatal(err)
	}
	if got, _ := mem.Get("t"); !bytes.Equal(got, full) {
		t.Fatal("retried put did not converge")
	}
}

// faultClasses are the fault mixes the remote-restore matrices run under.
var faultClasses = []struct {
	name string
	cfg  faultbackend.Config
}{
	{"read-errors", faultbackend.Config{ReadErrNth: 3}},
	{"short-reads", faultbackend.Config{ShortReadNth: 2}},
	{"latency", faultbackend.Config{LatencyNth: 4, Latency: 2 * time.Millisecond}},
	{"torn-puts", faultbackend.Config{TornPutNth: 2}},
	{"everything", faultbackend.Config{ReadErrNth: 5, ShortReadNth: 7, LatencyNth: 6, Latency: time.Millisecond, TornPutNth: 3}},
}

// retryPolicy is generous enough that every fault class above is survivable.
var retryPolicy = remote.Policy{Attempts: 6, BaseDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond, Timeout: 5 * time.Second}

// TestFaultMatrixRemoteRestore is the battery's centerpiece: a checkpoint
// store written and restored over a faulty object store, per fault class and
// seed. With retries in the stack every run must end byte-identical; with
// retries exhausted it must fail typed, never return corrupt sections.
func TestFaultMatrixRemoteRestore(t *testing.T) {
	for _, cl := range faultClasses {
		for _, seed := range []int64{1, 2, 3} {
			cl, seed := cl, seed
			t.Run(fmt.Sprintf("%s/seed%d", cl.name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := cl.cfg
				cfg.Seed = seed
				mem := remote.NewMemStore()
				fb := faultbackend.WrapObject(mem, cfg)
				cache, err := cachetier.NewWithBlockSize("", 4<<20, 8<<10)
				if err != nil {
					t.Fatal(err)
				}
				backend := remote.NewObjectBackend(remote.Retry(fb, retryPolicy), "packs", cache)
				dir := t.TempDir()
				s, err := store.OpenWith(dir, store.Options{Backend: backend, ShardFanout: 2})
				if err != nil {
					t.Fatal(err)
				}
				want := map[int][]byte{}
				for i := 0; i < 4; i++ {
					data := faultPayload(48<<10, uint64(seed)*10+uint64(i))
					want[i] = data
					key := store.Key{LoopID: "train", Exec: i}
					if _, err := s.PutSections(key, []store.Section{{Name: "w", Data: data}}, 0, 0, 0); err != nil {
						t.Fatalf("put %d through faults: %v", i, err)
					}
				}
				ro, err := store.OpenWith(dir, store.Options{ReadOnly: true, Backend: backend})
				if err != nil {
					t.Fatal(err)
				}
				for i, data := range want {
					secs, ok, err := ro.GetSections(store.Key{LoopID: "train", Exec: i}, nil)
					if err != nil || !ok {
						t.Fatalf("restore %d through faults: ok=%v err=%v", i, ok, err)
					}
					if !bytes.Equal(secs[0].Data, data) {
						t.Fatalf("restore %d: bytes differ after retried faults", i)
					}
				}
				if fb.Injected() == 0 {
					t.Fatal("battery ran but no faults fired")
				}
			})
		}
	}
}

// TestFaultMatrixConcurrentRemoteRestore is the matrix's concurrent pass: a
// store written cleanly, then every key restored at once — two readers per
// key — through one small-block cache tier over a faulty object store, so
// readers race for the same blocks, join each other's fetches, and fall back
// to their own when a flight leader's fetch fails. Every restore must come
// back byte-identical, faults must have fired on the read path, and no
// restore goroutine may outlive its restore. Not parallel: the goroutine
// count is process-wide.
func TestFaultMatrixConcurrentRemoteRestore(t *testing.T) {
	for _, cl := range faultClasses {
		cfg := cl.cfg
		cfg.TornPutNth = 0 // the fixture is written cleanly; only reads fault
		if cfg == (faultbackend.Config{}) {
			continue
		}
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", cl.name, seed), func(t *testing.T) {
				const nKeys = 5
				mem := remote.NewMemStore()
				dir := t.TempDir()
				w, err := store.OpenWith(dir, store.Options{Backend: remote.NewObjectBackend(mem, "packs", nil), ShardFanout: 2})
				if err != nil {
					t.Fatal(err)
				}
				want := map[int][]byte{}
				for i := 0; i < nKeys; i++ {
					want[i] = faultPayload(48<<10, uint64(seed)*100+uint64(i))
					if _, err := w.PutSections(store.Key{LoopID: "train", Exec: i}, []store.Section{{Name: "w", Data: want[i]}}, 0, 0, 0); err != nil {
						t.Fatalf("put %d: %v", i, err)
					}
				}

				cfg := cfg
				cfg.Seed = seed
				fb := faultbackend.WrapObject(mem, cfg)
				cache, err := cachetier.NewWithBlockSize("", 4<<20, 8<<10)
				if err != nil {
					t.Fatal(err)
				}
				backend := remote.NewObjectBackend(remote.Retry(fb, retryPolicy), "packs", cache)
				ro, err := store.OpenWith(dir, store.Options{ReadOnly: true, Backend: backend})
				if err != nil {
					t.Fatal(err)
				}

				before := runtime.NumGoroutine()
				var wg sync.WaitGroup
				for i, data := range want {
					for r := 0; r < 2; r++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							secs, ok, err := ro.GetSections(store.Key{LoopID: "train", Exec: i}, nil)
							if err != nil || !ok {
								t.Errorf("restore %d through faults: ok=%v err=%v", i, ok, err)
								return
							}
							if !bytes.Equal(secs[0].Data, data) {
								t.Errorf("restore %d: bytes differ under concurrent faulty reads", i)
							}
						}()
					}
				}
				wg.Wait()
				if fb.Injected() == 0 {
					t.Fatal("battery ran but no faults fired")
				}
				// Allow the runtime a moment to retire exited goroutines before
				// declaring a leak.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Fatalf("%d goroutines outlived their restores (started with %d)", n-before, before)
				}
			})
		}
	}
}

// TestFaultMatrixExhaustion pins the failure half of the contract: when
// every read faults and retries run out, restore fails with the typed
// exhaustion error — it does not hang and it does not hand back partial or
// corrupt sections.
func TestFaultMatrixExhaustion(t *testing.T) {
	mem := remote.NewMemStore()
	policy := remote.Policy{Attempts: 3, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond, Timeout: time.Second}
	// Write cleanly...
	clean := remote.NewObjectBackend(remote.Retry(mem, policy), "packs", nil)
	dir := t.TempDir()
	s, err := store.OpenWith(dir, store.Options{Backend: clean, ShardFanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := faultPayload(32<<10, 9)
	if _, err := s.PutSections(store.Key{LoopID: "train", Exec: 0}, []store.Section{{Name: "w", Data: data}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// ...then read through a store where every ranged GET faults.
	fb := faultbackend.WrapObject(mem, faultbackend.Config{Seed: 5, ReadErrNth: 1})
	faulty := remote.NewObjectBackend(remote.Retry(fb, policy), "packs", nil)
	ro, err := store.OpenWith(dir, store.Options{ReadOnly: true, Backend: faulty})
	if err != nil {
		t.Fatal(err)
	}
	secs, ok, err := ro.GetSections(store.Key{LoopID: "train", Exec: 0}, nil)
	if err == nil {
		t.Fatalf("restore over dead store succeeded (ok=%v, %d sections)", ok, len(secs))
	}
	if !errors.Is(err, remote.ErrExhausted) && !errors.Is(err, faultbackend.ErrInjected) {
		t.Fatalf("restore error is untyped: %v", err)
	}
	if len(secs) != 0 {
		t.Fatalf("failed restore returned %d partial sections", len(secs))
	}
}

// TestFaultMatrixGC runs chunk-compacting GC over a fault-injecting local
// backend: whatever the faults do, GC either completes or fails with an
// error — and the store's latest checkpoints stay byte-identical either way,
// verified through a clean backend.
func TestFaultMatrixGC(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			packs := t.TempDir()
			db, err := store.NewDirBackend(packs)
			if err != nil {
				t.Fatal(err)
			}
			fb := faultbackend.WrapBackend(db, faultbackend.Config{Seed: seed, ReadErrNth: 2, ShortReadNth: 3})
			dir := t.TempDir()
			s, err := store.OpenWith(dir, store.Options{Backend: fb, ShardFanout: 2})
			if err != nil {
				t.Fatal(err)
			}
			// Three versions per key: two superseded generations of chunks
			// for GC to compact away.
			want := map[int][]byte{}
			for ver := 0; ver < 3; ver++ {
				for i := 0; i < 3; i++ {
					data := faultPayload(32<<10, uint64(seed)*100+uint64(ver)*10+uint64(i))
					want[i] = data
					key := store.Key{LoopID: "train", Exec: i}
					if _, err := s.PutSections(key, []store.Section{{Name: "w", Data: data}}, 0, 0, 0); err != nil {
						t.Fatalf("put v%d/%d: %v", ver, i, err)
					}
				}
			}
			res, gcErr := s.GCWith(store.GCOptions{PackRetention: time.Nanosecond})
			if gcErr != nil {
				t.Logf("gc failed under faults (allowed): %v", gcErr)
			} else {
				t.Logf("gc survived faults: %+v", res)
			}
			// Integrity check through a clean backend: the latest version of
			// every key must read back byte-identical, GC success or not.
			cleanDB, err := store.NewDirBackend(packs)
			if err != nil {
				t.Fatal(err)
			}
			ro, err := store.OpenWith(dir, store.Options{ReadOnly: true, Backend: cleanDB})
			if err != nil {
				t.Fatal(err)
			}
			for i, data := range want {
				secs, ok, err := ro.GetSections(store.Key{LoopID: "train", Exec: i}, nil)
				if err != nil || !ok {
					t.Fatalf("post-gc read %d: ok=%v err=%v", i, ok, err)
				}
				if !bytes.Equal(secs[0].Data, data) {
					t.Fatalf("post-gc read %d: bytes differ", i)
				}
			}
			if fb.Injected() == 0 {
				t.Fatal("battery ran but no faults fired")
			}
		})
	}
}
