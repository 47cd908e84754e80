package remote_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/cachetier"
	"flor.dev/flor/internal/store/faultbackend"
	"flor.dev/flor/internal/store/remote"
)

// stores returns the bundled ObjectStore implementations under test, and the
// wrappers a daemon stacks on them: Retry (over a filesystem store, where a
// bad range once panicked inside the attempt goroutine) and a fault injector
// with no faults configured.
func stores(t *testing.T) map[string]remote.ObjectStore {
	t.Helper()
	fsStore := func() remote.ObjectStore {
		fs, err := remote.NewFSStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	fast := remote.Policy{Attempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond, Timeout: time.Second}
	return map[string]remote.ObjectStore{
		"fs":    fsStore(),
		"mem":   remote.NewMemStore(),
		"retry": remote.Retry(fsStore(), fast),
		"fault": faultbackend.WrapObject(remote.NewMemStore(), faultbackend.Config{}),
	}
}

// TestRemoteObjectStoreConformance pins the object-API contract the bundled
// implementations and their wrappers must share: typed absence, exact ranged
// reads that refuse bad ranges before reading, atomic replacement, sorted
// listing, idempotent deletes.
func TestRemoteObjectStoreConformance(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			// Absence is ErrNotFound, which must also read as os.ErrNotExist
			// (the store's stale-pack probe).
			if _, err := st.Get("a/missing"); !errors.Is(err, remote.ErrNotFound) || !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("get missing: %v, want ErrNotFound wrapping os.ErrNotExist", err)
			}
			if _, err := st.Size("a/missing"); !errors.Is(err, remote.ErrNotFound) {
				t.Fatalf("size missing: %v, want ErrNotFound", err)
			}

			data := []byte("0123456789abcdef")
			if err := st.Put("a/obj", data); err != nil {
				t.Fatal(err)
			}
			if n, err := st.Size("a/obj"); err != nil || n != int64(len(data)) {
				t.Fatalf("size = %d, %v", n, err)
			}
			if got, err := st.Get("a/obj"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("get = %q, %v", got, err)
			}
			if got, err := st.GetRange("a/obj", 4, 6); err != nil || string(got) != "456789" {
				t.Fatalf("range = %q, %v", got, err)
			}
			// A bad range is an error, never a panic or an allocation sized by
			// a corrupt location.
			for _, r := range [][2]int64{{10, 10}, {-1, 2}, {0, -1}, {4, -5}, {17, 0}, {0, 1 << 50}} {
				if got, err := st.GetRange("a/obj", r[0], r[1]); err == nil {
					t.Fatalf("range [%d,%d) of a %d-byte object = %q, want an error", r[0], r[0]+r[1], len(data), got)
				}
			}
			if got, err := st.GetRange("a/obj", 16, 0); err != nil || len(got) != 0 {
				t.Fatalf("empty range at the end = %q, %v", got, err)
			}

			// Put replaces wholesale.
			if err := st.Put("a/obj", []byte("new")); err != nil {
				t.Fatal(err)
			}
			if got, _ := st.Get("a/obj"); string(got) != "new" {
				t.Fatalf("after replace: %q", got)
			}

			// List is prefix-filtered and sorted.
			for _, k := range []string{"a/z", "a/b/c", "b/other"} {
				if err := st.Put(k, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			keys, err := st.List("a/")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"a/b/c", "a/obj", "a/z"}
			if fmt.Sprint(keys) != fmt.Sprint(want) {
				t.Fatalf("list = %v, want %v", keys, want)
			}

			// Delete is idempotent.
			if err := st.Delete("a/obj"); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete("a/obj"); err != nil {
				t.Fatalf("second delete: %v", err)
			}
			if _, err := st.Get("a/obj"); !errors.Is(err, remote.ErrNotFound) {
				t.Fatalf("get after delete: %v", err)
			}
		})
	}
}

// TestRemoteGetRangeBufferIsTheCallers pins GetRange's buffer contract, which
// the cache tier and the restore path rely on when they adopt a GET's buffer
// without copying it: every call returns a slice no one else holds, so
// writing into one changes neither the object nor what a later GetRange
// returns, and the caller may give it to ckptfmt.Shared for a later GET to
// read into.
func TestRemoteGetRangeBufferIsTheCallers(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("0123456789abcdef")
			if err := st.Put("k", data); err != nil {
				t.Fatal(err)
			}
			first, err := st.GetRange("k", 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			for i := range first {
				first[i] ^= 0xff
			}
			again, err := st.GetRange("k", 2, 8)
			if err != nil || !bytes.Equal(again, data[2:10]) {
				t.Fatalf("after writing into an earlier result, GetRange = %q, %v", again, err)
			}
			if whole, err := st.Get("k"); err != nil || !bytes.Equal(whole, data) {
				t.Fatalf("after writing into a GetRange result, the object = %q, %v", whole, err)
			}
			ckptfmt.Shared.Put(first)
			ckptfmt.Shared.Put(again)
			if got, err := st.GetRange("k", 4, 6); err != nil || !bytes.Equal(got, data[4:10]) {
				t.Fatalf("after giving earlier results to the arena, GetRange = %q, %v", got, err)
			}
		})
	}
}

// flakyStore fails each operation a fixed number of times before succeeding.
type flakyStore struct {
	remote.ObjectStore
	mu       sync.Mutex
	failures int
	calls    int
}

func (f *flakyStore) trip() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.failures > 0 {
		f.failures--
		return errors.New("transient")
	}
	return nil
}

func (f *flakyStore) Get(key string) ([]byte, error) {
	if err := f.trip(); err != nil {
		return nil, err
	}
	return f.ObjectStore.Get(key)
}

func (f *flakyStore) GetRange(key string, off, n int64) ([]byte, error) {
	if err := f.trip(); err != nil {
		return nil, err
	}
	return f.ObjectStore.GetRange(key, off, n)
}

func (f *flakyStore) Put(key string, data []byte) error {
	if err := f.trip(); err != nil {
		return err
	}
	return f.ObjectStore.Put(key, data)
}

// TestRemoteRetryRecoversTransientFaults pins the wrapper's contract: bounded
// retries absorb transient errors, absence short-circuits, exhaustion and
// timeouts surface as typed errors.
func TestRemoteRetryRecoversTransientFaults(t *testing.T) {
	mem := remote.NewMemStore()
	if err := mem.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	fast := remote.Policy{Attempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond, Timeout: time.Second}

	t.Run("recovers", func(t *testing.T) {
		fl := &flakyStore{ObjectStore: mem, failures: 3}
		r := remote.Retry(fl, fast)
		got, err := r.Get("k")
		if err != nil || string(got) != "payload" {
			t.Fatalf("get = %q, %v", got, err)
		}
	})

	t.Run("exhausts-typed", func(t *testing.T) {
		fl := &flakyStore{ObjectStore: mem, failures: 1 << 30}
		r := remote.Retry(fl, fast)
		_, err := r.Get("k")
		if !errors.Is(err, remote.ErrExhausted) {
			t.Fatalf("err = %v, want ErrExhausted", err)
		}
	})

	t.Run("notfound-not-retried", func(t *testing.T) {
		fl := &flakyStore{ObjectStore: mem}
		r := remote.Retry(fl, fast)
		if _, err := r.Get("absent"); !errors.Is(err, remote.ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
		if fl.calls != 1 {
			t.Fatalf("absence was retried: %d calls", fl.calls)
		}
	})

	t.Run("short-range-retried", func(t *testing.T) {
		r := remote.Retry(&shortOnceStore{ObjectStore: mem}, fast)
		got, err := r.GetRange("k", 0, 7)
		if err != nil || string(got) != "payload" {
			t.Fatalf("range = %q, %v", got, err)
		}
	})

	t.Run("timeout-typed-then-recovers", func(t *testing.T) {
		slow := &slowOnceStore{ObjectStore: mem, delay: 200 * time.Millisecond}
		r := remote.Retry(slow, remote.Policy{Attempts: 2, BaseDelay: time.Microsecond, Timeout: 20 * time.Millisecond})
		got, err := r.Get("k")
		if err != nil || string(got) != "payload" {
			t.Fatalf("get after timeout = %q, %v", got, err)
		}
		one := &slowOnceStore{ObjectStore: mem, delay: 200 * time.Millisecond, always: true}
		r = remote.Retry(one, remote.Policy{Attempts: 2, BaseDelay: time.Microsecond, Timeout: 20 * time.Millisecond})
		_, err = r.Get("k")
		if !errors.Is(err, remote.ErrExhausted) || !errors.Is(err, remote.ErrTimeout) {
			t.Fatalf("err = %v, want ErrExhausted wrapping ErrTimeout", err)
		}
	})
}

// shortOnceStore truncates the first ranged read.
type shortOnceStore struct {
	remote.ObjectStore
	mu   sync.Mutex
	done bool
}

func (s *shortOnceStore) GetRange(key string, off, n int64) ([]byte, error) {
	data, err := s.ObjectStore.GetRange(key, off, n)
	s.mu.Lock()
	first := !s.done
	s.done = true
	s.mu.Unlock()
	if err == nil && first && len(data) > 1 {
		return data[:len(data)-1], nil
	}
	return data, err
}

// slowOnceStore delays the first (or every) Get past the caller's timeout.
type slowOnceStore struct {
	remote.ObjectStore
	delay  time.Duration
	always bool
	mu     sync.Mutex
	done   bool
}

func (s *slowOnceStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	first := !s.done
	s.done = true
	s.mu.Unlock()
	if first || s.always {
		time.Sleep(s.delay)
	}
	return s.ObjectStore.Get(key)
}

// TestRemoteLeaseExclusion pins the writer-lease protocol: held leases
// exclude, expiry allows takeover, renewal extends, release frees.
func TestRemoteLeaseExclusion(t *testing.T) {
	mem := remote.NewMemStore()
	key := remote.LeaseKey("runs/imgn")
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }

	a, err := remote.AcquireLease(mem, key, remote.LeaseConfig{Owner: "daemon-a", TTL: time.Minute, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.AcquireLease(mem, key, remote.LeaseConfig{Owner: "daemon-b", TTL: time.Minute, Now: clock}); !errors.Is(err, remote.ErrLeaseHeld) {
		t.Fatalf("second acquire: %v, want ErrLeaseHeld", err)
	}

	// Renewal pushes expiry out; a renewed lease still excludes after the
	// original TTL would have lapsed.
	now = now.Add(50 * time.Second)
	if err := a.Renew(); err != nil {
		t.Fatalf("renew: %v", err)
	}
	now = now.Add(30 * time.Second) // 80s after acquire, 30s after renew
	if _, err := remote.AcquireLease(mem, key, remote.LeaseConfig{Owner: "daemon-b", TTL: time.Minute, Now: clock}); !errors.Is(err, remote.ErrLeaseHeld) {
		t.Fatalf("acquire after renew: %v, want ErrLeaseHeld", err)
	}

	// A crashed holder's lease is taken over once the TTL passes.
	now = now.Add(2 * time.Minute)
	b, err := remote.AcquireLease(mem, key, remote.LeaseConfig{Owner: "daemon-b", TTL: time.Minute, Now: clock})
	if err != nil {
		t.Fatalf("takeover after expiry: %v", err)
	}
	// The dispossessed holder cannot renew, and its release leaves the new
	// holder's record intact.
	if err := a.Renew(); !errors.Is(err, remote.ErrLeaseHeld) {
		t.Fatalf("stale renew: %v, want ErrLeaseHeld", err)
	}
	if err := a.Release(); err != nil {
		t.Fatalf("stale release: %v", err)
	}
	if err := b.Renew(); err != nil {
		t.Fatalf("new holder renew after stale release: %v", err)
	}

	// Release frees the lease for the next writer.
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.AcquireLease(mem, key, remote.LeaseConfig{Owner: "daemon-c", TTL: time.Minute, Now: clock}); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

// TestRemoteBackendStoreRoundTrip runs a checkpoint store end to end over the
// object backend, the way a run reaches it: recorded locally, shipped with
// UploadRun, and opened read-only through the backend. Reads come back
// byte-identical through ranged GETs, and the fetch accounting attributes
// every byte to the remote/cache-tier pair.
func TestRemoteBackendStoreRoundTrip(t *testing.T) {
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			src := t.TempDir()
			s, err := store.Open(src)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int][]byte{}
			for i := 0; i < 6; i++ {
				data := testRemotePayload(96<<10, uint64(i))
				want[i] = data
				key := store.Key{LoopID: "train", Exec: i}
				if _, err := s.PutSections(key, []store.Section{{Name: "w", Data: data}}, 0, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			mem := remote.NewMemStore()
			if _, err := remote.UploadRun(mem, src, "runs/rt"); err != nil {
				t.Fatal(err)
			}
			// Pack objects actually live remotely.
			if keys, _ := mem.List("runs/rt/packs/"); len(keys) == 0 {
				t.Fatal("no pack objects in the object store")
			}
			var cache *cachetier.Cache
			if cached {
				if cache, err = cachetier.New("", 8<<20); err != nil {
					t.Fatal(err)
				}
			}

			// A read-only open over a fetched control plane restores
			// byte-identically, attributing every encoded byte to the
			// remote-shaped tiers.
			ctl := filepath.Join(t.TempDir(), "ctl")
			if _, err := remote.FetchControlPlane(mem, "runs/rt", ctl); err != nil {
				t.Fatal(err)
			}
			backend := remote.NewObjectBackend(mem, remote.PacksPrefix("runs/rt"), cache)
			ro, err := store.OpenWith(ctl, store.Options{ReadOnly: true, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			var fs store.FetchStats
			for i, data := range want {
				secs, _, err := ro.GetSectionsObserved(store.Key{LoopID: "train", Exec: i}, nil, &fs)
				if err != nil {
					t.Fatalf("exec %d: %v", i, err)
				}
				if !bytes.Equal(secs[0].Data, data) {
					t.Fatalf("exec %d: payload mismatch", i)
				}
			}
			snap := fs.Snapshot()
			if snap.MmapBytes+snap.ScatterBytes+snap.RangedBytes != 0 {
				t.Fatalf("remote store used local fetch tiers: %+v", snap)
			}
			if snap.RemoteBytes+snap.CacheTierBytes == 0 {
				t.Fatalf("no remote-tier attribution: %+v", snap)
			}
			if cached {
				// Everything the first pass fetched is resident; a second
				// pass must be nearly all cache-tier.
				var warm store.FetchStats
				for i, data := range want {
					secs, _, err := ro.GetSectionsObserved(store.Key{LoopID: "train", Exec: i}, nil, &warm)
					if err != nil || !bytes.Equal(secs[0].Data, data) {
						t.Fatalf("warm exec %d: %v", i, err)
					}
				}
				ws := warm.Snapshot()
				total := ws.RemoteBytes + ws.CacheTierBytes
				if total == 0 || ws.CacheTierBytes*10 < total*9 {
					t.Fatalf("warm pass served %d of %d bytes from the cache tier, want >= 90%%", ws.CacheTierBytes, total)
				}
			} else if snap.CacheTierBytes != 0 {
				t.Fatalf("uncached backend attributed cache-tier bytes: %+v", snap)
			}
		})
	}
}

// writeCounter counts the writes that reach an object store.
type writeCounter struct {
	remote.ObjectStore
	puts, deletes atomic.Int64
}

func (w *writeCounter) Put(key string, data []byte) error {
	w.puts.Add(1)
	return w.ObjectStore.Put(key, data)
}

func (w *writeCounter) Delete(key string) error {
	w.deletes.Add(1)
	return w.ObjectStore.Delete(key)
}

// TestObjectBackendIsReadOnly pins that UploadRun is the one way into the
// object store: an ObjectBackend's Append, Create and Remove fail with
// store.ErrReadOnly — called directly or through a writable store's put —
// and not one PUT or DELETE reaches the object store behind it.
func TestObjectBackendIsReadOnly(t *testing.T) {
	objs := &writeCounter{ObjectStore: remote.NewMemStore()}
	cache, err := cachetier.New("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	backend := remote.NewObjectBackend(objs, "packs", cache)
	if err := backend.Append("CHUNKS", []byte("frame")); !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("Append: %v, want store.ErrReadOnly", err)
	}
	if w, err := backend.Create("CHUNKS.g1"); w != nil || !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("Create: writer %v, err %v; want none and store.ErrReadOnly", w, err)
	}
	if err := backend.Remove("CHUNKS"); !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("Remove: %v, want store.ErrReadOnly", err)
	}
	s, err := store.OpenWith(t.TempDir(), store.Options{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.PutSections(store.Key{LoopID: "train", Exec: 0}, []store.Section{{Name: "w", Data: testRemotePayload(4<<10, 1)}}, 0, 0, 0)
	if !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("put through the backend: %v, want store.ErrReadOnly", err)
	}
	if p, d := objs.puts.Load(), objs.deletes.Load(); p != 0 || d != 0 {
		t.Fatalf("the object store saw %d PUTs and %d DELETEs, want none", p, d)
	}
	if keys, _ := objs.List(""); len(keys) != 0 {
		t.Fatalf("the object store holds %v", keys)
	}
}

// TestRemoteUploadRestoreCycle uploads a locally recorded store and serves it
// back statelessly: control plane fetched to a fresh directory, packs read
// through the object backend, all checkpoints byte-identical. Uploads are
// idempotent.
func TestRemoteUploadRestoreCycle(t *testing.T) {
	// Record locally.
	src := t.TempDir()
	s, err := store.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]byte{}
	for i := 0; i < 5; i++ {
		data := testRemotePayload(64<<10, uint64(100+i))
		want[i] = data
		if _, err := s.PutSections(store.Key{LoopID: "train", Exec: i}, []store.Section{{Name: "w", Data: data}}, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	mem := remote.NewMemStore()
	n, err := remote.UploadRun(mem, src, "runs/r1")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing uploaded")
	}
	// Idempotent: a second pass moves nothing.
	if n2, err := remote.UploadRun(mem, src, "runs/r1"); err != nil || n2 != 0 {
		t.Fatalf("re-upload moved %d objects, err=%v; want 0, nil", n2, err)
	}

	// Stateless restore on a "different machine": fresh control-plane dir,
	// packs via ranged GETs through a cache tier.
	ctl := t.TempDir() + "/ctl"
	if _, err := remote.FetchControlPlane(mem, "runs/r1", ctl); err != nil {
		t.Fatal(err)
	}
	cache, err := cachetier.New("", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	backend := remote.NewObjectBackend(mem, remote.PacksPrefix("runs/r1"), cache)
	ro, err := store.OpenWith(ctl, store.Options{ReadOnly: true, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range want {
		secs, err := readAll(ro, store.Key{LoopID: "train", Exec: i})
		if err != nil || !bytes.Equal(secs[0].Data, data) {
			t.Fatalf("remote restore exec %d: %v", i, err)
		}
	}
	if cache.Stats().MissBytes == 0 {
		t.Fatal("restore never touched the cache tier")
	}
}

// TestRemoteUploadSkipsLeftBehindFiles: a run in a layout an older build
// left is migrated, not uploaded, and what an older build's gzip pass left
// in a run directory — ".gz" twins of segments and packs and its SPOOL
// state — is no part of the run. On a copy of the committed store an older
// build spread over two extra roots (testdata/multiroot), UploadRun fails
// with store.ErrLegacyLayout and uploads nothing. Migrated (core.Migrate),
// with twins and SPOOL planted beside it, the run uploads every
// control-plane file and pack and none of those; FetchControlPlane does not
// write them out of a prefix an older upload filled, and the fetched run
// reads every checkpoint back through the object backend.
func TestRemoteUploadSkipsLeftBehindFiles(t *testing.T) {
	base := t.TempDir()
	if err := os.CopyFS(base, os.DirFS(filepath.Join("..", "..", "..", "testdata", "multiroot"))); err != nil {
		t.Fatal(err)
	}
	mem := remote.NewMemStore()
	if _, err := remote.UploadRun(mem, filepath.Join(base, "run"), "runs/legacy"); !errors.Is(err, store.ErrLegacyLayout) || !strings.Contains(err.Error(), "florctl migrate") {
		t.Fatalf("uploading a multi-root run: %v, want store.ErrLegacyLayout naming florctl migrate", err)
	}
	if keys, err := mem.List("runs/"); err != nil || len(keys) != 0 {
		t.Fatalf("the refused upload left %v (%v)", keys, err)
	}

	src := filepath.Join(t.TempDir(), "run")
	if err := core.Migrate(filepath.Join(base, "run"), src, ""); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{} // every run file a restore needs, by key
	plant := func(name string) {
		if err := os.WriteFile(filepath.Join(src, name), []byte("left behind"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	sawLeases := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			// LEASES/: the run's lease of its own pool is no part of what a
			// restore reads, and UploadRun ships files only.
			sawLeases = sawLeases || name == "LEASES"
			continue
		}
		sub := "ctl"
		if strings.HasPrefix(name, "CHUNKS") {
			sub = "packs"
			plant(name + ".gz")
		}
		want["runs/r2/"+sub+"/"+name] = true
	}
	if !sawLeases {
		t.Fatal("the migrated run holds no LEASES directory")
	}
	plant("ckpt-00000000.bin.gz")
	plant("SPOOL")
	if _, err := remote.UploadRun(mem, src, "runs/r2"); err != nil {
		t.Fatal(err)
	}
	keys, err := mem.List("runs/r2/")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, k := range keys {
		got[k] = true
	}
	if !maps.Equal(got, want) {
		t.Fatalf("uploaded %v, want %v", keys, slices.Sorted(maps.Keys(want)))
	}

	// A prefix an older upload filled: its twins stay remote.
	for _, name := range []string{"ckpt-00000000.bin.gz", "SPOOL"} {
		if err := mem.Put("runs/r2/ctl/"+name, []byte("left behind")); err != nil {
			t.Fatal(err)
		}
	}
	ctl := filepath.Join(t.TempDir(), "ctl")
	if _, err := remote.FetchControlPlane(mem, "runs/r2", ctl); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ckpt-00000000.bin.gz", "SPOOL"} {
		if _, err := os.Stat(filepath.Join(ctl, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("FetchControlPlane wrote %s (stat: %v)", name, err)
		}
	}
	local, err := store.OpenReadOnly(src)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := store.OpenWith(ctl, store.Options{ReadOnly: true, Backend: remote.NewObjectBackend(mem, remote.PacksPrefix("runs/r2"), nil)})
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Metas()) != 6 {
		t.Fatalf("the migrated run holds %d checkpoints, want 6", len(local.Metas()))
	}
	for _, m := range local.Metas() {
		w, err := readAll(local, m.Key)
		if err != nil {
			t.Fatal(err)
		}
		g, err := readAll(ro, m.Key)
		if err != nil || len(g) != len(w) {
			t.Fatalf("remote read of %s: %d sections, %v", m.Key, len(g), err)
		}
		for i := range w {
			if !bytes.Equal(g[i].Data, w[i].Data) {
				t.Fatalf("remote read of %s section %q differs", m.Key, w[i].Name)
			}
		}
	}
}

// testRemotePayload builds a deterministic mixed payload: compressible runs
// with a seeded stride of unique bytes, so packs have realistic frame mixes.
func testRemotePayload(n int, seed uint64) []byte {
	p := make([]byte, n)
	x := seed*2862933555777941757 + 3037000493
	for i := range p {
		if i%7 == 0 {
			x = x*2862933555777941757 + 3037000493
			p[i] = byte(x >> 56)
		}
	}
	return p
}

// readAll reads every section of key's checkpoint into fresh buffers:
// Resolve, then ReadInto with no callback.
func readAll(st *store.Store, key store.Key) ([]store.Section, error) {
	c, err := st.Resolve(key)
	if err != nil {
		return nil, err
	}
	return c.ReadInto(nil, nil, nil, nil)
}
