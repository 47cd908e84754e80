package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flor.dev/flor/internal/ckptfmt"
)

// testPayload builds n bytes of deterministic, incompressible data.
func testPayload(n int, seed uint64) []byte {
	b := make([]byte, n)
	x := seed*2862933555777941757 + 3037000493
	for i := range b {
		x = x*2862933555777941757 + 3037000493
		b[i] = byte(x >> 56)
	}
	return b
}

// familySections builds a fine-tuning-family checkpoint: a large shared
// "backbone" (identical across runs) plus a small per-run "head".
func familySections(backboneSeed, headSeed uint64, epoch int) []Section {
	head := testPayload(4<<10, headSeed)
	head[0] = byte(epoch) // mutate per epoch
	return []Section{
		{Name: "backbone", Data: testPayload(1<<20, backboneSeed)},
		{Name: "head", Data: head},
	}
}

func openPooled(t *testing.T, dir, pool string) *Store {
	t.Helper()
	s, err := OpenWith(dir, Options{Pool: pool})
	if err != nil {
		t.Fatalf("open pooled %s: %v", dir, err)
	}
	return s
}

func TestPooledRoundTripAndReopen(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	runA := filepath.Join(base, "run-a")
	runB := filepath.Join(base, "run-b")

	a := openPooled(t, runA, pool)
	b := openPooled(t, runB, pool)
	for e := 0; e < 3; e++ {
		if _, err := a.PutSections(Key{LoopID: "train", Exec: e}, familySections(1, 100, e), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := b.PutSections(Key{LoopID: "train", Exec: e}, familySections(1, 200, e), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	// The shared backbone is stored once pool-wide: run B's checkpoints
	// added only head chunks.
	ps, ok := b.PoolStats()
	if !ok {
		t.Fatal("PoolStats not ok on pooled store")
	}
	backbone := int64(1 << 20)
	if ps.StoredRawBytes >= 2*backbone {
		t.Fatalf("pool stores %d raw bytes; want < 2 backbones (%d) — cross-run dedup broken", ps.StoredRawBytes, 2*backbone)
	}
	if b.Dedup().StoredRawBytes >= backbone {
		t.Fatalf("run B stored %d raw bytes; want < one backbone (dedup against sibling run A)", b.Dedup().StoredRawBytes)
	}

	// Layout and pool reference are detectable without opening.
	l, err := DetectLayout(runA)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Pooled || l.String() != fmt.Sprintf("v2-pooled/%d", DefaultShardFanout) {
		t.Fatalf("layout = %s (pooled=%v)", l, l.Pooled)
	}
	root, ok, err := PoolRef(runA)
	if err != nil || !ok {
		t.Fatalf("PoolRef: %v ok=%v", err, ok)
	}
	want, _ := resolvePoolRoot(pool)
	if root != want {
		t.Fatalf("PoolRef = %q, want %q", root, want)
	}

	// Reopen from disk in a "fresh process" (registry reset): the pool
	// INDEX and the runs' manifests must reconstruct everything, flag-free.
	resetPoolRegistry()
	for _, dir := range []string{runA, runB} {
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen %s: %v", dir, err)
		}
		for e := 0; e < 3; e++ {
			secs, err := ReadAll(s, Key{LoopID: "train", Exec: e}, nil)
			if err != nil {
				t.Fatalf("%s exec %d: %v", dir, e, err)
			}
			wantSeed := uint64(100)
			if dir == runB {
				wantSeed = 200
			}
			want := familySections(1, wantSeed, e)
			if len(secs) != len(want) {
				t.Fatalf("%s exec %d: %d sections", dir, e, len(secs))
			}
			for i := range secs {
				if !bytes.Equal(secs[i].Data, want[i].Data) {
					t.Fatalf("%s exec %d section %q: payload mismatch", dir, e, secs[i].Name)
				}
			}
		}
	}
}

// TestPooledFamilyStoresThreeTimesLess is the cross-run dedup acceptance bar:
// a 4-run fine-tuning family over one frozen backbone stores at least 3x
// fewer pack bytes in a shared chunk pool than in per-run private packs, and
// its family-wide dedup ratio (logical bytes per stored raw byte) is higher.
func TestPooledFamilyStoresThreeTimesLess(t *testing.T) {
	const runs, epochs = 4, 3
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	var logical int64
	var private DedupStats
	var pooled *Store
	for r := 0; r < runs; r++ {
		priv, err := Open(filepath.Join(base, fmt.Sprintf("private-%d", r)))
		if err != nil {
			t.Fatal(err)
		}
		pooled = openPooled(t, filepath.Join(base, fmt.Sprintf("pooled-%d", r)), pool)
		for e := 0; e < epochs; e++ {
			secs := familySections(1, uint64(100+r), e)
			for _, st := range []*Store{priv, pooled} {
				if _, err := st.PutSections(Key{LoopID: "train", Exec: e}, secs, 0, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		d := priv.Dedup()
		logical += d.LogicalBytes
		private.StoredEncBytes += d.StoredEncBytes
		private.StoredRawBytes += d.StoredRawBytes
	}
	ps, ok := pooled.PoolStats()
	if !ok {
		t.Fatal("PoolStats not ok on pooled store")
	}
	if private.StoredEncBytes < 3*ps.StoredEncBytes {
		t.Fatalf("family stores %d bytes private, %d pooled: %.2fx, acceptance bar is >= 3x",
			private.StoredEncBytes, ps.StoredEncBytes, float64(private.StoredEncBytes)/float64(ps.StoredEncBytes))
	}
	if pooledRatio, privateRatio := float64(logical)/float64(ps.StoredRawBytes), float64(logical)/float64(private.StoredRawBytes); pooledRatio <= privateRatio {
		t.Fatalf("pooled family dedup ratio %.2f not above private %.2f", pooledRatio, privateRatio)
	}
}

func TestPooledReadOnlyOpen(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run := filepath.Join(base, "run")
	s := openPooled(t, run, pool)
	if _, err := s.PutSections(Key{LoopID: "train", Exec: 0}, familySections(7, 8, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	resetPoolRegistry()
	ro, err := OpenReadOnly(run)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(ro, Key{LoopID: "train", Exec: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.PutSections(Key{LoopID: "train", Exec: 1}, familySections(7, 8, 1), 0, 0, 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on read-only pooled store: %v", err)
	}

	// A writable sibling can still attach while the read-only open is live
	// (the read-only open is a snapshot of its own).
	sib := openPooled(t, filepath.Join(base, "run2"), pool)
	if _, err := sib.PutSections(Key{LoopID: "train", Exec: 0}, familySections(7, 9, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPooledOpenRefusals(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")

	// A recorded private-pack run cannot be relocated into a pool.
	private := filepath.Join(base, "private")
	s, err := Open(private)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutSections(Key{LoopID: "train", Exec: 0}, familySections(1, 2, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(private, Options{Pool: pool}); err == nil {
		t.Fatal("attaching a recorded private run to a pool must be refused")
	}

	// Pool options compose with nothing that moves packs elsewhere.
	if _, err := OpenWith(filepath.Join(base, "x1"), Options{Pool: pool, ShardDirs: []string{filepath.Join(base, "extra")}}); err == nil {
		t.Fatal("Pool+ShardDirs must be refused")
	}

	// A new run cannot attach to a pool an older build made at another
	// fanout: the pool is read-only, and nothing of it changes.
	pool4 := legacyFixture(t, "pool4")
	before := dirBytes(t, pool4)
	if _, err := OpenWith(filepath.Join(base, "a"), Options{Pool: pool4}); !errors.Is(err, ErrLegacyLayout) {
		t.Fatalf("attaching to a fanout-4 pool: %v, want ErrLegacyLayout", err)
	}
	if !maps.Equal(before, dirBytes(t, pool4)) {
		t.Fatal("the refused attach changed the fanout-4 pool")
	}

	// A recorded pooled run whose marker disagrees with its pool's fanout
	// is refused, read-only too: its chunks would be looked up in the wrong
	// shards.
	a := filepath.Join(base, "a")
	pa := openPooled(t, a, pool)
	if _, err := pa.PutSections(Key{LoopID: "train", Exec: 0}, familySections(1, 4, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(a, formatFile), []byte("2 pool shards=8 dirs\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReadOnly(a); err == nil {
		t.Fatal("conflicting pool fanout must be refused")
	}

	// A recorded pooled run cannot be repointed to a different pool, and a
	// pinned open must match the recorded attachment exactly.
	pooled := filepath.Join(base, "pooled")
	ps := openPooled(t, pooled, pool)
	if _, err := ps.PutSections(Key{LoopID: "train", Exec: 0}, familySections(1, 3, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(base, "POOL2")
	if _, err := OpenWith(filepath.Join(base, "c"), Options{Pool: other}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(pooled, Options{Pool: other}); err == nil {
		t.Fatal("repointing a pooled run to another pool must be refused")
	}
	if _, err := OpenWith(pooled, Options{ReadOnly: true, PinPool: true}); err == nil {
		t.Fatal("pinning 'not pooled' onto a pooled run must be refused")
	}
	if _, err := OpenWith(pooled, Options{ReadOnly: true, Pool: pool, PinPool: true}); err != nil {
		t.Fatalf("pinning the recorded pool must succeed: %v", err)
	}
	if _, err := OpenWith(private, Options{ReadOnly: true, PinPool: true}); err != nil {
		t.Fatalf("pinning 'not pooled' onto a private run must succeed: %v", err)
	}
}

// TestPoolConcurrentSiblingRecordReplay is the pool-concurrency race test:
// several sibling runs record into one pool while other goroutines replay
// an already-committed sibling, through read-only snapshots and through the
// writable store that shares the registered instance, and further writable
// attaches reload that instance under them — the CI -race lane drives it.
func TestPoolConcurrentSiblingRecordReplay(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")

	seed := openPooled(t, filepath.Join(base, "run-seed"), pool)
	for e := 0; e < 4; e++ {
		if _, err := seed.PutSections(Key{LoopID: "train", Exec: e}, familySections(42, 1, e), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	const writers, readers, attachers, epochs = 3, 3, 2, 4
	var wg sync.WaitGroup
	errs := make(chan error, writers+2*readers+attachers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st, err := OpenWith(filepath.Join(base, fmt.Sprintf("run-%d", w)), Options{Pool: pool})
			if err != nil {
				errs <- err
				return
			}
			for e := 0; e < epochs; e++ {
				if _, err := st.PutSections(Key{LoopID: "train", Exec: e}, familySections(42, uint64(10+w), e), 0, 0, 0); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Every attach reloads the registered instance while the writers put
	// through it and the readers below resolve through it.
	for a := 0; a < attachers; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				st, err := OpenWith(filepath.Join(base, fmt.Sprintf("attach-%d-%d", a, e)), Options{Pool: pool})
				if err != nil {
					errs <- err
					return
				}
				if _, err := st.PutSections(Key{LoopID: "train", Exec: 0}, familySections(42, uint64(20+a), e), 0, 0, 0); err != nil {
					errs <- err
					return
				}
			}
		}(a)
	}
	readSeed := func(st *Store) error {
		for pass := 0; pass < 3; pass++ {
			for e := 0; e < 4; e++ {
				secs, err := ReadAll(st, Key{LoopID: "train", Exec: e}, nil)
				if err != nil {
					return fmt.Errorf("reader exec %d: %v", e, err)
				}
				want := familySections(42, 1, e)
				for i := range secs {
					if !bytes.Equal(secs[i].Data, want[i].Data) {
						return fmt.Errorf("reader exec %d: section %q mismatch", e, secs[i].Name)
					}
				}
			}
		}
		return nil
	}
	for r := 0; r < readers; r++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			ro, err := OpenReadOnly(filepath.Join(base, "run-seed"))
			if err == nil {
				err = readSeed(ro)
			}
			if err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			if err := readSeed(seed); err != nil {
				errs <- fmt.Errorf("writable %v", err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All writers' identical backbones deduplicated to one copy.
	ps, _ := seed.PoolStats()
	if ps.StoredRawBytes >= 2<<20 {
		t.Fatalf("pool stored %d raw bytes under concurrency; want < 2 MB", ps.StoredRawBytes)
	}
}

func TestPoolLeaseLifecycle(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run := filepath.Join(base, "run")
	s := openPooled(t, run, pool)
	if _, err := s.PutSections(Key{LoopID: "train", Exec: 0}, familySections(5, 6, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	leaseDir := filepath.Join(pool, poolLeaseDir)
	entries, err := os.ReadDir(leaseDir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("lease entries = %v, err %v; want exactly one", entries, err)
	}

	if err := DeleteRun(run); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(run); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("run dir survived DeleteRun: %v", err)
	}
	entries, err = os.ReadDir(leaseDir)
	if err != nil || len(entries) != 0 {
		t.Fatalf("lease survived DeleteRun: %v, err %v", entries, err)
	}
}

// TestPoolRegistryKeyStableAcrossSymlinks pins the registry-key contract: a
// pool root named through a symlinked prefix before the root exists must
// resolve to the same in-process pool as the real path afterward — two
// instances over one INDEX would interleave corrupt offsets.
func TestPoolRegistryKeyStableAcrossSymlinks(t *testing.T) {
	base := t.TempDir()
	real := filepath.Join(base, "real")
	if err := os.Mkdir(real, 0o755); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(base, "link")
	if err := os.Symlink(real, link); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}

	// First attach goes through the symlink while POOL does not exist yet;
	// the sibling attaches via the real path once it does.
	a := openPooled(t, filepath.Join(base, "run-a"), filepath.Join(link, "POOL"))
	b := openPooled(t, filepath.Join(base, "run-b"), filepath.Join(real, "POOL"))
	if _, err := a.PutSections(Key{LoopID: "train", Exec: 0}, familySections(11, 1, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PutSections(Key{LoopID: "train", Exec: 0}, familySections(11, 2, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if a.PoolRoot() != b.PoolRoot() {
		t.Fatalf("registry split-brain: %q vs %q", a.PoolRoot(), b.PoolRoot())
	}
	// One instance means cross-run dedup: one backbone pool-wide.
	ps, _ := a.PoolStats()
	if ps.StoredRawBytes >= 2<<20 {
		t.Fatalf("pool stored %d raw bytes; the symlinked sibling missed the dedup index", ps.StoredRawBytes)
	}
	// And both runs read back through either instance handle.
	for _, st := range []*Store{a, b} {
		if _, err := ReadAll(st, Key{LoopID: "train", Exec: 0}, nil); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
}

// TestLeaseCollisionKeepsBothRunsPinned pins the content-checked lease
// protocol: two distinct entries forced onto one short-hash file name must
// not merge refcounts — deleting one run may not unpin the other.
func TestLeaseCollisionKeepsBothRunsPinned(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	runA := filepath.Join(base, "exp")
	a := openPooled(t, runA, pool)
	if _, err := a.PutSections(Key{LoopID: "train", Exec: 0}, familySections(21, 1, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	// Simulate a short-hash collision: plant run B's lease under run A's
	// short-hash file name (the adversarial 2^-32 case), then attach B so
	// writeLease must detect the occupied name and fall back.
	entryA, err := leaseEntry(pool, runA)
	if err != nil {
		t.Fatal(err)
	}
	runB := filepath.Join(base, "other", "exp")
	bStore := openPooled(t, runB, pool)
	if _, err := bStore.PutSections(Key{LoopID: "train", Exec: 0}, familySections(21, 2, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	entryB, err := leaseEntry(pool, runB)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite B's lease layout with the collision: remove its real lease,
	// then re-add it under A's short-hash name is impossible without hash
	// control — instead verify the content-checked probe directly: planting
	// B's entry under A's candidate name must not satisfy A's findLease,
	// and a fresh writeLease for A must restore A's pin.
	p, err := openSharedPool(pool, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	aPath, ok := findLease(pool, entryA)
	if !ok {
		t.Fatal("run A lease missing")
	}
	if err := os.WriteFile(aPath, []byte(entryB+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := findLease(pool, entryA); ok {
		t.Fatal("findLease matched a lease holding a different entry")
	}
	if err := p.writeLease(runA); err != nil {
		t.Fatal(err)
	}
	pathA2, ok := findLease(pool, entryA)
	if !ok || pathA2 == aPath {
		t.Fatalf("collision fallback not used: ok=%v path=%q", ok, pathA2)
	}
	// Both entries now resolve; GC keeps both runs' chunks.
	if _, err := GCPool(pool, GCOptions{PackRetention: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{a, bStore} {
		if _, err := ReadAll(st, Key{LoopID: "train", Exec: 0}, nil); err != nil {
			t.Fatalf("post-GC read: %v", err)
		}
	}
}

// The four tests below run part of their work as another process sharing
// the pool's files would (asAnotherProcess). A pool instance of this
// process must then hold what those files commit: a read-only attach opens
// a snapshot of them, and every writable attach reloads the one writable
// instance from them.

// putPayload puts payload as key's one section, named "w".
func putPayload(t *testing.T, s *Store, key Key, payload []byte) *Meta {
	t.Helper()
	m, err := s.PutSections(key, []Section{{Name: "w", Data: payload}}, 0, 0, 0)
	if err != nil {
		t.Fatalf("put %s in %s: %v", key, s.Dir(), err)
	}
	return m
}

// checkPayload reads key's checkpoint from the run at dir, opened afresh as
// a new process would, and compares it with payload.
func checkPayload(t *testing.T, dir string, key Key, payload []byte) {
	t.Helper()
	s, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	secs, err := ReadAll(s, key, nil)
	if err != nil {
		t.Fatalf("read %s of %s: %v", key, dir, err)
	}
	if len(secs) != 1 || !bytes.Equal(secs[0].Data, payload) {
		t.Fatalf("read %s of %s: payload mismatch", key, dir)
	}
}

// TestAnotherProcessRecordedSiblingReadsReadOnly: a process that holds a
// read-only open of run1 opens run2, which another process recorded into
// the pool afterwards, and reads all of it.
func TestAnotherProcessRecordedSiblingReadsReadOnly(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run1, run2 := filepath.Join(base, "run1"), filepath.Join(base, "run2")
	key := Key{LoopID: "train", Exec: 0}
	asAnotherProcess(func() { putPayload(t, openPooled(t, run1, pool), key, testPayload(4<<20, 1)) })
	if _, err := OpenReadOnly(run1); err != nil {
		t.Fatal(err)
	}
	asAnotherProcess(func() { putPayload(t, openPooled(t, run2, pool), key, testPayload(4<<20, 2)) })
	checkPayload(t, run2, key, testPayload(4<<20, 2))
	checkPayload(t, run1, key, testPayload(4<<20, 1))
}

// TestAnotherProcessAppendsAdoptedByWritableAttach: a process holding a
// writable instance records run3 after another process recorded run2. The
// attach adopts run2's chunks (a put of run2's payload stores nothing) and
// the packs' real lengths, so run3's fresh chunks land at the packs' ends
// and every run reads back in a new process.
func TestAnotherProcessAppendsAdoptedByWritableAttach(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run1, run2, run3 := filepath.Join(base, "run1"), filepath.Join(base, "run2"), filepath.Join(base, "run3")
	k0, k1 := Key{LoopID: "train", Exec: 0}, Key{LoopID: "train", Exec: 1}
	putPayload(t, openPooled(t, run1, pool), k0, testPayload(4<<20, 1))
	asAnotherProcess(func() { putPayload(t, openPooled(t, run2, pool), k0, testPayload(4<<20, 2)) })

	s3 := openPooled(t, run3, pool)
	deduped := putPayload(t, s3, k0, testPayload(4<<20, 2))
	putPayload(t, s3, k1, testPayload(4<<20, 3))
	resetPoolRegistry()
	checkPayload(t, run1, k0, testPayload(4<<20, 1))
	checkPayload(t, run2, k0, testPayload(4<<20, 2))
	checkPayload(t, run3, k0, testPayload(4<<20, 2))
	checkPayload(t, run3, k1, testPayload(4<<20, 3))
	if deduped.StoredBytes != 0 {
		t.Fatalf("run2's chunks stored again (%d bytes): the attach did not adopt another process's INDEX appends", deduped.StoredBytes)
	}
}

// TestAnotherProcessGCThenAttachAndPut: another process compacts the pool
// (Store.GCWith, then GCPool) while this one holds it, read-only or
// writable. A run this process then attaches puts its chunks into the
// packs' new generations, so they read back in a new process.
func TestAnotherProcessGCThenAttachAndPut(t *testing.T) {
	for _, held := range []string{"read-only", "writable"} {
		t.Run(held, func(t *testing.T) {
			base := t.TempDir()
			pool := filepath.Join(base, "POOL")
			run1, fresh := filepath.Join(base, "run1"), filepath.Join(base, "fresh")
			key := Key{LoopID: "train", Exec: 0}
			asAnotherProcess(func() {
				s := openPooled(t, run1, pool)
				putPayload(t, s, key, testPayload(8<<20, 1))
				putPayload(t, s, key, testPayload(8<<20, 2))
			})
			var err error
			if held == "read-only" {
				_, err = OpenReadOnly(run1)
			} else {
				_, err = OpenWith(filepath.Join(base, "holder"), Options{Pool: pool})
			}
			if err != nil {
				t.Fatal(err)
			}
			asAnotherProcess(func() {
				s, err := Open(run1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.GCWith(GCOptions{PackRetention: time.Hour}); err != nil {
					t.Fatal(err)
				}
				res, err := GCPool(pool, GCOptions{PackRetention: time.Hour})
				if err != nil || res.CompactedShards == 0 {
					t.Fatalf("GCPool: %+v, %v; want compacted shards", res, err)
				}
			})
			putPayload(t, openPooled(t, fresh, pool), key, testPayload(8<<20, 3))
			resetPoolRegistry()
			checkPayload(t, fresh, key, testPayload(8<<20, 3))
			checkPayload(t, run1, key, testPayload(8<<20, 2))
		})
	}
}

// TestAnotherProcessRecordedSiblingSurvivesGCPool: GCPool runs in a
// process whose writable instance predates run2, which another process
// recorded. The pass collects only run1's superseded checkpoint, and run2
// still reads.
func TestAnotherProcessRecordedSiblingSurvivesGCPool(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run1, run2 := filepath.Join(base, "run1"), filepath.Join(base, "run2")
	key := Key{LoopID: "train", Exec: 0}
	s1 := openPooled(t, run1, pool)
	superseded := putPayload(t, s1, key, testPayload(4<<20, 1))
	putPayload(t, s1, key, testPayload(4<<20, 2))
	if _, err := s1.GC(); err != nil {
		t.Fatal(err)
	}
	asAnotherProcess(func() { putPayload(t, openPooled(t, run2, pool), key, testPayload(4<<20, 3)) })

	res, err := GCPool(pool, GCOptions{PackRetention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	resetPoolRegistry()
	checkPayload(t, run2, key, testPayload(4<<20, 3))
	checkPayload(t, run1, key, testPayload(4<<20, 2))
	if want := int(superseded.Size / ckptfmt.DefaultChunkSize); res.DeadChunks != want {
		t.Fatalf("GCPool collected %d chunks, want the superseded checkpoint's %d", res.DeadChunks, want)
	}
}
