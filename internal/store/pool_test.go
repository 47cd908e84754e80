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
	"flor.dev/flor/internal/codec"
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
	ps, ok, _ := b.PoolStats()
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
	if err := DetectLayout(runA); err != nil {
		t.Fatal(err)
	}
	root, own, err := PoolRef(runA)
	if err != nil || own {
		t.Fatalf("PoolRef: %v own=%v", err, own)
	}
	want, _ := canonicalPath(pool)
	if root != want {
		t.Fatalf("PoolRef = %q, want %q", root, want)
	}

	// Reopen from disk: the pool INDEX and the runs' manifests must
	// reconstruct everything, flag-free.
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
	ps, ok, _ := pooled.PoolStats()
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

	// A recorded run that is its own pool cannot be relocated into another.
	private := filepath.Join(base, "private")
	s, err := Open(private)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutSections(Key{LoopID: "train", Exec: 0}, familySections(1, 2, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(private, Options{Pool: pool}); !errors.Is(err, ErrWrongPool) {
		t.Fatalf("attaching a recorded run that is its own pool to another pool: %v, want ErrWrongPool", err)
	}

	// A Backend holds the pack of a run that is its own pool, and of no
	// other: a shared pool's other writers would never see a pack behind it.
	if _, err := OpenWith(filepath.Join(base, "x1"), Options{Pool: pool, Backend: DirBackendAt(base)}); err == nil {
		t.Fatal("Pool+Backend must be refused")
	}
	if _, err := os.Stat(filepath.Join(base, "x1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the refused attach created the run directory: %v", err)
	}
	packs := filepath.Join(base, "packs")
	if err := os.Mkdir(packs, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{{Backend: DirBackendAt(packs)}, {Pool: filepath.Join(base, "x2"), Backend: DirBackendAt(packs)}} {
		dir := filepath.Join(base, "x2")
		b, err := OpenWith(dir, o)
		if err != nil {
			t.Fatalf("a Backend for a run that is its own pool (%+v): %v", o, err)
		}
		if _, err := b.PutSections(Key{LoopID: "train", Exec: 0}, familySections(1, 5, 0), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(packs, packFile)); err != nil || b.Pooled() {
			t.Fatalf("the pack is not behind the Backend (%v), or the run is pooled: %v", err, b.Pooled())
		}
		if _, err := os.Stat(filepath.Join(dir, packFile)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("a pack in the run directory beside the Backend's: %v", err)
		}
	}

	// A new run cannot attach to a pool an older build made at another
	// fanout: the pool is migrated, not opened, and nothing of it changes.
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
	if _, err := OpenWith(pooled, Options{Pool: other}); !errors.Is(err, ErrWrongPool) {
		t.Fatalf("repointing a pooled run to another pool: %v, want ErrWrongPool", err)
	}
	if _, err := OpenWith(pooled, Options{ReadOnly: true, Pool: pooled}); !errors.Is(err, ErrWrongPool) {
		t.Fatalf("pinning its own directory onto a run of a shared pool: %v, want ErrWrongPool", err)
	}
	if _, err := OpenWith(pooled, Options{ReadOnly: true, Pool: pool}); err != nil {
		t.Fatalf("pinning the recorded pool must succeed: %v", err)
	}
	if _, err := OpenWith(pooled, Options{ReadOnly: true, Backend: DirBackendAt(pool)}); err == nil {
		t.Fatal("a Backend for a recorded run of a shared pool must be refused")
	}
	if _, err := OpenWith(private, Options{ReadOnly: true, Pool: private}); err != nil {
		t.Fatalf("pinning its own directory onto a run that is its own pool must succeed: %v", err)
	}
	if _, err := OpenWith(private, Options{ReadOnly: true, Pool: pool}); !errors.Is(err, ErrWrongPool) {
		t.Fatalf("pinning a shared pool onto a run that is its own pool: %v, want ErrWrongPool", err)
	}
}

// TestPoolConcurrentSiblingRecordReplay is the pool-concurrency race test:
// several sibling runs record into one pool, each through a writable
// instance of its own, while other goroutines replay an already-committed
// sibling, through read-only snapshots and through its writable store, and
// further writable attaches open and put under them — the CI -race lane
// drives it.
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
	// Every attach opens the pool under the commit lock while the writers
	// put and the readers below resolve.
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
	ps, _, _ := seed.PoolStats()
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

// TestLeaseOfARunNamedWithEdgeSpaces pins the lease of a run directory
// whose name begins or ends with white space: the lease holds the name
// exactly, so re-attaching finds it rather than writing a second one,
// GCPool and PoolStats read it as sitting at its name (not as a torn
// write), and DeleteRun releases it.
func TestLeaseOfARunNamedWithEdgeSpaces(t *testing.T) {
	for _, name := range []string{"exp ", " exp", "exp\t"} {
		base := t.TempDir()
		pool := filepath.Join(base, "POOL")
		run := filepath.Join(base, name)
		for range 3 {
			s := openPooled(t, run, pool)
			if _, err := s.PutSections(Key{LoopID: "train", Exec: 0}, familySections(5, 6, 0), 0, 0, 0); err != nil {
				t.Fatalf("%q: %v", name, err)
			}
		}
		leaseDir := filepath.Join(pool, poolLeaseDir)
		if entries, err := os.ReadDir(leaseDir); err != nil || len(entries) != 1 {
			t.Fatalf("%q: lease entries = %v, err %v; want exactly one after three attaches", name, entries, err)
		}
		if _, err := GCPool(pool, GCOptions{PackRetention: time.Hour}); err != nil {
			t.Fatalf("%q: GCPool: %v", name, err)
		}
		s, err := OpenReadOnly(run)
		if err != nil {
			t.Fatal(err)
		}
		if st, _, err := s.PoolStats(); err != nil || st.Leases != 1 {
			t.Fatalf("%q: PoolStats: %d leases, %v; want 1 and no error", name, st.Leases, err)
		}
		if _, err := ReadAll(s, Key{LoopID: "train", Exec: 0}, nil); err != nil {
			t.Fatalf("%q: read after GCPool: %v", name, err)
		}
		if err := DeleteRun(run); err != nil {
			t.Fatal(err)
		}
		if entries, err := os.ReadDir(leaseDir); err != nil || len(entries) != 0 {
			t.Fatalf("%q: lease survived DeleteRun: %v, err %v", name, entries, err)
		}
	}
}

// TestPoolRootStableAcrossSymlinks pins the pool root's canonical form: a
// pool named through a symlinked prefix before the root exists resolves to
// the same root as the real path afterward, so both runs record one pool
// reference, lock one directory and deduplicate against each other.
func TestPoolRootStableAcrossSymlinks(t *testing.T) {
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
		t.Fatalf("split pool root: %q vs %q", a.PoolRoot(), b.PoolRoot())
	}
	// One pool means cross-run dedup: one backbone pool-wide.
	ps, _, _ := b.PoolStats()
	if ps.StoredRawBytes >= 2<<20 {
		t.Fatalf("pool stored %d raw bytes; the symlinked sibling missed the dedup index", ps.StoredRawBytes)
	}
	// And both runs read back through their own stores.
	for _, st := range []*Store{a, b} {
		if _, err := ReadAll(st, Key{LoopID: "train", Exec: 0}, nil); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
}

// TestLeaseCollisionKeepsBothRunsPinned pins the content-checked lease
// protocol on a real short-hash collision: the lease entries of the runs at
// c1032789/exp and c1629192/exp beside the pool ("../c1032789/exp",
// "../c1629192/exp") have one FNV-32a hash, so one short lease name. The
// second run to attach finds that name holding the other's entry and takes
// its long-hash name instead; each lease sits at one of its content's
// candidate names, so GCPool reads both and keeps both runs' chunks, and
// deleting one run releases its lease alone — the other stays pinned.
func TestLeaseCollisionKeepsBothRunsPinned(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	runA, runB := filepath.Join(base, "c1032789", "exp"), filepath.Join(base, "c1629192", "exp")
	key := Key{LoopID: "train", Exec: 0}
	a := openPooled(t, runA, pool)
	if _, err := a.PutSections(key, familySections(21, 1, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	b := openPooled(t, runB, pool)
	if _, err := b.PutSections(key, familySections(21, 2, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	root := a.PoolRoot()
	entryA, errA := leaseEntry(root, runA)
	entryB, errB := leaseEntry(root, runB)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	candsA, candsB := leaseCandidates(root, entryA), leaseCandidates(root, entryB)
	if entryA == entryB || candsA[0] != candsB[0] {
		t.Fatalf("entries %q and %q do not collide on a short lease name (%s, %s)", entryA, entryB, candsA[0], candsB[0])
	}
	if path, ok := findLease(root, entryA); !ok || path != candsA[0] {
		t.Fatalf("run A's lease at %q (%v), want its short name %s", path, ok, candsA[0])
	}
	if path, ok := findLease(root, entryB); !ok || path != candsB[1] {
		t.Fatalf("run B's lease at %q (%v), want its long-hash name %s", path, ok, candsB[1])
	}
	if res, err := GCPool(pool, GCOptions{PackRetention: time.Hour}); err != nil || res.DeadChunks != 0 {
		t.Fatalf("GCPool over both leases: %+v, %v; want every chunk live", res, err)
	}
	if err := DeleteRun(runA); err != nil {
		t.Fatal(err)
	}
	if _, ok := findLease(root, entryB); !ok {
		t.Fatal("deleting run A released run B's lease")
	}
	if res, err := GCPool(pool, GCOptions{PackRetention: time.Hour}); err != nil || res.DeadChunks == 0 {
		t.Fatalf("GCPool after deleting run A: %+v, %v; want its own chunks reclaimed", res, err)
	}
	reopened, err := OpenReadOnly(runB)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{b, reopened} {
		if secs, err := ReadAll(st, key, nil); err != nil || !bytes.Equal(secs[1].Data, familySections(21, 2, 0)[1].Data) {
			t.Fatalf("run B after GCPool: %v", err)
		}
	}
}

// The tests below run part of their work through a second instance of the
// pool, as another process would: every attach is an instance of its own,
// so none sees another's memory, only the files. A writable instance must
// catch up with what those files commit before it writes, and a read-only
// attach opens a snapshot of them.

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
// a new process would, and compares it with payload, as putPayload put it.
func checkPayload(t *testing.T, dir string, key Key, payload []byte) {
	t.Helper()
	checkPayloadSections(t, dir, key, []Section{{Name: "w", Data: payload}})
}

// TestAnotherProcessRecordedSiblingReadsReadOnly: while a read-only open of
// run1 is held, another instance records run2 into the pool, and a
// read-only open of run2 reads all of it.
func TestAnotherProcessRecordedSiblingReadsReadOnly(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run1, run2 := filepath.Join(base, "run1"), filepath.Join(base, "run2")
	key := Key{LoopID: "train", Exec: 0}
	putPayload(t, openPooled(t, run1, pool), key, testPayload(4<<20, 1))
	if _, err := OpenReadOnly(run1); err != nil {
		t.Fatal(err)
	}
	putPayload(t, openPooled(t, run2, pool), key, testPayload(4<<20, 2))
	checkPayload(t, run2, key, testPayload(4<<20, 2))
	checkPayload(t, run1, key, testPayload(4<<20, 1))
}

// TestAnotherProcessAppendsAdoptedByWritableAttach: run3 is attached after
// other instances recorded run1 and run2. The attach adopts their chunks (a
// put of run2's payload stores nothing), and run3's fresh chunks land at the
// packs' ends, so every run reads back in a new process.
func TestAnotherProcessAppendsAdoptedByWritableAttach(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run1, run2, run3 := filepath.Join(base, "run1"), filepath.Join(base, "run2"), filepath.Join(base, "run3")
	k0, k1 := Key{LoopID: "train", Exec: 0}, Key{LoopID: "train", Exec: 1}
	putPayload(t, openPooled(t, run1, pool), k0, testPayload(4<<20, 1))
	putPayload(t, openPooled(t, run2, pool), k0, testPayload(4<<20, 2))

	s3 := openPooled(t, run3, pool)
	deduped := putPayload(t, s3, k0, testPayload(4<<20, 2))
	putPayload(t, s3, k1, testPayload(4<<20, 3))
	checkPayload(t, run1, k0, testPayload(4<<20, 1))
	checkPayload(t, run2, k0, testPayload(4<<20, 2))
	checkPayload(t, run3, k0, testPayload(4<<20, 2))
	checkPayload(t, run3, k1, testPayload(4<<20, 3))
	if deduped.StoredBytes != 0 {
		t.Fatalf("run2's chunks stored again (%d bytes): the attach did not adopt another process's INDEX appends", deduped.StoredBytes)
	}
}

// TestAnotherProcessGCThenAttachAndPut: another instance compacts the pool
// (Store.GCWith, which collects the pool as GCPool does, so a GCPool pass
// after it finds nothing) while one is held, read-only or writable. A run
// attached afterwards puts its chunks into the pack's new generation, so
// they read back in a new process.
func TestAnotherProcessGCThenAttachAndPut(t *testing.T) {
	for _, held := range []string{"read-only", "writable"} {
		t.Run(held, func(t *testing.T) {
			base := t.TempDir()
			pool := filepath.Join(base, "POOL")
			run1, fresh := filepath.Join(base, "run1"), filepath.Join(base, "fresh")
			key := Key{LoopID: "train", Exec: 0}
			s := openPooled(t, run1, pool)
			putPayload(t, s, key, testPayload(8<<20, 1))
			putPayload(t, s, key, testPayload(8<<20, 2))
			var err error
			if held == "read-only" {
				_, err = OpenReadOnly(run1)
			} else {
				_, err = OpenWith(filepath.Join(base, "holder"), Options{Pool: pool})
			}
			if err != nil {
				t.Fatal(err)
			}
			s, err = Open(run1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.GCWith(GCOptions{PackRetention: time.Hour})
			if err != nil || res.CompactedShards == 0 {
				t.Fatalf("GC: %+v, %v; want the pack compacted", res, err)
			}
			if res, err := GCPool(pool, GCOptions{PackRetention: time.Hour}); err != nil || res.CompactedShards != 0 {
				t.Fatalf("GCPool after the run's GC: %+v, %v; want nothing left to compact", res, err)
			}
			putPayload(t, openPooled(t, fresh, pool), key, testPayload(8<<20, 3))
			checkPayload(t, fresh, key, testPayload(8<<20, 3))
			checkPayload(t, run1, key, testPayload(8<<20, 2))
		})
	}
}

// dropSuperseded rewrites s's manifest without the records of its
// superseded checkpoints, as Store.GCWith does before it collects the pool,
// and collects nothing: the next GCPool pass is the one that compacts.
func dropSuperseded(t *testing.T, s *Store) {
	t.Helper()
	unlock, err := s.pool.lock()
	if err != nil {
		t.Fatal(err)
	}
	defer unlock()
	live, err := s.liveEntries()
	if err == nil {
		_, err = s.rewriteManifest(live)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestAnotherProcessRecordedSiblingSurvivesGCPool: GCPool runs while run1's
// writable store, opened before run2 existed, is held, and run2 was recorded
// through another instance. The pass collects only run1's superseded
// checkpoint, and run2 still reads.
func TestAnotherProcessRecordedSiblingSurvivesGCPool(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run1, run2 := filepath.Join(base, "run1"), filepath.Join(base, "run2")
	key := Key{LoopID: "train", Exec: 0}
	s1 := openPooled(t, run1, pool)
	superseded := putPayload(t, s1, key, testPayload(4<<20, 1))
	putPayload(t, s1, key, testPayload(4<<20, 2))
	dropSuperseded(t, s1)
	putPayload(t, openPooled(t, run2, pool), key, testPayload(4<<20, 3))

	res, err := GCPool(pool, GCOptions{PackRetention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	checkPayload(t, run2, key, testPayload(4<<20, 3))
	checkPayload(t, run1, key, testPayload(4<<20, 2))
	if want := int(superseded.Size / ckptfmt.DefaultChunkSize); res.DeadChunks != want {
		t.Fatalf("GCPool collected %d chunks, want the superseded checkpoint's %d", res.DeadChunks, want)
	}
}

// TestHeldWritableStorePutsAfterGCPool: a writable store is held while
// another instance's GCPool compacts the pack it wrote to a new generation.
// Its next put catches up under the commit lock and lands in the new
// generation, whose number the snapshot keeps, never in a retired one: the
// next pass deletes every generation the first retired and rewrites no
// pack, and the put and the compacted checkpoint both read back in a new
// process.
func TestHeldWritableStorePutsAfterGCPool(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run := filepath.Join(base, "run")
	k0, k1 := Key{LoopID: "train", Exec: 0}, Key{LoopID: "train", Exec: 1}
	held := openPooled(t, run, pool)
	putPayload(t, held, k0, testPayload(8<<20, 1))
	putPayload(t, held, k0, testPayload(8<<20, 2))
	dropSuperseded(t, held)
	first, err := GCPool(pool, GCOptions{PackRetention: time.Nanosecond})
	if err != nil || first.CompactedShards == 0 {
		t.Fatalf("GCPool: %+v, %v; want the pack compacted", first, err)
	}
	putPayload(t, held, k1, testPayload(8<<20, 3))
	res, err := GCPool(pool, GCOptions{PackRetention: time.Nanosecond})
	if err != nil || res.DeletedPacks != first.RetiredPacks || res.CompactedShards != 0 || res.DeadChunks != 0 {
		t.Fatalf("second GCPool: %+v, %v; want the first pass's %d retired generations deleted, and nothing rewritten or dead", res, err, first.RetiredPacks)
	}
	t.Logf("second pass deleted %d of the %d retired packs", res.DeletedPacks, first.RetiredPacks)
	checkPayload(t, run, k0, testPayload(8<<20, 2))
	checkPayload(t, run, k1, testPayload(8<<20, 3))
}

// TestWritableInstancesPutConcurrently: two writable stores of one pool in
// one process, each its own pool instance, put checkpoints sharing a
// backbone at once. The commit lock orders them as two processes would be:
// every checkpoint reads back in a new process, and the backbone is stored
// once.
func TestWritableInstancesPutConcurrently(t *testing.T) {
	const epochs = 6
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	runs := []string{filepath.Join(base, "run-a"), filepath.Join(base, "run-b")}
	var wg sync.WaitGroup
	errs := make(chan error, len(runs))
	for r, run := range runs {
		s := openPooled(t, run, pool)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range epochs {
				if _, err := s.PutSections(Key{LoopID: "train", Exec: e}, familySections(3, uint64(10+r), e), 0, 0, 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for r, run := range runs {
		for e := range epochs {
			checkPayloadSections(t, run, Key{LoopID: "train", Exec: e}, familySections(3, uint64(10+r), e))
		}
	}
	ro, err := OpenReadOnly(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if ps, _, _ := ro.PoolStats(); ps.StoredRawBytes >= 2<<20 {
		t.Fatalf("pool stores %d raw bytes; want one 1 MiB backbone and the heads", ps.StoredRawBytes)
	}
}

// TestPooledConcurrentPuts drives PutSections on one run of a pool from
// many goroutines: the commit lock must keep the pack, index, and manifest
// consistent, and every checkpoint must read back intact after a reopen.
func TestPooledConcurrentPuts(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "run")
	s := openPooled(t, dir, filepath.Join(base, "POOL"))
	const writers, epochs = 4, 3
	shared := noise(2*ckptfmt.DefaultChunkSize, 77) // cross-writer dedup races
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				own := noise(3*ckptfmt.DefaultChunkSize+w*17, uint64(100+w*10+e))
				_, err := s.PutSections(Key{LoopID: fmt.Sprintf("w%d", w), Exec: e}, []Section{
					{Name: "own", Data: own},
					{Name: "shared", Data: shared},
				}, 0, 0, 0)
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []*Store{s, mustOpen(t, dir)} {
		for w := 0; w < writers; w++ {
			for e := 0; e < epochs; e++ {
				want := noise(3*ckptfmt.DefaultChunkSize+w*17, uint64(100+w*10+e))
				secs, err := ReadAll(st, Key{LoopID: fmt.Sprintf("w%d", w), Exec: e}, nil)
				if err != nil {
					t.Fatalf("w%d@%d: %v", w, e, err)
				}
				if !bytes.Equal(secs[0].Data, want) || !bytes.Equal(secs[1].Data, shared) {
					t.Fatalf("w%d@%d: data mismatch", w, e)
				}
			}
		}
	}
}

// TestMissingPoolPackNamesPack deletes a pool's pack: a writable open must
// refuse, naming the pack — appending to a rewound pack would poison the
// manifest — while a read-only open degrades gracefully (the daemon keeps
// serving what the manifest holds) and reads touching the pack fail with an
// error naming it.
func TestMissingPoolPackNamesPack(t *testing.T) {
	base := t.TempDir()
	dir, pool := filepath.Join(base, "run"), filepath.Join(base, "POOL")
	s := openPooled(t, dir, pool)
	big := noise(8*ckptfmt.DefaultChunkSize, 13)
	key := Key{LoopID: "L", Exec: 0}
	if _, err := s.PutSections(key, []Section{{Name: "net", Data: big}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// A pack is known to hold bytes once a snapshot covers them: before, a
	// missing pack is an empty one.
	if err := s.WriteIndex(); err != nil {
		t.Fatal(err)
	}
	victim := packFile
	if err := os.Remove(filepath.Join(pool, victim)); err != nil {
		t.Fatal(err)
	}
	// Writable open, from disk: refused, naming the pack.
	_, err := Open(dir)
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("writable open with a missing pack: err = %v, want codec.ErrCorrupt refusal", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte(victim)) {
		t.Fatalf("refusal %q does not name the missing pack %s", err, victim)
	}
	// Read-only open: graceful; reads touching the pack name it.
	s2, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatalf("read-only open with a missing pack must degrade gracefully: %v", err)
	}
	_, err = ReadAll(s2, key, nil)
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("read error %v is not codec.ErrCorrupt", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte(victim)) {
		t.Fatalf("error %q does not name the missing pack %s", err, victim)
	}
}

// TestAttachToAnotherRunsDirectoryIsRefused: a run's directory is its own
// pool, whose one lease is that run's, so a fresh run cannot attach to it —
// a GC of either would mark one run and reclaim the other's checkpoint. The
// attach fails with ErrWrongPool, creates nothing and changes no byte of the
// other run. The refused run then records as its own pool beside it, and
// neither GC entry point over the first run (GCPool at 1 ns retention,
// twice; Store.GCWith, then GCPool) nor DeleteRun of the first run loses a
// checkpoint of either run.
func TestAttachToAnotherRunsDirectoryIsRefused(t *testing.T) {
	base := t.TempDir()
	a, b := filepath.Join(base, "a"), filepath.Join(base, "b")
	ka, kb := Key{LoopID: "train", Exec: 0}, Key{LoopID: "train", Exec: 1}
	pa, pb := testPayload(64<<10, 1), testPayload(64<<10, 2)
	sa := mustOpen(t, a)
	putPayload(t, sa, ka, pa)
	if err := sa.WriteIndex(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, a)
	for _, pool := range []string{a, a + string(filepath.Separator), filepath.Join(b, "..", "a")} {
		if _, err := OpenWith(b, Options{Pool: pool}); !errors.Is(err, ErrWrongPool) {
			t.Fatalf("attaching a fresh run to run a's directory (%s): %v, want ErrWrongPool", pool, err)
		}
	}
	if !maps.Equal(before, dirBytes(t, a)) {
		t.Fatal("the refused attach changed run a")
	}
	if _, err := os.Stat(b); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the refused attach created the run directory: %v", err)
	}
	putPayload(t, mustOpen(t, b), kb, pb)

	nano := GCOptions{PackRetention: time.Nanosecond}
	for range 2 {
		if _, err := GCPool(a, nano); err != nil {
			t.Fatal(err)
		}
	}
	checkPayload(t, a, ka, pa)
	checkPayload(t, b, kb, pb)
	if _, err := mustOpen(t, a).GCWith(nano); err != nil {
		t.Fatal(err)
	}
	if _, err := GCPool(a, nano); err != nil {
		t.Fatal(err)
	}
	checkPayload(t, a, ka, pa)
	checkPayload(t, b, kb, pb)
	if err := DeleteRun(a); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(a); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("DeleteRun left run a: %v", err)
	}
	checkPayload(t, b, kb, pb)
}

// TestReadOnlyOpenOfItsOwnPoolResolvesNoSymlinks: the serving daemon
// reopens a store on every query of a cold cache, pinned to the root
// PoolRef reported. For a run that is its own pool that open compares the
// pin with the run directory and reads the pool's files without resolving
// a symlink — a pin that is a symlink to the run directory included — and
// still refuses a pin naming another directory.
func TestReadOnlyOpenOfItsOwnPoolResolvesNoSymlinks(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "run")
	putPayload(t, mustOpen(t, dir), Key{LoopID: "train", Exec: 0}, testPayload(64<<10, 1))
	link := filepath.Join(base, "link")
	if err := os.Symlink(dir, link); err != nil {
		t.Fatal(err)
	}
	pin, own, err := PoolRef(dir)
	if err != nil || !own {
		t.Fatalf("PoolRef: %s, own %v, %v", pin, own, err)
	}
	calls := 0
	evalSymlinks = func(path string) (string, error) {
		calls++
		return filepath.EvalSymlinks(path)
	}
	defer func() { evalSymlinks = filepath.EvalSymlinks }()
	for _, pin := range []string{pin, dir, link} {
		s, err := OpenWith(dir, Options{ReadOnly: true, Pool: pin})
		if err != nil {
			t.Fatalf("pinned to %s: %v", pin, err)
		}
		if d := s.Dedup(); d.ChunksStored == 0 || s.Pooled() {
			t.Fatalf("pinned to %s: dedup %+v, pooled %v; want the pool's chunks adopted as the run's", pin, d, s.Pooled())
		}
	}
	if calls != 0 {
		t.Fatalf("read-only opens of a run that is its own pool resolved symlinks %d times", calls)
	}
	if _, err := OpenWith(dir, Options{ReadOnly: true, Pool: base}); !errors.Is(err, ErrWrongPool) {
		t.Fatalf("pinned to the run's parent: %v, want ErrWrongPool", err)
	}
}

// TestSharedPoolRootIsNoRunDirectory: a shared pool's root, whose leases
// pin other runs, is not a fresh run's directory. Opening it as one — say,
// florrun -dir at the pool — fails with ErrWrongPool and changes no byte, so
// the pool never gains a lease of its own root, and DeleteRun of the pool
// root as a run never takes its runs' chunks with it.
func TestSharedPoolRootIsNoRunDirectory(t *testing.T) {
	base := t.TempDir()
	pool, run := filepath.Join(base, "POOL"), filepath.Join(base, "run")
	key, payload := Key{LoopID: "train", Exec: 0}, testPayload(64<<10, 1)
	putPayload(t, openPooled(t, run, pool), key, payload)
	before := dirBytes(t, pool)
	for _, o := range []Options{{}, {ReadOnly: true}, {Pool: pool}} {
		if _, err := OpenWith(pool, o); !errors.Is(err, ErrWrongPool) {
			t.Fatalf("opening the pool root as a fresh run (%+v): %v, want ErrWrongPool", o, err)
		}
	}
	if !maps.Equal(before, dirBytes(t, pool)) {
		t.Fatal("the refused opens changed the pool")
	}
	if err := DeleteRun(pool); !errors.Is(err, ErrWrongPool) {
		t.Fatalf("DeleteRun of the pool root: %v, want ErrWrongPool", err)
	}
	if _, _, err := PoolRef(pool); !errors.Is(err, ErrWrongPool) {
		t.Fatalf("PoolRef of the pool root: %v, want ErrWrongPool", err)
	}
	if !maps.Equal(before, dirBytes(t, pool)) {
		t.Fatal("DeleteRun of the pool root changed the pool")
	}
	checkPayload(t, run, key, payload)
}
