package store

import (
	"bytes"
	"errors"
	"fmt"
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
			secs, ok, err := s.GetSections(Key{LoopID: "train", Exec: e}, nil)
			if err != nil || !ok {
				t.Fatalf("%s exec %d: ok=%v err=%v", dir, e, ok, err)
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
	for r := 0; r < runs; r++ {
		priv, err := OpenWith(filepath.Join(base, fmt.Sprintf("private-%d", r)), Options{ShardFanout: DefaultShardFanout})
		if err != nil {
			t.Fatal(err)
		}
		pooled := openPooled(t, filepath.Join(base, fmt.Sprintf("pooled-%d", r)), pool)
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
	ps, ok := PoolStatsAt(pool)
	if !ok {
		t.Fatal("pool not open after the family was recorded")
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
	if _, _, err := ro.GetSections(Key{LoopID: "train", Exec: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.PutSections(Key{LoopID: "train", Exec: 1}, familySections(7, 8, 1), 0, 0, 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on read-only pooled store: %v", err)
	}
	if _, err := ro.Spool(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("spool on read-only pooled store: %v", err)
	}

	// A writable sibling can still attach while the read-only open is live
	// (the in-process pool upgrades to writable).
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

	// Fanout conflicts with an existing pool are refused.
	if _, err := OpenWith(filepath.Join(base, "a"), Options{Pool: pool, ShardFanout: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(filepath.Join(base, "b"), Options{Pool: pool, ShardFanout: 8}); err == nil {
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
// an already-committed sibling — the CI -race lane drives it.
func TestPoolConcurrentSiblingRecordReplay(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")

	seed := openPooled(t, filepath.Join(base, "run-seed"), pool)
	for e := 0; e < 4; e++ {
		if _, err := seed.PutSections(Key{LoopID: "train", Exec: e}, familySections(42, 1, e), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	const writers, readers, epochs = 3, 3, 4
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
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
			if _, err := st.Spool(); err != nil {
				errs <- err
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ro, err := OpenReadOnly(filepath.Join(base, "run-seed"))
			if err != nil {
				errs <- err
				return
			}
			for pass := 0; pass < 3; pass++ {
				for e := 0; e < 4; e++ {
					secs, ok, err := ro.GetSections(Key{LoopID: "train", Exec: e}, nil)
					if err != nil || !ok {
						errs <- fmt.Errorf("reader exec %d: ok=%v err=%v", e, ok, err)
						return
					}
					want := familySections(42, 1, e)
					for i := range secs {
						if !bytes.Equal(secs[i].Data, want[i].Data) {
							errs <- fmt.Errorf("reader exec %d: section %q mismatch", e, secs[i].Name)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All writers' identical backbones deduplicated to one copy.
	ps, _ := PoolStatsAt(pool)
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
		if _, ok, err := st.GetSections(Key{LoopID: "train", Exec: 0}, nil); err != nil || !ok {
			t.Fatalf("read: ok=%v err=%v", ok, err)
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
		if _, ok, err := st.GetSections(Key{LoopID: "train", Exec: 0}, nil); err != nil || !ok {
			t.Fatalf("post-GC read: ok=%v err=%v", ok, err)
		}
	}
}

// TestPoolUpgradeAdoptsForeignAppends pins the read-only→writable upgrade
// against the documented sequential cross-process pattern: records and pack
// bytes appended by another process after this process's read-only open
// must be adopted — not truncated away — and pack lengths must resync, or
// the first local append would commit offsets short of the packs' real
// ends.
func TestPoolUpgradeAdoptsForeignAppends(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run1 := filepath.Join(base, "run1")
	s1 := openPooled(t, run1, pool)
	if _, err := s1.PutSections(Key{LoopID: "train", Exec: 0}, familySections(31, 1, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	// This "process" opens the pool read-only.
	resetPoolRegistry()
	if _, err := OpenReadOnly(run1); err != nil {
		t.Fatal(err)
	}

	// Simulate the other process's sequential writes at the file level:
	// one fresh chunk appended to its shard pack plus its INDEX record.
	foreign := testPayload(64<<10, 999)
	frames := ckptfmt.EncodeChunks([][]byte{foreign})
	p, err := openSharedPool(pool, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	sh := p.shardTab[p.shardOf(frames[0].Hash)]
	packPath := filepath.Join(pool, sh.obj())
	f, err := os.OpenFile(packPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	wire := frames[0].Append(nil)
	if _, err := f.Write(wire); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loc := chunkLoc{Gen: sh.gen, Off: st.Size(), EncLen: len(wire), RawLen: frames[0].RawLen, Style: frames[0].Style}
	idx, err := os.OpenFile(filepath.Join(pool, poolIndexFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Write(frameTagged(recChunk, encodeChunkRecord(frames[0].Hash, loc))); err != nil {
		t.Fatal(err)
	}
	idx.Close()

	// Writable attach in this process: the registry pool upgrades and must
	// see the foreign chunk (dedup hit, no second copy) and the grown pack.
	run2 := filepath.Join(base, "run2")
	s2 := openPooled(t, run2, pool)
	key := Key{LoopID: "train", Exec: 0}
	if _, err := s2.PutSections(key, []Section{{Name: "w", Data: foreign}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if m, _ := s2.Lookup(key); m.StoredBytes != 0 {
		t.Fatalf("foreign chunk re-stored (%d bytes); upgrade did not adopt the INDEX append", m.StoredBytes)
	}
	secs, ok, err := s2.GetSections(key, nil)
	if err != nil || !ok || !bytes.Equal(secs[0].Data, foreign) {
		t.Fatalf("read foreign-dedup'd checkpoint: ok=%v err=%v", ok, err)
	}
	// A genuinely new chunk must land at the pack's REAL end.
	if _, err := s2.PutSections(Key{LoopID: "train", Exec: 1}, []Section{{Name: "w", Data: testPayload(32<<10, 1000)}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if secs, ok, err := s2.GetSections(Key{LoopID: "train", Exec: 1}, nil); err != nil || !ok || !bytes.Equal(secs[0].Data, testPayload(32<<10, 1000)) {
		t.Fatalf("read post-upgrade append: ok=%v err=%v (stale packLen?)", ok, err)
	}
	// Everything survives a fresh process.
	resetPoolRegistry()
	s3, err := Open(run2)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		if _, ok, err := s3.GetSections(Key{LoopID: "train", Exec: e}, nil); err != nil || !ok {
			t.Fatalf("reopen exec %d: ok=%v err=%v", e, ok, err)
		}
	}
}
