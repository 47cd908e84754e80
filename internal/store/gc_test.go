package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
)

// mutatingSections yields a checkpoint whose payload is fully fresh every
// call — compaction's best case once superseded.
func mutatingSections(seed uint64) []Section {
	return []Section{{Name: "w", Data: testPayload(512<<10, seed)}}
}

func TestGCCompactsSupersededChunks(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{LoopID: "train", Exec: 0}
	// Three materializations of the same key: the first two are fully
	// superseded, and their chunks are referenced by nothing live.
	for i := 0; i < 3; i++ {
		if _, err := s.PutSections(key, mutatingSections(uint64(1+i)), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Dedup()
	res, err := s.GCWith(GCOptions{PackRetention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.Superseded != 2 {
		t.Fatalf("superseded checkpoints dropped = %d, want 2", res.Superseded)
	}
	if res.DeadChunks == 0 || res.CompactedShards == 0 || res.ReclaimedBytes == 0 {
		t.Fatalf("no chunks compacted: %+v", res)
	}
	after := s.Dedup()
	if after.StoredRawBytes >= before.StoredRawBytes {
		t.Fatalf("stored raw bytes did not shrink: %d -> %d", before.StoredRawBytes, after.StoredRawBytes)
	}

	// The live checkpoint still reads back, from the new pack generation.
	secs, err := ReadAll(s, key, nil)
	if err != nil {
		t.Fatalf("post-GC read: %v", err)
	}
	if !bytes.Equal(secs[0].Data, mutatingSections(3)[0].Data) {
		t.Fatal("post-GC payload mismatch")
	}

	// And survives reopen: the rewritten INDEX carries generation records,
	// and the marker names one pack, which every build that predates
	// generations refuses — the open wrote it, and GC left it.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after GC: %v", err)
	}
	secs, err = ReadAll(s2, key, nil)
	if err != nil || !bytes.Equal(secs[0].Data, mutatingSections(3)[0].Data) {
		t.Fatalf("reopen read: %v", err)
	}
	raw, _ := os.ReadFile(filepath.Join(dir, formatFile))
	if string(raw) != formatMarker {
		t.Fatalf("marker %q after a compacting GC, want %q", raw, formatMarker)
	}

	// New writes after compaction land in the new generation and read back.
	if _, err := s2.PutSections(Key{LoopID: "train", Exec: 1}, mutatingSections(9), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(s2, Key{LoopID: "train", Exec: 1}, nil); err != nil {
		t.Fatalf("post-GC write read-back: %v", err)
	}
}

// TestGCRetainsPacksForConcurrentReader pins the grace period: a store
// opened read-only before compaction keeps resolving chunk reads against
// the replaced pack generation, which must survive on disk until the
// retention deadline passes — and be deleted by a later pass after it.
func TestGCRetainsPacksForConcurrentReader(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{LoopID: "train", Exec: 0}
	for i := 0; i < 2; i++ {
		if _, err := s.PutSections(key, mutatingSections(uint64(20+i)), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Reader from "another process": it replayed the manifest before GC and
	// holds generation-0 locations.
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.GCWith(GCOptions{PackRetention: time.Hour}); err != nil {
		t.Fatal(err)
	}

	secs, err := ReadAll(ro, key, nil)
	if err != nil {
		t.Fatalf("pre-GC reader after compaction: %v", err)
	}
	if !bytes.Equal(secs[0].Data, mutatingSections(21)[0].Data) {
		t.Fatal("pre-GC reader got wrong bytes")
	}

	// Deletion honors the deadline recorded at retirement time: a pass
	// before expiry leaves the pack alone.
	if res, err := s.GCWith(GCOptions{PackRetention: time.Hour}); err != nil || res.DeletedPacks != 0 {
		t.Fatalf("pack deleted before its deadline: %+v err=%v", res, err)
	}
	if secs, err := ReadAll(ro, key, nil); err != nil || !bytes.Equal(secs[0].Data, mutatingSections(21)[0].Data) {
		t.Fatalf("pre-GC reader after second pass: %v", err)
	}
}

// TestGCDeletesExpiredPackGenerations pins the other half of the grace
// period: once a retired generation's deadline passes, the next GC pass
// deletes it, and fresh readers (which resolve against the new generation)
// are unaffected.
func TestGCDeletesExpiredPackGenerations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{LoopID: "train", Exec: 0}
	for i := 0; i < 2; i++ {
		if _, err := s.PutSections(key, mutatingSections(uint64(40+i)), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Retire with an (already expired) nanosecond retention; the pack still
	// survives this pass — deletion is always a later pass's job, so a
	// reader between the passes keeps working.
	if res, err := s.GCWith(GCOptions{PackRetention: time.Nanosecond}); err != nil || res.CompactedShards == 0 {
		t.Fatalf("compaction: %+v err=%v", res, err)
	}
	if _, err := os.Stat(filepath.Join(dir, packFile)); err != nil {
		t.Fatalf("retired pack deleted in the same pass: %v", err)
	}
	time.Sleep(2 * time.Millisecond)
	res, err := s.GCWith(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeletedPacks == 0 {
		t.Fatalf("expired pack not deleted: %+v", res)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if secs, err := ReadAll(ro, key, nil); err != nil || !bytes.Equal(secs[0].Data, mutatingSections(41)[0].Data) {
		t.Fatalf("post-expiry reader: %v", err)
	}
}

// TestGCRacesConcurrentReads drives GC passes while reader goroutines
// resolve and fetch in a loop (the -race lane exercises the locking).
func TestGCRacesConcurrentReads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := Key{LoopID: "train", Exec: 0}
	want := mutatingSections(77)[0].Data
	if _, err := s.PutSections(live, mutatingSections(77), 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				secs, err := ReadAll(s, live, nil)
				if err != nil || !bytes.Equal(secs[0].Data, want) {
					errs <- fmt.Errorf("concurrent read: %v", err)
					return
				}
			}
		}()
	}
	// Writer churn: supersede a second key repeatedly, GC between rounds.
	for i := 0; i < 5; i++ {
		if _, err := s.PutSections(Key{LoopID: "train", Exec: 1}, mutatingSections(uint64(100+i)), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.GCWith(GCOptions{PackRetention: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReopenAfterCrashedCompaction simulates the crash window of a
// compaction pass: the new-generation pack was written but the commit
// (manifest rewrite) never happened. The store must reopen cleanly, and a
// later GC must complete over the leftover. (Older builds' passes also
// added a "gc" token to the marker; a store carrying one is read-only now.)
func TestReopenAfterCrashedCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{LoopID: "train", Exec: 0}
	for i := 0; i < 2; i++ {
		if _, err := s.PutSections(key, mutatingSections(uint64(30+i)), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	// The crash window: a stray higher-generation pack object with garbage
	// content (the atomic Create of a crashed pass would have left a
	// committed object; a torn temp file never lands under the real name —
	// mirror that by planting a committed-but-unreferenced
	// object).
	if err := os.WriteFile(filepath.Join(dir, packObjName(packFile, 1)), []byte("leftover"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after crashed compaction: %v", err)
	}
	secs, err := ReadAll(s2, key, nil)
	if err != nil || !bytes.Equal(secs[0].Data, mutatingSections(31)[0].Data) {
		t.Fatalf("read after crashed compaction: %v", err)
	}

	// A later GC completes: the real compaction atomically replaces the
	// stray generation-1 object and commits.
	res, err := s2.GCWith(GCOptions{PackRetention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadChunks == 0 {
		t.Fatalf("crashed-over GC reclaimed nothing: %+v", res)
	}
	if _, err := ReadAll(s2, key, nil); err != nil {
		t.Fatalf("read after recovery GC: %v", err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("final reopen: %v", err)
	}
}

// TestGCPoolRefcountReleaseOnRunDelete pins the shared-pool refcount story:
// deleting a run (directory + lease) releases its references, a GCPool pass
// reclaims the chunks only it held, and surviving siblings keep replaying.
func TestGCPoolRefcountReleaseOnRunDelete(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	keep := filepath.Join(base, "run-keep")
	gone := filepath.Join(base, "run-gone")

	a := openPooled(t, keep, pool)
	b := openPooled(t, gone, pool)
	key := Key{LoopID: "train", Exec: 0}
	// Shared backbone + distinct heads: deleting run-gone must reclaim its
	// unique head chunks and keep the shared backbone.
	if _, err := a.PutSections(key, familySections(1, 100, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PutSections(key, familySections(1, 200, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Each writable store is an instance of its own, as of its last put: the
	// pool as a whole is what a fresh open reads.
	poolChunks := func() int64 {
		t.Helper()
		ro, err := OpenReadOnly(keep)
		if err != nil {
			t.Fatal(err)
		}
		st, _, _ := ro.PoolStats()
		return st.Chunks
	}
	before := poolChunks()

	if err := DeleteRun(gone); err != nil {
		t.Fatal(err)
	}
	res, err := GCPool(pool, GCOptions{PackRetention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadChunks == 0 {
		t.Fatalf("deleting a run reclaimed no chunks: %+v", res)
	}
	if after := poolChunks(); after >= before {
		t.Fatalf("pool chunks %d -> %d; want decrease", before, after)
	}

	// The surviving sibling still reads everything, live, and after reopen.
	secs, err := ReadAll(a, key, nil)
	if err != nil || !bytes.Equal(secs[0].Data, familySections(1, 100, 0)[0].Data) {
		t.Fatalf("sibling read after pool GC: %v", err)
	}
	a2, err := Open(keep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(a2, key, nil); err != nil {
		t.Fatalf("sibling reopen after pool GC: %v", err)
	}

	// A second run of GCPool with nothing dead is a no-op, not an error.
	if _, err := GCPool(pool, GCOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestGCPoolReclaimsUncommittedChunks pins the mark source: a run's
// manifest. A checkpoint whose meta record never made it — a crashed
// materialization, whose chunks reached the packs and the pool INDEX but
// whose commit did not — references nothing, so GCPool reports its chunks
// dead, and re-putting the same content afterwards stores it again and
// reads it back byte-identically.
func TestGCPoolReclaimsUncommittedChunks(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run := filepath.Join(base, "run")
	s := openPooled(t, run, pool)
	key := Key{LoopID: "train", Exec: 0}
	secs := familySections(1, 1, 0)
	if _, err := s.PutSections(key, secs, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	orphans := map[ckptfmt.Hash]bool{}
	for _, sec := range secs {
		for _, c := range codec.SplitChunks(sec.Data, ckptfmt.DefaultChunkSize) {
			orphans[ckptfmt.HashChunk(c)] = true
		}
	}
	// Simulate the crash: drop the manifest's tail (the meta record) so the
	// checkpoint is uncommitted, while its chunks exist.
	manifest := filepath.Join(run, manifestFile)
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	off, last := 0, 0
	for off < len(raw) {
		_, consumed, err := codec.Unframe(raw[off:])
		if err != nil {
			t.Fatal(err)
		}
		last = off
		off += consumed
	}
	if err := os.WriteFile(manifest, raw[:last], 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := GCPool(pool, GCOptions{PackRetention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadChunks != len(orphans) {
		t.Fatalf("GCPool reclaimed %d chunks, want the uncommitted checkpoint's %d", res.DeadChunks, len(orphans))
	}
	st, err := Open(run)
	if err != nil {
		t.Fatal(err)
	}
	if st.Has(key) {
		t.Fatal("the uncommitted checkpoint is indexed")
	}
	if _, err := st.PutSections(key, secs, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(st, key, nil)
	if err != nil || !bytes.Equal(got[0].Data, secs[0].Data) || !bytes.Equal(got[1].Data, secs[1].Data) {
		t.Fatalf("re-put after the orphans were reclaimed: %v", err)
	}
}

func TestGCReadOnlyRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutSections(Key{LoopID: "t", Exec: 0}, mutatingSections(1), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.GCWith(GCOptions{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("GC on read-only store: %v", err)
	}
}

// TestGCMarkFailsClosed pins the mark's fail-closed contract: a directory
// GC cannot read aborts the pass — no compaction, no manifest rewrite, no
// file touched — instead of counting as referencing nothing. Store.GC and
// GCPool each meet it as a CRC-valid meta record whose directory does not
// decode: the run's own, or a leased run's. (Segment-file checkpoints, whose
// directories a flipped byte can also make unreadable, live only in stores a
// writable open refuses.)
func TestGCMarkFailsClosed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	intact, broken := Key{LoopID: "train", Exec: 0}, Key{LoopID: "train", Exec: 1}
	for i, key := range []Key{intact, broken, broken} {
		if _, err := s.PutSections(key, mutatingSections(uint64(50+i)), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	rewriteDirectory(t, dir, broken, func(d *ckptfmt.Directory) { d.Sections[0].Chunks[0].RawLen = -8 })
	s = mustOpen(t, dir)
	before := dirBytes(t, dir)
	if _, err := s.GCWith(GCOptions{PackRetention: time.Hour}); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("GC with an unreadable directory: %v, want codec.ErrCorrupt", err)
	}
	if after := dirBytes(t, dir); !maps.Equal(before, after) {
		t.Fatal("the aborted GC changed the run directory")
	}
	if _, err := ReadAll(s, intact, nil); err != nil {
		t.Fatalf("checkpoint unreadable after aborted GC: %v", err)
	}

	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run := filepath.Join(base, "run")
	ps := openPooled(t, run, pool)
	key := Key{LoopID: "train", Exec: 0}
	for i := 0; i < 2; i++ {
		if _, err := ps.PutSections(key, mutatingSections(uint64(60+i)), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	rewriteDirectory(t, run, key, func(d *ckptfmt.Directory) { d.Sections[0].Chunks[0].RawLen = -8 })
	if err := ps.WriteIndex(); err != nil {
		t.Fatal(err)
	}
	before = dirBytes(t, pool)
	if _, err := GCPool(pool, GCOptions{PackRetention: time.Hour}); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("GCPool with an undecodable directory: %v, want codec.ErrCorrupt", err)
	}
	if !maps.Equal(before, dirBytes(t, pool)) {
		t.Fatal("the aborted GCPool changed the pool")
	}
}

// TestGCPoolFailsClosedOnEmptyLease pins the lease half of the fail-closed
// mark: a lease a torn write left empty names no run, so GCPool cannot know
// which chunks it pins. GCPool fails with an error naming the file and
// changes no byte of the pool, the run still reads, and the pool's stats
// (so /v1/stats, TestChunkPoolStatsNameAnEmptyLease) name the file — also
// for a run whose directory name, and so its lease file's, ends in ".tmp".
func TestGCPoolFailsClosedOnEmptyLease(t *testing.T) {
	for _, name := range []string{"run-torn", "run-torn.tmp"} {
		t.Run(name, func(t *testing.T) {
			base := t.TempDir()
			pool := filepath.Join(base, "POOL")
			keep, torn := filepath.Join(base, "run-keep"), filepath.Join(base, name)
			key := Key{LoopID: "train", Exec: 0}
			for i, run := range []string{keep, torn} {
				if _, err := openPooled(t, run, pool).PutSections(key, familySections(1, uint64(100*(i+1)), 0), 0, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			entry, err := leaseEntry(pool, torn)
			if err != nil {
				t.Fatal(err)
			}
			lease, ok := findLease(pool, entry)
			if !ok {
				t.Fatal("the torn run has no lease")
			}
			if err := os.WriteFile(lease, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirBytes(t, pool)
			if _, err := GCPool(pool, GCOptions{PackRetention: time.Hour}); err == nil || !strings.Contains(err.Error(), lease) {
				t.Fatalf("GCPool over an empty lease: %v, want an error naming %s", err, lease)
			}
			if after := dirBytes(t, pool); !maps.Equal(before, after) {
				t.Fatal("the aborted GCPool changed the pool")
			}
			s, err := OpenWith(torn, Options{ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if secs, err := ReadAll(s, key, nil); err != nil || !bytes.Equal(secs[1].Data, familySections(1, 200, 0)[1].Data) {
				t.Fatalf("the torn-lease run after the aborted GCPool: %v", err)
			}
			if st, _, err := s.PoolStats(); err == nil || !strings.Contains(err.Error(), lease) || st.Leases != 0 {
				t.Fatalf("PoolStats over an empty lease: %d leases, %v; want none counted and an error naming %s", st.Leases, err, lease)
			}
		})
	}
}

// TestGCPoolFailsClosedOnTornLease pins the lease check against a torn
// write that leaves a lease non-empty but cut short: "../run-torn\n" cut by
// two bytes reads "../run-tor", a run directory that does not exist, and
// releasing it as a deleted run's lease would unpin run-torn's chunks. The
// lease does not sit at a name its content hashes to, so GCPool fails with
// an error naming the file, changes no byte of the pool, and the run still
// reads.
func TestGCPoolFailsClosedOnTornLease(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	keep, torn := filepath.Join(base, "run-keep"), filepath.Join(base, "run-torn")
	key := Key{LoopID: "train", Exec: 0}
	for i, run := range []string{keep, torn} {
		if _, err := openPooled(t, run, pool).PutSections(key, familySections(1, uint64(100*(i+1)), 0), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	entry, err := leaseEntry(pool, torn)
	if err != nil {
		t.Fatal(err)
	}
	lease, ok := findLease(pool, entry)
	if !ok {
		t.Fatal("the torn run has no lease")
	}
	fi, err := os.Stat(lease)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(lease, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, pool)
	if _, err := GCPool(pool, GCOptions{PackRetention: time.Hour}); err == nil || !strings.Contains(err.Error(), lease) {
		t.Fatalf("GCPool over a torn lease: %v, want an error naming %s", err, lease)
	}
	if after := dirBytes(t, pool); !maps.Equal(before, after) {
		t.Fatal("the aborted GCPool changed the pool")
	}
	s, err := OpenReadOnly(torn)
	if err != nil {
		t.Fatal(err)
	}
	if secs, err := ReadAll(s, key, nil); err != nil || !bytes.Equal(secs[1].Data, familySections(1, 200, 0)[1].Data) {
		t.Fatalf("the torn-lease run after the aborted GCPool: %v", err)
	}
	if _, _, err := s.PoolStats(); err == nil || !strings.Contains(err.Error(), lease) {
		t.Fatalf("PoolStats over a torn lease: %v, want an error naming %s", err, lease)
	}
}

// TestTornLeaseIsRepairedByReattachAndDeleteRun pins the way out of a torn
// lease: a writable reopen of the run writes its lease over the torn file at
// its short-hash name, not beside it at the long-hash one, and DeleteRun
// removes a torn file at either of the run's lease names. So after the run
// is reopened and deleted, GCPool runs again and reclaims the run's chunks,
// and the sibling run still reads.
func TestTornLeaseIsRepairedByReattachAndDeleteRun(t *testing.T) {
	for _, reattach := range []bool{true, false} {
		base := t.TempDir()
		pool := filepath.Join(base, "POOL")
		keep, torn := filepath.Join(base, "run-keep"), filepath.Join(base, "run-torn")
		key := Key{LoopID: "train", Exec: 0}
		for i, run := range []string{keep, torn} {
			if _, err := openPooled(t, run, pool).PutSections(key, familySections(uint64(i+1), 100, 0), 0, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		entry, err := leaseEntry(pool, torn)
		if err != nil {
			t.Fatal(err)
		}
		lease, ok := findLease(pool, entry)
		if !ok {
			t.Fatal("the torn run has no lease")
		}
		if err := os.WriteFile(lease, []byte(entry[:len(entry)-2]), 0o644); err != nil {
			t.Fatal(err)
		}
		if reattach {
			if _, err := Open(torn); err != nil {
				t.Fatal(err)
			}
			if entries, err := os.ReadDir(filepath.Join(pool, poolLeaseDir)); err != nil || len(entries) != 2 {
				t.Fatalf("lease files after the reopen: %v, %v; want one per run", entries, err)
			}
			if got, ok := findLease(pool, entry); !ok || got != lease {
				t.Fatalf("the reopen leased the run at %q, want %q", got, lease)
			}
		}
		if err := DeleteRun(torn); err != nil {
			t.Fatal(err)
		}
		res, err := GCPool(pool, GCOptions{PackRetention: time.Hour})
		if err != nil || res.DeadChunks == 0 {
			t.Fatalf("reattach=%v: GCPool after DeleteRun: %+v, %v; want the deleted run's chunks reclaimed", reattach, res, err)
		}
		checkPayloadSections(t, keep, key, familySections(1, 100, 0))
	}
}

// checkPayloadSections reads key's checkpoint from the run at dir, opened
// afresh, and compares it with want.
func checkPayloadSections(t *testing.T, dir string, key Key, want []Section) {
	t.Helper()
	s, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	secs, err := ReadAll(s, key, nil)
	if err != nil || len(secs) != len(want) {
		t.Fatalf("read %s of %s: %d sections, %v", key, dir, len(secs), err)
	}
	for i := range secs {
		if !bytes.Equal(secs[i].Data, want[i].Data) {
			t.Fatalf("read %s of %s: section %q differs", key, dir, secs[i].Name)
		}
	}
}

// TestGCPoolSkipsScratchLeases pins what a lease is: a file renamed into
// place. The empty scratch copy a crash before writeLease's rename leaves
// pins nothing and does not stop GCPool, while a run whose directory name
// ends in ".tmp" stays pinned.
func TestGCPoolSkipsScratchLeases(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	run, gone := filepath.Join(base, "run.tmp"), filepath.Join(base, "run-gone")
	key := Key{LoopID: "train", Exec: 0}
	want := familySections(1, 100, 0)
	s := openPooled(t, run, pool)
	if _, err := s.PutSections(key, want, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := openPooled(t, gone, pool).PutSections(key, familySections(1, 200, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	lease := leaseCandidates(pool, "run-crashed")[0]
	scratch := filepath.Join(filepath.Dir(lease), leaseScratchPrefix+filepath.Base(lease))
	if err := os.WriteFile(scratch, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := DeleteRun(gone); err != nil {
		t.Fatal(err)
	}
	res, err := GCPool(pool, GCOptions{PackRetention: time.Hour})
	if err != nil {
		t.Fatalf("GCPool beside an empty scratch lease: %v", err)
	}
	if res.DeadChunks == 0 {
		t.Fatalf("the deleted run's chunks were not reclaimed: %+v", res)
	}
	reopened, err := OpenWith(run, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, reopened} {
		if secs, err := ReadAll(st, key, nil); err != nil || !bytes.Equal(secs[1].Data, want[1].Data) {
			t.Fatalf("%s after GCPool: %v", run, err)
		}
	}
}

// TestGCPoolRetiredPackReusedAfterReopen pins that a retired pack is never
// reused: a pack compacted down to zero chunks keeps its new generation in
// the INDEX snapshot, so a fresh run after a reopen appends to the new
// generation's object, never to the retired one — which the next pass then
// deletes, as it deletes every retired object, rewriting no pack.
func TestGCPoolRetiredPackReusedAfterReopen(t *testing.T) {
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")

	// One run, then delete it: every chunk dies, the pack compacts to
	// empty, and the generation-0 object retires with an (immediately
	// expired) deadline.
	gone := filepath.Join(base, "run-gone")
	s := openPooled(t, gone, pool)
	if _, err := s.PutSections(Key{LoopID: "train", Exec: 0}, familySections(9, 9, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := DeleteRun(gone); err != nil {
		t.Fatal(err)
	}
	first, err := GCPool(pool, GCOptions{PackRetention: time.Nanosecond})
	if err != nil || first.DeadChunks == 0 || first.RetiredPacks == 0 {
		t.Fatalf("pool GC after delete: %+v err=%v", first, err)
	}
	retired := map[string][]byte{} // the objects PACKGC schedules, as they are
	sched, err := os.ReadFile(filepath.Join(pool, packGCFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range strings.Split(strings.TrimSpace(string(sched)), "\n") {
		name := strings.Fields(ln)[0]
		if retired[name], err = os.ReadFile(filepath.Join(pool, name)); err != nil {
			t.Fatal(err)
		}
	}
	if len(retired) != first.RetiredPacks {
		t.Fatalf("PACKGC schedules %d objects, the pass retired %d", len(retired), first.RetiredPacks)
	}

	// "Restart": a fresh run appends to the new generation.
	keep := filepath.Join(base, "run-keep")
	s2 := openPooled(t, keep, pool)
	key := Key{LoopID: "train", Exec: 0}
	if _, err := s2.PutSections(key, familySections(8, 8, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for name, content := range retired {
		if now, err := os.ReadFile(filepath.Join(pool, name)); err != nil || !bytes.Equal(now, content) {
			t.Fatalf("retired pack %s changed after the fresh run's put: %v", name, err)
		}
	}

	// The next pass finds every retirement expired and deletes it all.
	time.Sleep(2 * time.Millisecond)
	res, err := GCPool(pool, GCOptions{PackRetention: time.Hour})
	if err != nil || res.DeletedPacks != first.RetiredPacks || res.CompactedShards != 0 {
		t.Fatalf("second pass: %+v, %v; want the %d retired packs deleted and no pack rewritten", res, err, first.RetiredPacks)
	}
	t.Logf("second pass deleted %d of the %d retired packs", res.DeletedPacks, first.RetiredPacks)
	secs, err := ReadAll(s2, key, nil)
	if err != nil || !bytes.Equal(secs[0].Data, familySections(8, 8, 0)[0].Data) {
		t.Fatalf("read after the retired packs' deletion: %v", err)
	}
	s3, err := Open(keep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(s3, key, nil); err != nil {
		t.Fatalf("reopen read after the retired packs' deletion: %v", err)
	}
}

// TestLostSnapshotRefusesTheRetiredPack removes the INDEX after a compacting
// GC pass, on both writer layouts. The snapshot was the only record of the
// pack's new generation, so an open reads it at generation 0 — the
// objects PACKGC retired, which the next pass deletes with every frame in
// them. A writable open is therefore refused with ErrCorrupt, and no byte of
// a retired pack changes; a read-only open still serves the live checkpoint
// from the retired pack while it lasts.
func TestLostSnapshotRefusesTheRetiredPack(t *testing.T) {
	key := Key{LoopID: "train", Exec: 0}
	for _, pooled := range []bool{false, true} {
		what := map[bool]string{false: "private", true: "pooled"}[pooled]
		dir, o, index := commitRun(t.TempDir(), pooled)
		s, err := OpenWith(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 2; seed++ { // the second supersedes the first
			if err := putOne(s, key, seed); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.GCWith(GCOptions{PackRetention: time.Nanosecond})
		if err != nil || res.CompactedShards == 0 {
			t.Fatalf("%s: gc %+v, %v; want a compaction", what, res, err)
		}
		root := dir
		if pooled {
			root = o.Pool
		}
		retired := map[string][]byte{}
		for name := range (&ChunkPool{root: root}).readPackGC() {
			if retired[name], err = os.ReadFile(filepath.Join(root, name)); err != nil {
				t.Fatal(err)
			}
		}
		if len(retired) == 0 {
			t.Fatalf("%s: PACKGC schedules nothing", what)
		}
		if err := os.Remove(index); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenWith(dir, o); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%s: a writable open without the snapshot: %v, want ErrCorrupt", what, err)
		}
		for name, content := range retired {
			if now, err := os.ReadFile(filepath.Join(root, name)); err != nil || !bytes.Equal(now, content) {
				t.Fatalf("%s: retired pack %s changed: %v", what, name, err)
			}
		}
		ro, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		if secs, err := ReadAll(ro, key, nil); err != nil || !bytes.Equal(secs[0].Data, noise(4096, 2)) {
			t.Fatalf("%s: a read-only read from the retired pack: %v", what, err)
		}
	}
}

// TestGCPoolSurvivesProjectRelocation pins relocatability: a project tree
// (runs + POOL) moved as a unit keeps replaying via its relative
// references, and a pool GC after the move must not mistake every leased
// run for deleted and reclaim the family's chunks.
func TestGCPoolSurvivesProjectRelocation(t *testing.T) {
	base := t.TempDir()
	proj := filepath.Join(base, "proj")
	run := filepath.Join(proj, "run")
	s := openPooled(t, run, filepath.Join(proj, "POOL"))
	key := Key{LoopID: "train", Exec: 0}
	if _, err := s.PutSections(key, familySections(3, 4, 0), 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	moved := filepath.Join(base, "proj-moved")
	if err := os.Rename(proj, moved); err != nil {
		t.Fatal(err)
	}
	res, err := GCPool(filepath.Join(moved, "POOL"), GCOptions{PackRetention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadChunks != 0 {
		t.Fatalf("GC after relocation reclaimed %d chunks of a live run", res.DeadChunks)
	}
	st, err := Open(filepath.Join(moved, "run"))
	if err != nil {
		t.Fatal(err)
	}
	secs, err := ReadAll(st, key, nil)
	if err != nil || !bytes.Equal(secs[0].Data, familySections(3, 4, 0)[0].Data) {
		t.Fatalf("relocated run unreadable after pool GC: %v", err)
	}
}

// TestGCPoolRefusesNonPool pins the typo guard: GC of a path that is not a
// chunk pool errors instead of silently creating an empty pool there.
func TestGCPoolRefusesNonPool(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope")
	if _, err := GCPool(missing, GCOptions{}); err == nil {
		t.Fatal("GCPool on a nonexistent root must error")
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("GCPool created a pool at the typo'd path: %v", err)
	}
}
