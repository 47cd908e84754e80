package store

import (
	"testing"

	"flor.dev/flor/internal/ckptfmt"
)

func TestFetchTierAttribution(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{LoopID: "train", Exec: 0}
	secs := []Section{
		{Name: "w", Data: testPayload(512<<10, 1)},
		{Name: "opt", Data: testPayload(64<<10, 2)},
	}
	if _, err := s.PutSections(key, secs, 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	// Cold read: every restored byte must be attributed to a disk tier.
	var fs FetchStats
	got, ok, err := s.GetSectionsObserved(key, nil, &fs)
	if err != nil || !ok {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	snap := fs.Snapshot()
	if snap.TotalFrames() == 0 || snap.TotalBytes() == 0 {
		t.Fatalf("no fetch attribution: %+v", snap)
	}
	if snap.CacheBytes != 0 || snap.CacheFrames != 0 {
		t.Fatalf("cold read attributed to cache: %+v", snap)
	}
	if snap.MmapBytes != 0 || snap.MmapFrames != 0 {
		t.Fatalf("the retired mmap tier counted: %+v", snap)
	}
	if snap.ScatterBytes+snap.RangedBytes != snap.TotalBytes() {
		t.Fatalf("disk tiers do not cover the read: %+v", snap)
	}
	var chunks int64
	for _, sec := range got {
		if sec.Data == nil {
			t.Fatal("cold read returned a skipped section")
		}
		chunks += int64(len(sec.Data))
	}

	// Cached read: a have callback claiming every section must shift the
	// whole read to the cache tier, counting logical (raw) bytes skipped.
	var fs2 FetchStats
	if _, ok, err := s.GetSectionsObserved(key, func(ckptfmt.Hash) bool { return true }, &fs2); err != nil || !ok {
		t.Fatalf("cached read: ok=%v err=%v", ok, err)
	}
	snap2 := fs2.Snapshot()
	if snap2.CacheBytes != chunks {
		t.Fatalf("cache tier bytes = %d, want logical %d", snap2.CacheBytes, chunks)
	}
	if snap2.TotalBytes() != snap2.CacheBytes || snap2.TotalFrames() != snap2.CacheFrames {
		t.Fatalf("cached read touched disk tiers: %+v", snap2)
	}

	// Snapshot algebra used by the per-restore span deltas.
	d := snap2.Add(snap).Sub(snap)
	if d != snap2 {
		t.Fatalf("Add/Sub not inverse: %+v != %+v", d, snap2)
	}
}

// TestFetchTierCountingDisabledAllocFree is the CI zero-alloc guard for the
// store-tier attribution hot path: with the registry disabled (nil handles)
// and no per-query observer, counting must not allocate.
func TestFetchTierCountingDisabledAllocFree(t *testing.T) {
	p := &ChunkPool{}
	p.initCounters() // resolves nil handles while the registry is disabled
	var nilFS *FetchStats
	allocs := testing.AllocsPerRun(1000, func() {
		p.countFetch(tierScatter, 4096, 3, nil)
		p.countFetch(tierCache, 1<<20, 16, nil)
		nilFS.note(tierRanged, 128, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled tier counting allocated %.1f times per op, want 0", allocs)
	}
	if s := nilFS.Snapshot(); s != (FetchSnapshot{}) {
		t.Fatalf("nil FetchStats snapshot = %+v, want zero", s)
	}
}
