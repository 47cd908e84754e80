package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"flor.dev/flor/internal/codec"
)

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTemp(t)
	key := Key{LoopID: "train", Exec: 3}
	payload := []byte("epoch three side effects")
	if _, err := putBlob(s, key, payload, 10, 20, 30); err != nil {
		t.Fatal(err)
	}
	got, err := getBlob(s, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
}

func TestGetMissingKey(t *testing.T) {
	s := openTemp(t)
	if _, err := getBlob(s, Key{LoopID: "train", Exec: 0}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("error = %v, want ErrNotFound", err)
	}
	if s.Has(Key{LoopID: "train", Exec: 0}) {
		t.Fatal("Has on empty store")
	}
}

func TestLatestWinsForSameKey(t *testing.T) {
	s := openTemp(t)
	key := Key{LoopID: "train", Exec: 1}
	putBlob(s, key, []byte("old"), 0, 0, 0)
	putBlob(s, key, []byte("new"), 0, 0, 0)
	got, err := getBlob(s, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("got %q, want latest", got)
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := Key{LoopID: "train", Exec: i}
		if _, err := putBlob(s, key, []byte(fmt.Sprintf("payload-%d", i)), 1, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := getBlob(s2, Key{LoopID: "train", Exec: i})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("exec %d payload = %q", i, got)
		}
	}
	if len(s2.Metas()) != 5 {
		t.Fatalf("reopened store has %d metas, want 5", len(s2.Metas()))
	}
}

func TestMetaTimingsPersist(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := Key{LoopID: "train", Exec: 0}
	putBlob(s, key, []byte("x"), 111, 222, 333)
	s2, _ := Open(dir)
	m, ok := s2.Lookup(key)
	if !ok {
		t.Fatal("lookup failed after reopen")
	}
	if m.SnapNs != 111 || m.ComputNs != 333 {
		t.Fatalf("timings lost: %+v", m)
	}
	// MaterNs = snapNs + serNs + measured write time, so it must be at least
	// the sum of the supplied components.
	if m.MaterNs < 111+222 {
		t.Fatalf("MaterNs = %d, want >= 333", m.MaterNs)
	}
	if m.Size != 1 {
		t.Fatalf("size = %d, want 1", m.Size)
	}
}

func TestTornManifestTailIgnored(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	putBlob(s, Key{LoopID: "train", Exec: 0}, []byte("good"), 0, 0, 0)
	putBlob(s, Key{LoopID: "train", Exec: 1}, []byte("also good"), 0, 0, 0)
	// Simulate a crash mid-append: garbage at the manifest tail.
	f, err := os.OpenFile(filepath.Join(dir, "MANIFEST"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x07, 0xde, 0xad})
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(Key{LoopID: "train", Exec: 0}) || !s2.Has(Key{LoopID: "train", Exec: 1}) {
		t.Fatal("good records lost after torn tail")
	}
	// The store must remain writable after tail truncation.
	if _, err := putBlob(s2, Key{LoopID: "train", Exec: 2}, []byte("post-crash"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	s3, _ := Open(dir)
	if !s3.Has(Key{LoopID: "train", Exec: 2}) {
		t.Fatal("post-crash write lost")
	}
}

func TestCrashAtAnyManifestPrefixIsConsistent(t *testing.T) {
	// Property: truncating the manifest at any byte offset yields a store
	// that opens cleanly and serves only fully committed checkpoints.
	dir := t.TempDir()
	s, _ := Open(dir)
	for i := 0; i < 4; i++ {
		putBlob(s, Key{LoopID: "L", Exec: i}, bytes.Repeat([]byte{byte(i)}, 50), 0, 0, 0)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(manifest); cut += 7 {
		cutDir := t.TempDir()
		// Copy the run — its pool's files, LEASES/ included — and cut the
		// manifest.
		if err := os.CopyFS(cutDir, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(cutDir, "MANIFEST"), manifest[:cut], 0o644)
		sc, err := Open(cutDir)
		if err != nil {
			t.Fatalf("cut %d: open failed: %v", cut, err)
		}
		for _, m := range sc.Metas() {
			got, err := getBlob(sc, m.Key)
			if err != nil {
				t.Fatalf("cut %d: indexed checkpoint unreadable: %v", cut, err)
			}
			want := bytes.Repeat([]byte{byte(m.Key.Exec)}, 50)
			if !bytes.Equal(got, want) {
				t.Fatalf("cut %d: wrong payload for %s", cut, m.Key)
			}
		}
	}
}

// TestCorruptSegmentDetected pins a legacy segment file's CRC on a copy of
// the committed gztwins store: a flipped byte fails ReadLegacy with
// codec.ErrCorrupt at that checkpoint, after the intact ones before it were
// yielded.
func TestCorruptSegmentDetected(t *testing.T) {
	dir := legacyFixture(t, "gztwins")
	_, order, err := readLegacy(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := Key{LoopID: "train", Exec: 2}
	at := slices.Index(order, corrupt)
	if at < 1 {
		t.Fatalf("train@2 is checkpoint %d of %v", at, order)
	}
	path := filepath.Join(dir, "ckpt-00000002.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, order, err := readLegacy(dir)
	if !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), corrupt.String()) {
		t.Fatalf("corrupt segment read: %v, want codec.ErrCorrupt naming %s", err, corrupt)
	}
	if len(order) != at || len(got) != at {
		t.Fatalf("ReadLegacy yielded %v before failing, want the %d checkpoints before %s", order, at, corrupt)
	}
}

// TestMissingSegmentDroppedOnReopen pins the legacy commit rule on a copy
// of the committed gztwins store: a meta record whose segment file is gone
// does not count, and ReadLegacy yields its neighbours.
func TestMissingSegmentDroppedOnReopen(t *testing.T) {
	dir := legacyFixture(t, "gztwins")
	if err := os.Remove(filepath.Join(dir, "ckpt-00000001.bin")); err != nil {
		t.Fatal(err)
	}
	got, _, err := readLegacy(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got[Key{LoopID: "train", Exec: 1}]; ok {
		t.Fatal("checkpoint with missing segment still read")
	}
	if _, ok := got[Key{LoopID: "train", Exec: 2}]; !ok {
		t.Fatal("intact checkpoint lost")
	}
}

func TestExecsForSorted(t *testing.T) {
	s := openTemp(t)
	for _, e := range []int{5, 1, 3} {
		putBlob(s, Key{LoopID: "train", Exec: e}, []byte("x"), 0, 0, 0)
	}
	putBlob(s, Key{LoopID: "other", Exec: 9}, []byte("x"), 0, 0, 0)
	got := s.ExecsFor("train")
	want := []int{1, 3, 5}
	if len(got) != 3 {
		t.Fatalf("ExecsFor = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExecsFor = %v, want %v", got, want)
		}
	}
}

func TestTotalSize(t *testing.T) {
	s := openTemp(t)
	putBlob(s, Key{LoopID: "a", Exec: 0}, make([]byte, 100), 0, 0, 0)
	putBlob(s, Key{LoopID: "b", Exec: 0}, make([]byte, 50), 0, 0, 0)
	if got := s.TotalSize(); got != 150 {
		t.Fatalf("TotalSize = %d, want 150", got)
	}
}

func TestGCRemovesSupersededSegments(t *testing.T) {
	s := openTemp(t)
	key := Key{LoopID: "train", Exec: 0}
	putBlob(s, key, []byte("v1"), 0, 0, 0)
	putBlob(s, key, []byte("v2"), 0, 0, 0)
	removed, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("GC removed %d segments, want 1", removed)
	}
	got, err := getBlob(s, key)
	if err != nil || string(got) != "v2" {
		t.Fatalf("latest checkpoint lost after GC: %q, %v", got, err)
	}
	if len(s.Metas()) != 1 {
		t.Fatalf("metas after GC = %d, want 1", len(s.Metas()))
	}
}

func TestQuickPutGetAnyPayload(t *testing.T) {
	s := openTemp(t)
	exec := 0
	f := func(payload []byte) bool {
		exec++
		key := Key{LoopID: "q", Exec: exec}
		if _, err := putBlob(s, key, payload, 0, 0, 0); err != nil {
			return false
		}
		got, err := getBlob(s, key)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
