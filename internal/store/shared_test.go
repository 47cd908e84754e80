package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
)

// populateRun writes a small v2 run with repeated (dedup-able) and unique
// content across several checkpoints.
func populateRun(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	shared := bytes.Repeat([]byte("frozen-backbone"), 400)
	for e := 0; e < 6; e++ {
		secs := []Section{
			{Name: "backbone", Data: shared},
			{Name: "head", Data: bytes.Repeat([]byte{byte(e)}, 900)},
		}
		if _, err := s.PutSections(Key{LoopID: "train", Exec: e}, secs, 10, 20, 1000); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestOpenReadOnlySharedConcurrentReads is the -race regression test for the
// daemon's shared-store path: one read-only *Store hammered by many
// goroutines doing whole and have-filtered reads (Resolve + ReadInto, with a
// concurrently mutated have callback), Lookup, Has, Metas, and Dedup.
func TestOpenReadOnlySharedConcurrentReads(t *testing.T) {
	dir := t.TempDir()
	populateRun(t, dir)

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.ReadOnly() {
		t.Fatal("OpenReadOnly store not marked read-only")
	}

	want, err := getBlob(ro, Key{LoopID: "train", Exec: 3})
	if err != nil {
		t.Fatal(err)
	}

	// A tiny concurrent "payload cache": its Contains runs inside
	// ReadInto from every reader goroutine at once.
	var cacheMu sync.Mutex
	cached := map[ckptfmt.Hash]bool{}
	have := func(h ckptfmt.Hash) bool {
		cacheMu.Lock()
		defer cacheMu.Unlock()
		return cached[h]
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := Key{LoopID: "train", Exec: (g + i) % 6}
				secs, err := ReadAll(ro, key, have)
				if err != nil {
					errc <- err
					return
				}
				cacheMu.Lock()
				for _, sec := range secs {
					if sec.Data != nil {
						cached[sec.Hash] = true
					}
				}
				cacheMu.Unlock()
				got, err := getBlob(ro, Key{LoopID: "train", Exec: 3})
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(got, want) {
					errc <- fmt.Errorf("concurrent Get diverged on iteration %d", i)
					return
				}
				if m, ok := ro.Lookup(key); !ok || m.Size == 0 {
					errc <- fmt.Errorf("Lookup %s: ok=%v", key, ok)
					return
				}
				ro.Has(key)
				ro.Metas()
				ro.Dedup()
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestOpenReadOnlyRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	populateRun(t, dir)
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.PutSections(Key{LoopID: "x", Exec: 0}, []Section{{Data: []byte("p")}}, 0, 0, 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("PutSections err = %v, want ErrReadOnly", err)
	}
	if _, err := ro.GC(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("GC err = %v, want ErrReadOnly", err)
	}
}

func TestOpenReadOnlyMissingDir(t *testing.T) {
	if _, err := OpenReadOnly(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("OpenReadOnly created or accepted a missing directory")
	}
}

// TestOpenReadOnlyLeavesTornTail checks a read-only open skips a torn
// manifest tail without truncating the file (it must not write).
func TestOpenReadOnlyLeavesTornTail(t *testing.T) {
	dir := t.TempDir()
	populateRun(t, dir)
	mpath := filepath.Join(dir, "MANIFEST")
	f, err := os.OpenFile(mpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(mpath)
	if err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ro.Metas()) != 6 {
		t.Fatalf("metas = %d, want 6", len(ro.Metas()))
	}
	after, err := os.Stat(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("read-only open changed manifest size %d -> %d", before.Size(), after.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "FORMAT")); err != nil {
		t.Fatalf("FORMAT marker: %v", err)
	}
}
