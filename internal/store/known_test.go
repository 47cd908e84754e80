package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
)

// TestPutSectionsKnownTakesOffersOnceAndOnlyFromTheCaller: the store hashes
// what it is not offered, hands every chunk's hash back, and leaves no claim
// standing — the same sections put again, with or without the remembered
// hashes, are hashed in full unless their writer renews the claim.
func TestPutSectionsKnownTakesOffersOnceAndOnlyFromTheCaller(t *testing.T) {
	s := openTemp(t)
	hashed := VerifyOffers(t)
	const chunk = ckptfmt.DefaultChunkSize
	secs := []Section{
		{Name: "frozen", Data: noise(3*chunk+100, 1)},
		{Name: "small", Data: []byte("seventeen bytes!!")},
	}
	total := int64(len(secs[0].Data) + len(secs[1].Data))
	put := func(exec int, known []KnownChunks) int64 {
		t.Helper()
		before := hashed.Load()
		if _, err := s.PutSectionsKnown(Key{LoopID: "l", Exec: exec}, secs, known, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		return hashed.Load() - before
	}

	known := make([]KnownChunks, len(secs))
	if got := put(0, known); got != total {
		t.Fatalf("first put hashed %d of %d bytes", got, total)
	}
	if len(known[0].Hashes) != 4 || len(known[1].Hashes) != 1 || known[0].Clean != nil || known[1].Clean != nil {
		t.Fatalf("handed back %d+%d hashes, claims %v %v; want 4+1 and none", len(known[0].Hashes), len(known[1].Hashes), known[0].Clean, known[1].Clean)
	}
	for j, c := range [][]byte{secs[0].Data[:chunk], secs[0].Data[chunk : 2*chunk], secs[0].Data[2*chunk : 3*chunk], secs[0].Data[3*chunk:]} {
		if known[0].Hashes[j] != ckptfmt.HashChunk(c) {
			t.Fatalf("hash handed back for chunk %d is not the chunk's", j)
		}
	}
	if got := put(1, known); got != total {
		t.Fatalf("a put with remembered hashes but no claim hashed %d of %d bytes", got, total)
	}

	// The writer vouches for chunks 0 and 2 of the first section (and for a
	// chunk the section does not have, which is nobody's).
	known[0].Clean = []bool{true, false, true, false, true}
	if got, want := put(2, known), total-2*chunk; got != want {
		t.Fatalf("a put offered two chunks hashed %d bytes, want %d", got, want)
	}
	if known[0].Clean != nil {
		t.Fatal("the put left a claim standing")
	}
	if got := put(3, known); got != total {
		t.Fatalf("the put after a consumed offer hashed %d of %d bytes", got, total)
	}

	// PutSections — what florperf's dedup probe and every other caller use —
	// knows nothing, however often it sees the same slice.
	for exec := 4; exec < 6; exec++ {
		if got := put(exec, nil); got != total {
			t.Fatalf("PutSections hashed %d of %d bytes", got, total)
		}
	}
	for exec := 0; exec < 6; exec++ {
		got, err := ReadAll(s, Key{LoopID: "l", Exec: exec}, nil)
		if err != nil || !bytes.Equal(got[0].Data, secs[0].Data) || !bytes.Equal(got[1].Data, secs[1].Data) {
			t.Fatalf("checkpoint %d reads back wrong (%v)", exec, err)
		}
	}
}

// TestOfferedHashThatIsNotTheChunksFailsThePut is the hook's own test: an
// offer no compare backs is refused, commits nothing, and costs the caller
// everything it remembered.
func TestOfferedHashThatIsNotTheChunksFailsThePut(t *testing.T) {
	s := openTemp(t)
	VerifyOffers(t)
	secs := []Section{{Name: "w", Data: noise(2*ckptfmt.DefaultChunkSize, 2)}}
	known := make([]KnownChunks, 1)
	if _, err := s.PutSectionsKnown(Key{LoopID: "l", Exec: 0}, secs, known, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	secs[0].Data[5] ^= 1 // the writer changes chunk 0 and claims it did not
	known[0].Clean = []bool{true, true}
	_, err := s.PutSectionsKnown(Key{LoopID: "l", Exec: 1}, secs, known, 0, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "offered") {
		t.Fatalf("put with a stale offer: %v", err)
	}
	if s.Has(Key{LoopID: "l", Exec: 1}) || known[0].Hashes != nil || known[0].Clean != nil {
		t.Fatalf("refused put committed (%v) or left %+v remembered", s.Has(Key{LoopID: "l", Exec: 1}), known[0])
	}
	if _, err := s.PutSectionsKnown(Key{LoopID: "l", Exec: 2}, secs, make([]KnownChunks, 2), 0, 0, 0); err == nil {
		t.Fatal("known chunks for two sections accepted with one")
	}
	ro, err := OpenReadOnly(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	known = []KnownChunks{{Hashes: make([]ckptfmt.Hash, 2)}}
	if _, err := ro.PutSectionsKnown(Key{LoopID: "l", Exec: 3}, secs, known, 0, 0, 0); !errors.Is(err, ErrReadOnly) || known[0].Hashes != nil {
		t.Fatalf("read-only put: %v, remembered %+v", err, known[0])
	}
}

// TestWriteFileAtomicLeavesNoTmp: whichever step fails, the temporary sibling
// is gone. The write is made to fail by a directory squatting on the tmp path:
// the FORMAT marker's, which a writable open of a fresh directory writes
// before anything else.
func TestWriteFileAtomicLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, formatFile+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("FORMAT written through a directory")
	}
	// The rename step: a non-empty directory squats on the destination.
	dst := filepath.Join(dir, "dst")
	if err := os.MkdirAll(filepath.Join(dst, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(dst, []byte("z")); err == nil {
		t.Fatal("file renamed over a non-empty directory")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("%s left behind", e.Name())
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("store unusable after a failed marker write: %v", err)
	}
	if _, err := s.PutSections(Key{LoopID: "l", Exec: 2}, []Section{{Name: "w", Data: []byte("y")}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if m, err := os.ReadFile(s.formatPath()); err != nil || string(m) != formatMarker {
		t.Fatalf("FORMAT %q, %v; want %q", m, err, formatMarker)
	}
}
