package store

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
)

// TestNegativeChunkLengthIsCorruptAtResolve pins the directory decoder's
// length check end to end: a one-section store whose directory was rewritten
// in its meta record, CRC-valid, to claim a chunk length of -8 (a uvarint of
// 2^64-8) fails Resolve with codec.ErrCorrupt — before any reader sizes a
// buffer or lays a section out by it — and so does every read through it.
func TestNegativeChunkLengthIsCorruptAtResolve(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{LoopID: "L", Exec: 0}
	if _, err := s.PutSections(key, []Section{{Name: "w", Data: noise(4096, 1)}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	rewriteDirectory(t, dir, key, func(d *ckptfmt.Directory) { d.Sections[0].Chunks[0].RawLen = -8 })
	r, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := r.Resolve(key); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("Resolve: checkpoint %v, err %v; want codec.ErrCorrupt", c, err)
	}
	if _, err := ReadAll(r, key, nil); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("read: err %v; want codec.ErrCorrupt", err)
	}
}

// TestChunkLengthDisagreementIsCorrupt pins the verdict on a directory whose
// chunk length disagrees with the frame it resolves to, by 8 bytes either
// way: codec.ErrCorrupt, never an untyped failure, on the vectored strategy
// and the staged one, into a fresh buffer and into a section laid out in
// pieces.
func TestChunkLengthDisagreementIsCorrupt(t *testing.T) {
	for _, delta := range []int{-8, 8} {
		for _, fd := range []bool{false, true} {
			if fd && runtime.GOOS != "linux" {
				continue
			}
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := Key{LoopID: "L", Exec: 0}
			if _, err := s.PutSections(key, []Section{{Name: "w", Data: noise(100000, 2)}}, 0, 0, 0); err != nil {
				t.Fatal(err)
			}
			rewriteDirectory(t, dir, key, func(d *ckptfmt.Directory) { d.Sections[0].Chunks[0].RawLen += delta })
			db := DirBackendAt(dir)
			r, err := OpenWith(dir, Options{ReadOnly: true, Backend: &countingBackend{Backend: db, fd: fd}})
			if err != nil {
				t.Fatal(err)
			}
			c, err := r.Resolve(key)
			if err != nil {
				t.Fatal(err)
			}
			into, _ := laidOut(1000, 50000)
			for what, into := range map[string]func(string, int) [][]byte{"buffer": nil, "pieces": into} {
				if _, err := c.ReadInto(nil, nil, nil, into); !errors.Is(err, codec.ErrCorrupt) {
					t.Errorf("%+d bytes, fd=%v, into %s: err %v; want codec.ErrCorrupt", delta, fd, what, err)
				}
			}
		}
	}
}

// rewriteChunkRecords applies edit to the location of every chunk record in
// the record log at path (an INDEX, or the MANIFEST of a store an older
// build left), re-framed so that each CRC holds.
func rewriteChunkRecords(t *testing.T, path string, edit func(*chunkLoc)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for off := 0; off < len(b); {
		rec, n, err := decodeManifestRecord(b[off:], false)
		if err != nil {
			t.Fatal(err)
		}
		raw := b[off : off+n]
		if rec.tag == recChunk {
			edit(&rec.loc)
			raw = frameTagged(recChunk, encodeChunkRecord(rec.hash, rec.loc))
		}
		out = append(out, raw...)
		off += n
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidChunkRecordIsDroppedAtOpen pins the verdict on a CRC-valid
// chunk record whose offset or lengths cannot locate a frame in its pack — a
// negative field, or an extent whose end overflows int64: open drops it as
// it drops a record pointing past the pack's end. A read-only read of its
// checkpoint is codec.ErrCorrupt, never a panic, and a writable open is
// refused — in a private store (INDEX records), in a private store an older
// build left (MANIFEST records: read-only, so the refusal is
// ErrLegacyLayout) and in a shared pool (INDEX records, read at open or
// when a writable attach reloads the pool instance this process holds).
func TestInvalidChunkRecordIsDroppedAtOpen(t *testing.T) {
	edits := map[string]func(*chunkLoc){
		"negative offset":  func(l *chunkLoc) { l.Off = -1 },
		"negative enc len": func(l *chunkLoc) { l.EncLen = -40 },
		"negative raw len": func(l *chunkLoc) { l.RawLen = -8 },
		"end overflows":    func(l *chunkLoc) { l.Off = math.MaxInt64 - 8 },
	}
	key := Key{LoopID: "L", Exec: 0}
	data := noise(100000, 4)
	for name, edit := range edits {
		for _, layout := range recordLogLayouts {
			dir, o, records := plantedRecordLog(t, layout, key, data)
			rewriteChunkRecords(t, records, edit)

			r, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatalf("%s, %s: read-only open: %v", name, layout, err)
			}
			if secs, err := ReadAll(r, key, nil); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("%s, %s: read: %d sections, err %v; want codec.ErrCorrupt", name, layout, len(secs), err)
			}
			resetPoolRegistry()
			if _, err := OpenWith(dir, o); !errors.Is(err, writableRefusal(layout)) {
				t.Errorf("%s, %s: writable open: %v; want %v", name, layout, err, writableRefusal(layout))
			}
			resetPoolRegistry()
		}
	}
	// A record another process appends to the pool's INDEX while this
	// process holds the pool writable is checked when a writable attach
	// reloads the held instance.
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	s, err := OpenWith(filepath.Join(base, "run1"), Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutSections(key, []Section{{Name: "w", Data: data}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	defer resetPoolRegistry()
	foreign := noise(4096, 5)
	h := ckptfmt.HashChunk(foreign)
	idx, err := os.OpenFile(filepath.Join(pool, poolIndexFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Write(frameTagged(recChunk, encodeChunkRecord(h, chunkLoc{EncLen: -40, RawLen: len(foreign)}))); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	if _, err := OpenWith(filepath.Join(base, "run2"), Options{Pool: pool}); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("writable attach after a foreign invalid INDEX record: %v; want codec.ErrCorrupt", err)
	}

	// The unedited store reads back: what fails above is the edit.
	for _, layout := range recordLogLayouts {
		dir, _, records := plantedRecordLog(t, layout, key, data)
		rewriteChunkRecords(t, records, func(*chunkLoc) {})
		r, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		if secs, err := ReadAll(r, key, nil); err != nil || !bytes.Equal(secs[0].Data, data) {
			t.Fatalf("unedited %s store: %v", layout, err)
		}
		resetPoolRegistry()
	}
}

// recordLogLayouts are the three places a chunk record can be read from: a
// private store's INDEX, the MANIFEST of a private store an older build left
// ("2 dirs"), and a shared pool's INDEX.
var recordLogLayouts = []string{"index", "manifest", "pool"}

// plantedRecordLog records data under key into a store of the given
// recordLogLayouts layout, under a fresh base directory, and returns the run
// directory, the options a writable open of it takes, and the log that holds
// its chunk records. The pool registry is reset.
func plantedRecordLog(t *testing.T, layout string, key Key, data []byte) (dir string, o Options, records string) {
	t.Helper()
	base := t.TempDir()
	dir, pool := filepath.Join(base, "run"), filepath.Join(base, "POOL")
	records = filepath.Join(dir, poolIndexFile)
	if layout == "pool" {
		o, records = Options{Pool: pool}, filepath.Join(pool, poolIndexFile)
	}
	s, err := OpenWith(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutSections(key, []Section{{Name: "w", Data: data}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	resetPoolRegistry()
	if layout == "manifest" {
		chunksToManifest(t, dir)
		records = filepath.Join(dir, manifestFile)
	}
	return dir, o, records
}

// writableRefusal is how a writable open refuses a store of the given
// recordLogLayouts layout whose chunk records were edited invalid: a store
// an older build left is refused for its layout before its records count.
func writableRefusal(layout string) error {
	if layout == "manifest" {
		return ErrLegacyLayout
	}
	return codec.ErrCorrupt
}

// TestInflatedRawLenIsDroppedAtOpen pins the raw-length check at open: a
// CRC-valid chunk record rewritten to claim 1 TiB of raw bytes (the most an
// int holds, on a 32-bit build) is dropped, as a record its pack cannot hold
// is — through the length a raw frame's encoded length implies, and, for a
// record of another style, through the length the live directory that names
// its hash gives. A writable open is refused without a byte changing, a
// read-only read of the checkpoint is codec.ErrCorrupt, and the stored-byte
// accounting is the surviving records': the claimed terabyte never enters
// it. Private store (INDEX records), private store an older build left
// (MANIFEST records; its writable open is refused as ErrLegacyLayout) and
// shared pool (INDEX records).
func TestInflatedRawLenIsDroppedAtOpen(t *testing.T) {
	const inflated = int(min(1<<40, math.MaxInt))
	key := Key{LoopID: "L", Exec: 0}
	data := noise(3*ckptfmt.DefaultChunkSize, 6)
	for _, style := range []byte{ckptfmt.StyleRaw, ckptfmt.StyleLZ4} {
		for _, layout := range recordLogLayouts {
			dir, o, records := plantedRecordLog(t, layout, key, data)
			base := filepath.Dir(dir)
			stored := func(s *Store) int64 {
				if ps, ok := s.PoolStats(); ok {
					return ps.StoredRawBytes
				}
				return s.Dedup().StoredRawBytes
			}
			ro, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := stored(ro)
			edited := false
			rewriteChunkRecords(t, records, func(l *chunkLoc) {
				if !edited {
					want -= int64(l.RawLen)
					l.RawLen, l.Style, edited = inflated, style, true
				}
			})
			before := dirBytes(t, base)

			resetPoolRegistry()
			if _, err := OpenWith(dir, o); !errors.Is(err, writableRefusal(layout)) {
				t.Errorf("style %d, %s: writable open: %v; want %v", style, layout, err, writableRefusal(layout))
			}
			if !maps.Equal(before, dirBytes(t, base)) {
				t.Errorf("style %d, %s: the refused open changed the store", style, layout)
			}
			resetPoolRegistry()
			r, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatalf("style %d, %s: read-only open: %v", style, layout, err)
			}
			if got := stored(r); got != want {
				t.Errorf("style %d, %s: %d raw bytes stored, want the surviving records' %d", style, layout, got, want)
			}
			if _, err := ReadAll(r, key, nil); !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("style %d, %s: read: %v; want codec.ErrCorrupt", style, layout, err)
			}
			resetPoolRegistry()
		}
	}
}
