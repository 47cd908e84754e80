package store

import (
	"errors"
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
			db, err := NewDirBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
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
