package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/store"
)

// v1Run copies the committed format-v1 run (testdata/v1run) into a fresh
// directory.
func v1Run(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "..", "testdata", "v1run"))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// v1Segment returns a v1 checkpoint's segment file, unframed.
func v1Segment(t testing.TB, dir string, seq int) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ckpt-%08d.bin", seq)))
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := codec.Unframe(raw)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestV1ReadIntoReturnsTheBundlesSections pins the v1 read path: every v1
// checkpoint resolves, and ReadInto returns its bundle's entries as
// sections, in bundle order, whose bundle is the unframed segment byte for
// byte. Each section has the content identity a v2 put of the same sections
// records, a want of one name reads that name alone, and an into
// destination receives the section's bytes.
func TestV1ReadIntoReturnsTheBundlesSections(t *testing.T) {
	dir := v1Run(t)
	s, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	metas := s.Metas()
	if len(metas) != 6 {
		t.Fatalf("v1 run lists %d checkpoints, want 6", len(metas))
	}
	for _, m := range metas {
		c, err := s.Resolve(m.Key)
		if err != nil {
			t.Fatalf("Resolve %s: %v", m.Key, err)
		}
		secs, err := c.ReadInto(nil, nil, nil, nil)
		if err != nil {
			t.Fatalf("ReadInto %s: %v", m.Key, err)
		}
		if got, want := backmat.BundleBytes(secs), v1Segment(t, dir, m.Seq); !bytes.Equal(got, want) {
			t.Fatalf("%s: the bundle of its sections is not its segment (%d vs %d bytes)", m.Key, len(got), len(want))
		}
		if _, err := v2.PutSections(m.Key, secs, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		c2, err := v2.Resolve(m.Key)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range secs {
			got, ok := c.Section(sec.Name)
			want, _ := c2.Section(sec.Name)
			if !ok || got.Hash != want.Hash || got.RawLen != len(sec.Data) || sec.Hash != want.Hash {
				t.Fatalf("%s section %q: identity %s (%d bytes), a v2 put records %s (%d bytes)",
					m.Key, sec.Name, got.Hash, got.RawLen, want.Hash, want.RawLen)
			}
		}

		var fs store.FetchStats
		only, err := c.ReadInto(func(name string) bool { return name == "w" }, nil, &fs, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := slices.IndexFunc(secs, func(sec store.Section) bool { return sec.Name == "w" })
		for i, sec := range only {
			if sec.Name != secs[i].Name || (i == w) != (sec.Data != nil) || (i == w && !bytes.Equal(sec.Data, secs[w].Data)) {
				t.Fatalf("%s: a read of w alone returned section %q with %d bytes", m.Key, sec.Name, len(sec.Data))
			}
		}
		if snap := fs.Snapshot(); snap.RangedBytes != int64(len(secs[w].Data)) || snap.TotalBytes() != snap.RangedBytes {
			t.Fatalf("%s: a read of w alone attributed %+v, want its %d bytes to the ranged tier", m.Key, snap, len(secs[w].Data))
		}

		dst := make([]byte, len(secs[w].Data))
		into := func(name string, rawLen int) [][]byte {
			if name != "w" {
				return nil
			}
			return [][]byte{dst[:rawLen/2], dst[rawLen/2:]}
		}
		laid, err := c.ReadInto(nil, nil, nil, into)
		if err != nil {
			t.Fatal(err)
		}
		if laid[w].Data != nil || !bytes.Equal(dst, secs[w].Data) || !bytes.Equal(backmat.BundleBytes(laid[:w]), backmat.BundleBytes(secs[:w])) {
			t.Fatalf("%s: a read into a destination did not land there", m.Key)
		}
	}
}

// TestV1SegmentFaults pins the legacy open rules on v1: a checkpoint whose
// segment file is missing is dropped, one whose segment has a flipped byte
// stays indexed and fails Resolve with codec.ErrCorrupt, and their
// neighbours still read.
func TestV1SegmentFaults(t *testing.T) {
	dir := v1Run(t)
	intact, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas := intact.Metas()
	missing, flipped := metas[2], metas[4]
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("ckpt-%08d.bin", missing.Seq))); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.bin", flipped.Seq))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metas {
		_, err := s.Resolve(m.Key)
		switch m.Key {
		case missing.Key:
			if s.Has(m.Key) || !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("%s lost its segment: Has %v, Resolve %v; want dropped", m.Key, s.Has(m.Key), err)
			}
		case flipped.Key:
			if !s.Has(m.Key) || !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("%s has a flipped segment byte: Has %v, Resolve %v; want indexed with codec.ErrCorrupt", m.Key, s.Has(m.Key), err)
			}
		default:
			if _, err := store.ReadAll(s, m.Key, nil); err != nil {
				t.Fatalf("neighbour %s: %v", m.Key, err)
			}
		}
	}
}

// FuzzLegacyV1Segment fuzzes the open-time v1 parser, seeded with the
// committed run's segment files, each tried framed and unframed: it never
// panics, every error wraps codec.ErrCorrupt, and a bundle that splits is
// exactly the bundle of its sections, under a directory that re-encodes
// exactly and names each chunk by its hash.
func FuzzLegacyV1Segment(f *testing.F) {
	dir := v1Run(f)
	for seq := 0; seq < 6; seq++ {
		raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ckpt-%08d.bin", seq)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(v1Segment(f, dir, seq))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		payloads := [][]byte{b}
		if p, _, err := codec.Unframe(b); err == nil {
			payloads = append(payloads, p)
		} else if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("Unframe error is not codec.ErrCorrupt: %v", err)
		}
		for _, p := range payloads {
			dir, offs, err := store.SplitBundle(p)
			if err != nil {
				if !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("split error is not codec.ErrCorrupt: %v", err)
				}
				continue
			}
			secs := make([]store.Section, len(dir.Sections))
			for i := range dir.Sections {
				ds := &dir.Sections[i]
				secs[i] = store.Section{Name: ds.Name, Data: p[offs[i] : offs[i]+ds.RawLen()]}
				chunks := codec.SplitChunks(secs[i].Data, ckptfmt.DefaultChunkSize)
				if len(chunks) != len(ds.Chunks) {
					t.Fatalf("section %q: %d chunk refs for %d chunks", ds.Name, len(ds.Chunks), len(chunks))
				}
				for j, c := range chunks {
					if want := (ckptfmt.ChunkRef{Hash: ckptfmt.HashChunk(c), RawLen: len(c)}); ds.Chunks[j] != want {
						t.Fatalf("section %q chunk %d: ref %+v, want %+v", ds.Name, j, ds.Chunks[j], want)
					}
				}
			}
			if got := backmat.BundleBytes(secs); !bytes.Equal(got, p) {
				t.Fatalf("split into sections whose bundle is %x, not %x", got, p)
			}
			enc := ckptfmt.EncodeDirectory(dir)
			dec, err := ckptfmt.DecodeDirectory(enc)
			if err != nil || !bytes.Equal(ckptfmt.EncodeDirectory(dec), enc) {
				t.Fatalf("the split's directory does not re-encode exactly: %v", err)
			}
		}
	})
}
