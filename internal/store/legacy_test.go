package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// TestV1ReadLegacyReturnsTheBundlesSections pins the v1 read: ReadLegacy
// yields every v1 checkpoint, in commit order, with its bundle's entries as
// sections, in bundle order, whose bundle is the unframed segment byte for
// byte. Each section has the content identity a v2 put of the same sections
// records.
func TestV1ReadLegacyReturnsTheBundlesSections(t *testing.T) {
	dir := v1Run(t)
	v2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int
	err = store.ReadLegacy(dir, func(m store.Meta, secs []store.Section) error {
		seqs = append(seqs, m.Seq)
		if got, want := backmat.BundleBytes(secs), v1Segment(t, dir, m.Seq); !bytes.Equal(got, want) {
			t.Fatalf("%s: the bundle of its sections is not its segment (%d vs %d bytes)", m.Key, len(got), len(want))
		}
		if _, err := v2.PutSections(m.Key, secs, 0, 0, 0); err != nil {
			return err
		}
		c, err := v2.Resolve(m.Key)
		if err != nil {
			return err
		}
		for _, sec := range secs {
			want, _ := c.Section(sec.Name)
			if sec.Hash != want.Hash || sec.RawLen != len(sec.Data) || sec.RawLen != want.RawLen {
				t.Fatalf("%s section %q: identity %s (%d bytes), a v2 put records %s (%d bytes)",
					m.Key, sec.Name, sec.Hash, sec.RawLen, want.Hash, want.RawLen)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seqs, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("ReadLegacy yielded segments %v, want the run's 6 in commit order", seqs)
	}
}

// TestV1SegmentFaults pins the legacy commit rules on v1: a checkpoint
// whose segment file is missing was never committed, so ReadLegacy skips it
// and yields its neighbours; one whose segment has a flipped byte fails the
// read with codec.ErrCorrupt, naming it.
func TestV1SegmentFaults(t *testing.T) {
	dir := v1Run(t)
	var keys []store.Key
	if err := store.ReadLegacy(dir, func(m store.Meta, _ []store.Section) error {
		keys = append(keys, m.Key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	missing, flipped := 2, 4
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("ckpt-%08d.bin", missing))); err != nil {
		t.Fatal(err)
	}
	var read []store.Key
	if err := store.ReadLegacy(dir, func(m store.Meta, _ []store.Section) error {
		read = append(read, m.Key)
		return nil
	}); err != nil || !slices.Equal(read, slices.Delete(slices.Clone(keys), missing, missing+1)) {
		t.Fatalf("a lost segment: read %v, %v; want every checkpoint but %s", read, err, keys[missing])
	}

	seg := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.bin", flipped))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = store.ReadLegacy(dir, func(store.Meta, []store.Section) error { return nil })
	if !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), keys[flipped].String()) {
		t.Fatalf("a flipped segment byte: %v; want codec.ErrCorrupt naming %s", err, keys[flipped])
	}
}

// FuzzLegacyV1Segment fuzzes ReadLegacy's v1 bundle parser, seeded with the
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
			dir, data, err := store.SplitBundle(p)
			if err != nil {
				if !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("split error is not codec.ErrCorrupt: %v", err)
				}
				continue
			}
			secs := make([]store.Section, len(dir.Sections))
			for i := range dir.Sections {
				ds := &dir.Sections[i]
				secs[i] = store.Section{Name: ds.Name, Data: data[i]}
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

// FuzzLegacyMarker fuzzes the layout files older builds wrote, as
// ReadLegacy parses them: a FORMAT marker in the grammar
// "2[ pool][ shards=N][ gc][ lz4][ dirs][ index| packlog]", a POOL marker
// "pool1 shards=N" or "pool2 shards=16" and a SHARDS list. Nothing panics; a
// marker that parses has a fanout that is a power of two in [1, 256] — 1 in
// a store without a shards token or in a pool — is pooled exactly when its
// second token is "pool", keeps its chunk records in an INDEX exactly when
// its last token is "index" and in its packs exactly when it is "packlog";
// the markers every build wrote parse, the two this build writes included.
// Every SHARDS root is a non-empty path.
func FuzzLegacyMarker(f *testing.F) {
	for _, seed := range [][3]string{
		{"2 dirs index\n", "pool1 shards=16\n", ""},
		{"2 pool shards=16 dirs\n", "pool1 shards=4\n", "../rootA\n../rootB\n"},
		{"2 shards=4 dirs\n", "pool1 shards=1", "/abs\n\n rel \n"},
		{"2 gc\n", "pool1 shards=16 gc", ""},
		{"2 lz4 dirs", "pool1", "\n"},
		{"2 pool shards=4 gc lz4 dirs index", "pool1 shards=256", ""},
		{"2", "pool1 shards=016", ""},
		{"2 pool shards=16", "pool2 shards=16", ""},
		{"2 pool shards=16 dirs packlog", "pool2 shards=16\n", ""},
		{"2 pool shards=1 dirs packlog\n", "pool2 shards=1", ""},
		{"2 dirs packlog index", "pool2 shards=4", ""},
		{"", "", ""},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]), []byte(seed[2]))
	}
	for _, written := range []string{"2 dirs index", "2 pool shards=16 dirs", "2 pool shards=16 dirs packlog", "2 dirs packlog", "2 pool shards=1 dirs packlog"} {
		if _, _, _, _, ok := store.ParseLegacyMarker([]byte(written)); !ok {
			f.Fatalf("%q is not in the grammar", written)
		}
	}
	power := func(n int) bool { return n >= 1 && n <= 256 && n&(n-1) == 0 }
	f.Fuzz(func(t *testing.T, format, pool, shards []byte) {
		if fanout, pooled, index, packlog, ok := store.ParseLegacyMarker(format); ok {
			tok := strings.Fields(string(format))
			sharded := slices.ContainsFunc(tok, func(s string) bool { return strings.HasPrefix(s, "shards=") })
			if !power(fanout) || !sharded && fanout != 1 || sharded && !pooled && fanout == 1 {
				t.Fatalf("FORMAT %q parses to fanout %d (pooled %v)", format, fanout, pooled)
			}
			if pooled != (len(tok) > 1 && tok[1] == "pool") || index != (tok[len(tok)-1] == "index") || packlog != (tok[len(tok)-1] == "packlog") {
				t.Fatalf("FORMAT %q parses to pooled=%v index=%v packlog=%v", format, pooled, index, packlog)
			}
		}
		if fanout, ok := store.ParseLegacyPoolMarker(pool); ok && (!power(fanout) || !slices.Contains([]string{fmt.Sprintf("pool1 shards=%d", fanout), "pool2 shards=16"}, strings.Join(strings.Fields(string(pool)), " "))) {
			t.Fatalf("POOL %q parses to fanout %d", pool, fanout)
		}
		for _, root := range store.ParseShardRoots("run", shards) {
			if root == "" {
				t.Fatalf("SHARDS %q yields root %q", shards, root)
			}
		}
	})
}
