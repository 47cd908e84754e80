package store

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
)

// legacyFixture copies a store committed under the repository's testdata
// (recorded by an older build: one segment file per checkpoint, meta records
// without directories) into a fresh directory.
func legacyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "..", "testdata", name))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// readLegacy reads every live checkpoint of the run at dir through
// ReadLegacy: their sections by key, and their keys in the order it
// yielded them.
func readLegacy(dir string) (map[Key][]Section, []Key, error) {
	secs := map[Key][]Section{}
	var order []Key
	err := ReadLegacy(dir, func(m Meta, s []Section) error {
		secs[m.Key] = s
		order = append(order, m.Key)
		return nil
	})
	return secs, order, err
}

// manifestRecords splits a run's MANIFEST into its framed records and their
// decodings.
func manifestRecords(t *testing.T, dir string) (raw [][]byte, recs []manifestRecord) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(b); {
		rec, n, err := decodeManifestRecord(b[off:])
		if err != nil {
			t.Fatal(err)
		}
		raw, recs = append(raw, b[off:off+n]), append(recs, rec)
		off += n
	}
	return raw, recs
}

// chunksOf returns the chunk records of the INDEX snapshot at path, as an
// older build's INDEX log held them: the snapshot less its pack record.
func chunksOf(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for off := 0; off < len(raw); {
		rec, n, err := decodeManifestRecord(raw[off:])
		if err != nil {
			t.Fatal(err)
		}
		if rec.tag == recChunk {
			out = append(out, raw[off:off+n]...)
		}
		off += n
	}
	return out
}

// asIndexLog puts a store of this build that never compacted, its snapshot
// written, into a layout older builds wrote: its INDEX the log of its chunk
// records, under the marker "2 dirs index" for a private store, or "2 pool
// shards=1 dirs" for a pooled run, whose pool (at pool) gets the marker
// "pool1 shards=1" — its one pack stays where it is.
func asIndexLog(t testing.TB, dir, pool string) {
	t.Helper()
	if pool == "" {
		plant(t, dir, poolIndexFile, string(chunksOf(t, filepath.Join(dir, poolIndexFile))))
		plant(t, dir, formatFile, "2 dirs index\n")
		return
	}
	plant(t, pool, poolIndexFile, string(chunksOf(t, filepath.Join(pool, poolIndexFile))))
	plant(t, pool, poolMarkerFile, "pool1 shards=1\n")
	plant(t, dir, formatFile, "2 pool shards=1 dirs\n")
}

// chunksToManifest puts a private store of this build into the layout older
// builds left ("2 dirs"): its INDEX chunk records move into its MANIFEST,
// ahead of its meta records, as an older build's GC left them.
func chunksToManifest(t testing.TB, dir string) {
	t.Helper()
	idx := chunksOf(t, filepath.Join(dir, poolIndexFile))
	man, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	plant(t, dir, manifestFile, string(idx)+string(man))
	if err := os.Remove(filepath.Join(dir, poolIndexFile)); err != nil {
		t.Fatal(err)
	}
	plant(t, dir, formatFile, "2 dirs\n")
}

// chunksToIndex gives a private store an older build left this build's
// marker and a leading pool reference naming its own directory, its
// MANIFEST chunk records moved to its INDEX.
func chunksToIndex(t *testing.T, dir string) {
	t.Helper()
	raw, recs := manifestRecords(t, dir)
	var idx, man []byte
	for i, rec := range recs {
		if rec.tag == recChunk {
			idx = append(idx, raw[i]...)
		} else {
			man = append(man, raw[i]...)
		}
	}
	plant(t, dir, poolIndexFile, string(idx))
	plant(t, dir, manifestFile, string(frameTagged(recPool, encodePoolRef(ownPool, 1)))+string(man))
	plant(t, dir, formatFile, formatMarker)
}

// encodeRecord is decodeManifestRecord's inverse.
func encodeRecord(rec manifestRecord) []byte {
	switch rec.tag {
	case recMeta:
		return frameTagged(recMeta, encodeMeta(rec.e))
	case recChunk:
		return frameTagged(recChunk, encodeChunkRecord(rec.hash, rec.loc))
	case recShard:
		return frameTagged(recShard, encodeShardRecord(rec.shard))
	default:
		return frameTagged(recPool, encodePoolRef(rec.ref, rec.fanout))
	}
}

// rewriteDirectory replaces the directory in the meta record of key's
// latest checkpoint with what edit makes of it, re-framed so that its CRC
// holds: the directory a reader decodes is exactly the edited one.
func rewriteDirectory(t *testing.T, dir string, key Key, edit func(*ckptfmt.Directory)) {
	t.Helper()
	raw, recs := manifestRecords(t, dir)
	hit := -1
	for i, rec := range recs {
		if rec.tag == recMeta && rec.e.Key == key {
			hit = i
		}
	}
	if hit < 0 || recs[hit].e.dir == nil {
		t.Fatalf("no meta record with a directory for %s", key)
	}
	edit(recs[hit].e.dir)
	raw[hit] = encodeRecord(recs[hit])
	if err := os.WriteFile(filepath.Join(dir, manifestFile), bytes.Join(raw, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// recordLayouts puts the same three checkpoints — two sections, one unnamed
// section, and a superseding one — into a fresh store of each writer layout,
// private and pooled, and returns each run directory and what a read of each
// key must return.
func recordLayouts(t testing.TB, base string) (dirs map[string]string, want map[Key][]Section) {
	want = map[Key][]Section{
		{LoopID: "train", Exec: 0}: {{Name: "w", Data: noise(300<<10, 1)}, {Name: "b", Data: []byte("bias")}},
		{LoopID: "train", Exec: 1}: {{Name: "w", Data: noise(4096, 2)}, {Name: "b", Data: []byte("bias")}},
	}
	dirs = map[string]string{}
	for _, layout := range []struct {
		name string
		o    Options
	}{
		{"v2", Options{}},
		{"v2-pooled", Options{Pool: filepath.Join(base, "POOL")}},
	} {
		dir := filepath.Join(base, layout.name)
		s, err := OpenWith(dir, layout.o)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []Key{{LoopID: "train", Exec: 0}, {LoopID: "train", Exec: 1}, {LoopID: "train", Exec: 1}} {
			if _, err := s.PutSections(k, want[k], 0, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := putBlob(s, Key{LoopID: "blob", Exec: 0}, []byte("opaque"), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteIndex(); err != nil { // as a finished recording does
			t.Fatal(err)
		}
		dirs[layout.name] = dir
	}
	want[Key{LoopID: "blob", Exec: 0}] = []Section{{Data: []byte("opaque")}}
	return dirs, want
}

// TestNewStoresWriteNoSegmentFiles pins the write form on every writer
// layout: a checkpoint is its manifest records, so no run directory holds a
// ckpt-*.bin file, and the FORMAT marker carries the "dirs" token that makes
// older builds — which would count every checkpoint as missing its segment
// file — refuse the store. Marker tokens keep their grammar order.
func TestNewStoresWriteNoSegmentFiles(t *testing.T) {
	dirs, _ := recordLayouts(t, t.TempDir())
	for layout, dir := range dirs {
		if segs, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(segs) > 0 {
			t.Errorf("%s: segment files %v", layout, segs)
		}
		marker, err := os.ReadFile(filepath.Join(dir, formatFile))
		if err != nil {
			t.Fatal(err)
		}
		if err := parseFormatMarker(dir, marker); err != nil {
			t.Errorf("%s: FORMAT %q (%v), want the marker this build writes", layout, marker, err)
		}
	}
	if err := parseFormatMarker("run", []byte("2 dirs gc\n")); !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("out-of-order marker parsed: %v", err)
	}
}

// TestCommittedFixtureDirectoriesReencodeExactly pins that dropping the
// opaque flag changed no directory on disk: every directory in a committed
// v2 fixture — carried by a meta record or in a legacy segment file —
// decodes, and re-encodes to exactly the bytes it was read from.
func TestCommittedFixtureDirectoriesReencodeExactly(t *testing.T) {
	for _, root := range []string{
		filepath.Join("..", "..", "testdata", "framestyles"),
		filepath.Join("..", "..", "testdata", "gztwins"),
		filepath.Join("..", "skipblock", "testdata", "direct"),
	} {
		checked := 0
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			switch {
			case d.Name() == manifestFile:
				_, recs := manifestRecords(t, filepath.Dir(path))
				for _, rec := range recs {
					if rec.tag == recMeta && rec.e.dirErr != nil {
						t.Fatalf("%s: %v", path, rec.e.dirErr)
					}
					if rec.tag == recMeta && rec.e.dir != nil {
						checked++
					}
				}
			case strings.HasPrefix(d.Name(), "ckpt-") && strings.HasSuffix(d.Name(), ".bin"):
				payload, _, err := codec.Unframe(raw)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				dir, err := ckptfmt.DecodeDirectory(payload)
				if err != nil || !bytes.Equal(ckptfmt.EncodeDirectory(dir), payload) {
					t.Fatalf("%s: directory does not re-encode exactly (%v)", path, err)
				}
				checked++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if checked == 0 {
			t.Fatalf("%s holds no directory", root)
		}
	}
}

// TestResolveDoesNoFileIO pins that a checkpoint's directory lives in the
// index: after a read-only open, every file of the run but its packs is
// deleted — MANIFEST, FORMAT, and for a pooled run the pool's INDEX, marker
// and leases — and Resolve plus ReadInto of every key still returns
// byte-identical sections on every writer layout.
func TestResolveDoesNoFileIO(t *testing.T) {
	base := t.TempDir()
	dirs, want := recordLayouts(t, base)
	stores := map[string]*Store{}
	for layout, dir := range dirs {
		s, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[layout] = s
	}
	for _, d := range []string{dirs["v2"], dirs["v2-pooled"], filepath.Join(base, "POOL")} {
		entries, _ := os.ReadDir(d)
		for _, e := range entries {
			if !strings.HasPrefix(e.Name(), packFile) {
				if err := os.RemoveAll(filepath.Join(d, e.Name())); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for layout, s := range stores {
		for key, secs := range want {
			c, err := s.Resolve(key)
			if err != nil {
				t.Fatalf("%s: Resolve(%s) with only packs left: %v", layout, key, err)
			}
			got, err := c.ReadInto(nil, nil, nil, nil)
			if err != nil || len(got) != len(secs) {
				t.Fatalf("%s: ReadInto(%s): %d sections, %v", layout, key, len(got), err)
			}
			for i := range secs {
				if got[i].Name != secs[i].Name || !bytes.Equal(got[i].Data, secs[i].Data) {
					t.Fatalf("%s: %s section %d differs from what was put", layout, key, i)
				}
			}
		}
	}
}

// TestLegacySegmentsReadAtOpenAndRefuseWrites pins the segment-file form on
// a copy of the committed gztwins store (meta records without directories,
// one segment file each): every open — writable or read-only, under the
// store's own marker, under the one this build writes and under the
// previous build's private "2 dirs packlog" — is refused with ErrLegacyLayout before it reads a checkpoint or
// writes a byte, so nothing can append a record beside the segment-file
// ones or GC them away. ReadLegacy reads each directory once, when it opens
// the run, and yields its seven live checkpoints; migrating is the way
// forward (core.Migrate, pinned in the root package).
func TestLegacySegmentsReadAtOpenAndRefuseWrites(t *testing.T) {
	dir := legacyFixture(t, "gztwins")
	got, _, err := readLegacy(dir)
	if err != nil || len(got) != 7 {
		t.Fatalf("ReadLegacy: %d live checkpoints, %v; want 7", len(got), err)
	}
	for _, marker := range []string{"", formatMarker, "2 dirs packlog\n"} {
		if marker != "" {
			plant(t, dir, formatFile, marker)
		}
		before := dirBytes(t, dir)
		for _, ro := range []bool{false, true} {
			if _, err := OpenWith(dir, Options{ReadOnly: ro}); !errors.Is(err, ErrLegacyLayout) {
				t.Fatalf("open (read-only %v) under marker %q: %v, want ErrLegacyLayout", ro, marker, err)
			}
		}
		if !maps.Equal(before, dirBytes(t, dir)) {
			t.Fatalf("the refused opens under marker %q changed the store", marker)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if len(segs) != 16 {
		t.Fatalf("%d segment files and twins, want the fixture's 16", len(segs))
	}
}

// TestGCPoolRefusesALeasedLegacyRun pins GCPool's mark over a pool one of
// whose leased runs is in a layout an older build left — its meta records
// carry no directory (made here by moving a fresh pooled run's directories
// out to segment files), or its marker is one this build does not write:
// the mark cannot read that run's checkpoints as an open would, so the pass
// fails closed with ErrLegacyLayout naming the run and florctl migrate, no
// byte of the pool changes, and the run's sibling still reads.
func TestGCPoolRefusesALeasedLegacyRun(t *testing.T) {
	for _, legacy := range []string{"segment files", "marker"} {
		t.Run(legacy, func(t *testing.T) {
			base := t.TempDir()
			pool := filepath.Join(base, "POOL")
			run, sibling := filepath.Join(base, "run"), filepath.Join(base, "sibling")
			key := Key{LoopID: "train", Exec: 0}
			for i, dir := range []string{run, sibling} {
				s := openPooled(t, dir, pool)
				for j := 0; j < 2; j++ {
					if _, err := s.PutSections(key, mutatingSections(uint64(70+10*i+j)), 0, 0, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			if legacy == "segment files" {
				toSegments(t, run)
			} else {
				plant(t, run, formatFile, "2 pool shards=16 dirs index\n")
			}
			before := dirBytes(t, pool)
			_, err := GCPool(pool, GCOptions{PackRetention: time.Hour})
			if !errors.Is(err, ErrLegacyLayout) || !strings.Contains(err.Error(), run) || !strings.Contains(err.Error(), "florctl migrate") {
				t.Fatalf("GCPool over a leased %s run: %v; want ErrLegacyLayout naming %s and florctl migrate", legacy, err, run)
			}
			if !maps.Equal(before, dirBytes(t, pool)) {
				t.Fatal("the refused GCPool changed the pool")
			}
			st, err := OpenReadOnly(sibling)
			if err != nil {
				t.Fatal(err)
			}
			if secs, err := ReadAll(st, key, nil); err != nil || !bytes.Equal(secs[0].Data, mutatingSections(81)[0].Data) {
				t.Fatalf("the sibling after the refused GCPool: %v", err)
			}
		})
	}
}

// FuzzManifestRecord asserts the manifest record decoder's contract on
// arbitrary input: it never panics, every failure (and every directory a
// meta record carries that does not decode) is codec.ErrCorrupt, and a
// record that decodes re-encodes to exactly the bytes it consumed. Seeds are
// the record payloads of stores recorded on every writer layout —
// pool-reference and meta records, sectioned and opaque, and the chunk
// records (with and without a pack generation) of their INDEXes — the
// directory-less meta records of the committed gztwins store, the records
// of the committed private2dirs, sharded and fanout-4 pooled stores, and the
// INDEX snapshot of the committed 16-pack pool, a pack record per shard.
// Each input is decoded as it stands and CRC-framed, so that mutations reach
// the record bodies behind the CRC.
func FuzzManifestRecord(f *testing.F) {
	base := f.TempDir()
	dirs, _ := recordLayouts(f, base)
	s, err := Open(dirs["v2"])
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.GC(); err != nil {
		f.Fatal(err)
	}
	fixture := func(name string) string { return filepath.Join("..", "..", "testdata", filepath.FromSlash(name)) }
	for _, log := range []string{
		filepath.Join(dirs["v2"], manifestFile), filepath.Join(dirs["v2"], poolIndexFile),
		filepath.Join(dirs["v2-pooled"], manifestFile), filepath.Join(base, "POOL", poolIndexFile),
		filepath.Join(fixture("gztwins"), manifestFile), filepath.Join(fixture("private2dirs"), manifestFile),
		filepath.Join(fixture("sharded"), manifestFile), filepath.Join(fixture("pool4/run"), manifestFile),
		filepath.Join(fixture("pool16packlog"), poolIndexFile),
	} {
		b, err := os.ReadFile(log)
		if err != nil {
			f.Fatal(err)
		}
		for off := 0; off < len(b); {
			payload, n, err := codec.Unframe(b[off:])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
			off += n
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, b := range [][]byte{payload, codec.Frame(payload)} {
			rec, n, err := decodeManifestRecord(b)
			if err != nil {
				if !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("decode error is not codec.ErrCorrupt: %v", err)
				}
				continue
			}
			if n <= 0 || n > len(b) {
				t.Fatalf("decoded record consumed %d of %d bytes", n, len(b))
			}
			if rec.tag == recMeta && rec.e.dirErr != nil {
				if !errors.Is(rec.e.dirErr, codec.ErrCorrupt) {
					t.Fatalf("directory error is not codec.ErrCorrupt: %v", rec.e.dirErr)
				}
				continue
			}
			if enc := encodeRecord(rec); !bytes.Equal(enc, b[:n]) {
				t.Fatalf("record re-encodes to %x, not the %x it was decoded from", enc, b[:n])
			}
		}
	})
}
