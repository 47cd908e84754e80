package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/xrand"
)

// noise returns n bytes of incompressible data.
func noise(n int, seed uint64) []byte {
	rng := xrand.New(seed)
	b := make([]byte, n)
	for i := range b {
		if i%8 == 0 {
			v := rng.Uint64()
			for j := 0; j < 8 && i+j < n; j++ {
				b[i+j] = byte(v >> (8 * j))
			}
		}
	}
	return b
}

func TestPutSectionsGetSectionsRoundTrip(t *testing.T) {
	s := openTemp(t)
	big := noise(3*ckptfmt.DefaultChunkSize+123, 1) // forces multi-chunk sections
	secs := []Section{
		{Name: "net", Data: big},
		{Name: "rng", Data: []byte("tiny rng state!!!")},
		{Name: "empty", Data: nil},
	}
	key := Key{LoopID: "train", Exec: 0}
	m, err := s.PutSections(key, secs, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Format != FormatV2 {
		t.Fatalf("meta format = %d", m.Format)
	}
	if m.Size != int64(len(big)+17) {
		t.Fatalf("meta size = %d", m.Size)
	}
	got, ok, err := s.GetSections(key, nil)
	if err != nil || !ok {
		t.Fatalf("GetSections: ok=%v err=%v", ok, err)
	}
	if len(got) != 3 || got[0].Name != "net" || got[1].Name != "rng" || got[2].Name != "empty" {
		t.Fatalf("sections = %+v", got)
	}
	if !bytes.Equal(got[0].Data, big) || string(got[1].Data) != "tiny rng state!!!" || len(got[2].Data) != 0 {
		t.Fatal("section data mismatch")
	}
}

// TestGetSectionsIntoBufferOwnership pins who owns section memory on reads: a
// read offered no buffers returns fresh ones the caller may retain (a later
// read never touches them), a read offered the sections of an earlier one
// lands in their buffers where name and size fit, and allocates where they
// do not — another name at that position, too small a buffer, no buffer.
func TestGetSectionsIntoBufferOwnership(t *testing.T) {
	s := openTemp(t)
	content := func(seed uint64) []Section {
		return []Section{
			{Name: "net", Data: noise(ckptfmt.DefaultChunkSize+100, seed)},
			{Name: "opt", Data: noise(70<<10, seed+100)},
			{Name: "lr", Data: noise(9, seed+200)},
		}
	}
	k0, k1 := Key{LoopID: "train", Exec: 0}, Key{LoopID: "train", Exec: 1}
	for i, k := range []Key{k0, k1} {
		if _, err := s.PutSections(k, content(uint64(i+1)), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	read := func(k Key, reuse []Section) []Section {
		t.Helper()
		secs, ok, err := s.GetSectionsInto(k, nil, nil, reuse)
		if err != nil || !ok {
			t.Fatalf("read %s: ok=%v err=%v", k, ok, err)
		}
		return secs
	}
	same := func(a, b []byte) bool { return &a[0] == &b[0] }
	check := func(what string, got, want []Section) {
		t.Helper()
		for i := range want {
			if got[i].Name != want[i].Name || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("%s: section %q differs from what was stored", what, want[i].Name)
			}
		}
	}

	// No buffers offered: fresh, retainable memory every time.
	first, _, err := s.GetSectionsObserved(k0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	second := read(k1, nil)
	check("retained read", first, content(1))
	check("fresh read", second, content(2))
	for i := range first {
		if same(first[i].Data, second[i].Data) {
			t.Fatalf("section %q of two unbuffered reads shares memory", first[i].Name)
		}
	}

	// The previous read's sections offered: every section lands in place.
	third := read(k1, first)
	check("read into offered buffers", third, content(2))
	for i := range third {
		if !same(third[i].Data, first[i].Data) {
			t.Fatalf("section %q was offered a fitting buffer but allocated", third[i].Name)
		}
	}

	// Misfits allocate: a renamed slot, a short buffer, a missing one.
	offered := []Section{{Name: "other", Data: third[0].Data}, {Name: "opt", Data: third[1].Data[:10:10]}}
	fourth := read(k0, offered)
	check("read past misfit buffers", fourth, content(1))
	for i := range fourth {
		if same(fourth[i].Data, third[i].Data) {
			t.Fatalf("section %q reused a buffer that does not fit it", fourth[i].Name)
		}
	}
	check("buffers not taken stay intact", third, content(2))
}

func TestGetSectionsFallsBackForOpaqueAndV1(t *testing.T) {
	s := openTemp(t)
	s.Put(Key{LoopID: "L", Exec: 0}, []byte("opaque blob"), 0, 0, 0)
	if _, ok, err := s.GetSections(Key{LoopID: "L", Exec: 0}, nil); ok || err != nil {
		t.Fatalf("opaque checkpoint: ok=%v err=%v, want fallback", ok, err)
	}

	v1, err := Open(v1Fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := v1.GetSections(Key{LoopID: "train", Exec: 0}, nil); ok || err != nil {
		t.Fatalf("v1 checkpoint: ok=%v err=%v, want fallback", ok, err)
	}
}

func TestDedupAcrossCheckpoints(t *testing.T) {
	// The frozen-layer scenario: a large unchanged section plus a small
	// mutating one. The frozen bytes must hit the pack exactly once.
	s := openTemp(t)
	frozen := noise(2*ckptfmt.DefaultChunkSize, 7)
	const epochs = 5
	var firstStored, laterStored int64
	for e := 0; e < epochs; e++ {
		m, err := s.PutSections(Key{LoopID: "train", Exec: e}, []Section{
			{Name: "net", Data: frozen},
			{Name: "step", Data: []byte(fmt.Sprintf("epoch-%d", e))},
		}, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if e == 0 {
			firstStored = m.StoredBytes
		} else {
			laterStored += m.StoredBytes
		}
	}
	if firstStored < int64(len(frozen)) {
		t.Fatalf("first checkpoint stored %d bytes, want >= %d", firstStored, len(frozen))
	}
	if laterStored >= int64(len(frozen)) {
		t.Fatalf("later checkpoints stored %d bytes; frozen section not deduped", laterStored)
	}
	d := s.Dedup()
	if d.Ratio() < 2 {
		t.Fatalf("dedup ratio = %.2f, want > 2 for %d epochs of frozen state", d.Ratio(), epochs)
	}
	// Every checkpoint still reads back correctly.
	for e := 0; e < epochs; e++ {
		secs, ok, err := s.GetSections(Key{LoopID: "train", Exec: e}, nil)
		if err != nil || !ok {
			t.Fatalf("epoch %d: ok=%v err=%v", e, ok, err)
		}
		if !bytes.Equal(secs[0].Data, frozen) || string(secs[1].Data) != fmt.Sprintf("epoch-%d", e) {
			t.Fatalf("epoch %d data mismatch", e)
		}
	}
}

func TestDedupIndexSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	frozen := noise(ckptfmt.DefaultChunkSize, 3)
	s.PutSections(Key{LoopID: "L", Exec: 0}, []Section{{Name: "net", Data: frozen}}, 0, 0, 0)
	s.PutSections(Key{LoopID: "L", Exec: 1}, []Section{{Name: "net", Data: frozen}}, 0, 0, 0)

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		secs, ok, err := s2.GetSections(Key{LoopID: "L", Exec: e}, nil)
		if err != nil || !ok || !bytes.Equal(secs[0].Data, frozen) {
			t.Fatalf("epoch %d after reopen: ok=%v err=%v", e, ok, err)
		}
	}
	if r := s2.Dedup().Ratio(); r < 1.9 {
		t.Fatalf("reopened dedup ratio = %.2f, want ~2", r)
	}
	// New writes dedup against the reopened index too.
	m, err := s2.PutSections(Key{LoopID: "L", Exec: 2}, []Section{{Name: "net", Data: frozen}}, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.StoredBytes > int64(len(frozen))/2 {
		t.Fatalf("post-reopen put stored %d bytes; index not rebuilt", m.StoredBytes)
	}
}

// TestTornManifestTailWithV2Records cuts the manifest mid-way through the
// typed chunk/meta record stream at every offset: the store must open
// cleanly and serve exactly the fully committed checkpoints.
func TestTornManifestTailWithV2Records(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	shared := noise(1024, 5)
	for i := 0; i < 3; i++ {
		s.PutSections(Key{LoopID: "L", Exec: i}, []Section{
			{Name: "net", Data: shared},
			{Name: "w", Data: noise(2048, uint64(i)+10)},
		}, 0, 0, 0)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(manifest); cut += 5 {
		cutDir := t.TempDir()
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if e.Name() == "MANIFEST" {
				continue
			}
			data, _ := os.ReadFile(filepath.Join(dir, e.Name()))
			os.WriteFile(filepath.Join(cutDir, e.Name()), data, 0o644)
		}
		os.WriteFile(filepath.Join(cutDir, "MANIFEST"), manifest[:cut], 0o644)
		sc, err := Open(cutDir)
		if err != nil {
			t.Fatalf("cut %d: open failed: %v", cut, err)
		}
		for _, m := range sc.Metas() {
			secs, ok, err := sc.GetSections(m.Key, nil)
			if err != nil || !ok {
				t.Fatalf("cut %d: committed checkpoint %s unreadable: %v", cut, m.Key, err)
			}
			if !bytes.Equal(secs[0].Data, shared) {
				t.Fatalf("cut %d: %s shared section corrupt", cut, m.Key)
			}
		}
		// The truncated store must stay writable.
		if _, err := sc.PutSections(Key{LoopID: "L", Exec: 99}, []Section{{Name: "net", Data: shared}}, 0, 0, 0); err != nil {
			t.Fatalf("cut %d: post-truncation write failed: %v", cut, err)
		}
	}
}

// TestReadIntoLeavesUnwantedSectionsAlone pins the want callback of
// Checkpoint.ReadInto: a declined section is neither fetched nor counted on
// any tier, and comes back as the caller's own entry at that position, buffer
// included, or bare-named when there is none.
func TestReadIntoLeavesUnwantedSectionsAlone(t *testing.T) {
	s := openTemp(t)
	key := Key{LoopID: "train", Exec: 0}
	stored := []Section{
		{Name: "net", Data: noise(ckptfmt.DefaultChunkSize+100, 1)}, // two chunks
		{Name: "opt", Data: noise(70<<10, 2)},
		{Name: "lr", Data: noise(9, 3)},
	}
	if _, err := s.PutSections(key, stored, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	c, err := s.Resolve(key)
	if err != nil || !c.Sectioned() {
		t.Fatalf("Resolve: sectioned=%v err=%v", c != nil && c.Sectioned(), err)
	}
	only := func(name string) func(string) bool { return func(n string) bool { return n == name } }

	var fs FetchStats
	first, err := c.ReadInto(only("opt"), nil, &fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 || !bytes.Equal(first[1].Data, stored[1].Data) || first[1].RawLen != len(stored[1].Data) {
		t.Fatalf("wanted section opt not read back as stored: %d sections", len(first))
	}
	for _, i := range []int{0, 2} {
		if first[i].Name != stored[i].Name || first[i].Data != nil || first[i].RawLen != 0 || first[i].Hash != (ckptfmt.Hash{}) {
			t.Fatalf("declined section %q came back as %+v, want its bare name", stored[i].Name, first[i])
		}
	}
	if got := fs.Snapshot().TotalFrames(); got != 1 {
		t.Fatalf("reading opt alone counted %d frames, want its 1", got)
	}

	// The caller's entries for declined sections pass through untouched.
	second, err := c.ReadInto(only("net"), nil, &fs, first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second[0].Data, stored[0].Data) || &second[1].Data[0] != &first[1].Data[0] || second[2].Data != nil {
		t.Fatal("reading net with opt's buffer offered: net differs, or opt's entry was not passed through")
	}
	if got := fs.Snapshot().TotalFrames(); got != 3 {
		t.Fatalf("reading opt, then net, counted %d frames, want 1 + 2", got)
	}
}

// TestFlippedPackByteSurfacesErrCorrupt flips every byte of the chunk pack
// in turn; reads of the affected checkpoint must fail with codec.ErrCorrupt
// rather than return garbage state — also when the read lands in buffers the
// caller offered for reuse, which a failed read may scribble on but must
// never hand back as sections.
func TestFlippedPackByteSurfacesErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := Key{LoopID: "L", Exec: 0}
	want := noise(512, 2)
	s.PutSections(key, []Section{{Name: "w", Data: want}}, 0, 0, 0)
	reuse, ok, err := s.GetSections(key, nil)
	if err != nil || !ok {
		t.Fatalf("intact read: ok=%v err=%v", ok, err)
	}
	packPath := filepath.Join(dir, "CHUNKS")
	pack, err := os.ReadFile(packPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pack {
		mut := bytes.Clone(pack)
		mut[i] ^= 0xff
		os.WriteFile(packPath, mut, 0o644)
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("byte %d: open failed: %v", i, err)
		}
		if _, _, err := s2.GetSections(key, nil); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("byte %d: error %v is not codec.ErrCorrupt", i, err)
		}
		if secs, _, err := s2.GetSectionsInto(key, nil, nil, reuse); !errors.Is(err, codec.ErrCorrupt) || secs != nil {
			t.Fatalf("byte %d, into reused buffers: %d sections, error %v; want none and codec.ErrCorrupt", i, len(secs), err)
		}
	}
	os.WriteFile(packPath, pack, 0o644)
	// The same buffers serve the next intact read.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s3.GetSectionsInto(key, nil, nil, reuse)
	if err != nil || !ok || !bytes.Equal(got[0].Data, want) {
		t.Fatalf("intact read into reused buffers: ok=%v err=%v", ok, err)
	}
	if &got[0].Data[0] != &reuse[0].Data[0] {
		t.Fatal("a fitting buffer was offered but the read allocated a new one")
	}
}

func TestFlippedSegmentDirectoryByteDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := Key{LoopID: "L", Exec: 0}
	m, _ := s.PutSections(key, []Section{{Name: "w", Data: noise(256, 4)}}, 0, 0, 0)
	segPath := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.bin", m.Seq))
	seg, _ := os.ReadFile(segPath)
	for i := range seg {
		mut := bytes.Clone(seg)
		mut[i] ^= 0xff
		os.WriteFile(segPath, mut, 0o644)
		if _, _, err := s.GetSections(key, nil); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("byte %d: error %v is not codec.ErrCorrupt", i, err)
		}
	}
	os.WriteFile(segPath, seg, 0o644)
}

// v1Fixture copies the repository's committed legacy run (testdata/v1run at
// the root: six "train" checkpoints recorded by the last build that could
// write format v1) into a fresh directory. No build writes v1 any more, so
// these bytes are what v1 compatibility means.
func v1Fixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "..", "testdata", "v1run"))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// dirBytes reads every file directly under dir, keyed by name.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

// TestV1StoreReadableAndRefusesWrites pins backward compatibility: a run
// directory recorded in format v1 (no FORMAT marker) opens as v1 without
// being asked to, serves its checkpoints, and is read-only — every write
// fails with ErrReadOnly and no open or refused write touches a byte of it.
func TestV1StoreReadableAndRefusesWrites(t *testing.T) {
	dir := v1Fixture(t)
	before := dirBytes(t, dir)

	if l, err := DetectLayout(dir); err != nil || l.String() != "v1" {
		t.Fatalf("DetectLayout = %s, %v, want v1", l, err)
	}
	s, err := Open(dir) // a plain writable open must pick v1, read-only
	if err != nil {
		t.Fatal(err)
	}
	if l := s.Layout(); l.Format != FormatV1 || !s.ReadOnly() {
		t.Fatalf("opened as %s, read-only=%v; want v1, read-only", l, s.ReadOnly())
	}
	if len(s.Metas()) != 6 {
		t.Fatalf("v1 run lists %d checkpoints, want 6", len(s.Metas()))
	}
	key := Key{LoopID: "train", Exec: 0}
	seg, _ := os.ReadFile(filepath.Join(dir, "ckpt-00000000.bin"))
	want, _, err := codec.Unframe(seg)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(key); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("v1 read failed: %v", err)
	}
	if _, ok, err := s.GetSections(key, nil); ok || err != nil {
		t.Fatalf("v1 GetSections: ok=%v err=%v, want the ok=false fallback", ok, err)
	}

	if _, err := s.Put(Key{LoopID: "train", Exec: 6}, []byte("more"), 0, 0, 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put on a v1 store: %v, want ErrReadOnly", err)
	}
	if _, err := s.PutSections(Key{LoopID: "train", Exec: 6}, []Section{{Name: "w", Data: []byte("more")}}, 0, 0, 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("PutSections on a v1 store: %v, want ErrReadOnly", err)
	}
	if _, err := s.Spool(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Spool on a v1 store: %v, want ErrReadOnly", err)
	}
	if _, err := s.GC(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("GC on a v1 store: %v, want ErrReadOnly", err)
	}
	if after := dirBytes(t, dir); !maps.Equal(before, after) {
		t.Fatal("opening a v1 run and refusing its writes changed the directory")
	}
}

// TestFormatMismatchRefusedWithoutDataLoss pins the open guard: write-layout
// options that disagree with a recorded directory's format (sharding or
// pooling a legacy v1 run) and a FORMAT marker this build does not know must
// error out, never misparse the manifest as a torn tail and truncate the run
// away.
func TestFormatMismatchRefusedWithoutDataLoss(t *testing.T) {
	v1dir := v1Fixture(t)
	before := dirBytes(t, v1dir)
	if _, err := OpenWith(v1dir, Options{ShardFanout: 4}); err == nil {
		t.Fatal("sharding a v1 directory succeeded")
	}
	if _, err := OpenWith(v1dir, Options{Pool: filepath.Join(t.TempDir(), "POOL")}); err == nil {
		t.Fatal("attaching a v1 directory to a pool succeeded")
	}
	if after := dirBytes(t, v1dir); !maps.Equal(before, after) {
		t.Fatal("refused opens changed the v1 directory")
	}

	// An unknown FORMAT marker (a future layout) must refuse, not truncate.
	dir := t.TempDir()
	s, _ := Open(dir)
	key := Key{LoopID: "L", Exec: 0}
	s.Put(key, []byte("precious"), 0, 0, 0)
	os.WriteFile(filepath.Join(dir, "FORMAT"), []byte("3\n"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("unknown format marker opened")
	}
	os.WriteFile(filepath.Join(dir, "FORMAT"), []byte("2\n"), 0o644)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(key); err != nil || string(got) != "precious" {
		t.Fatalf("data lost after refused mismatched open: %q, %v", got, err)
	}
}

func TestNewStoresDefaultToV2(t *testing.T) {
	s := openTemp(t)
	if l := s.Layout(); l.Format != FormatV2 || s.ReadOnly() {
		t.Fatalf("new store opened as %s, read-only=%v; want writable v2", l, s.ReadOnly())
	}
	m, _ := s.Put(Key{LoopID: "L", Exec: 0}, []byte("x"), 0, 0, 0)
	if m.Format != FormatV2 {
		t.Fatalf("meta format = %d, want v2", m.Format)
	}
}

func TestGCKeepsSharedChunksReadable(t *testing.T) {
	s := openTemp(t)
	key := Key{LoopID: "train", Exec: 0}
	shared := noise(2048, 12)
	s.PutSections(key, []Section{{Name: "net", Data: shared}}, 0, 0, 0)
	s.PutSections(key, []Section{{Name: "net", Data: shared}}, 0, 0, 0) // supersedes; same content
	removed, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("GC removed %d segments, want 1", removed)
	}
	secs, ok, err := s.GetSections(key, nil)
	if err != nil || !ok || !bytes.Equal(secs[0].Data, shared) {
		t.Fatalf("latest checkpoint unreadable after GC: %v", err)
	}
}

// TestPackBytesAreFreshFramesInDirectoryOrder pins what the append routine
// writes, whatever it stages the bytes in: a shard's pack is the
// concatenation of Frame.Marshal() over the chunks that were fresh when their
// checkpoint was put, in directory order, checkpoint after checkpoint —
// frozen content once, compressible content in its compressed style — for the
// single pack and for a sharded one.
func TestPackBytesAreFreshFramesInDirectoryOrder(t *testing.T) {
	frozen := noise(2*ckptfmt.DefaultChunkSize+77, 1)
	checkpoints := make([][]Section, 6)
	for e := range checkpoints {
		checkpoints[e] = []Section{
			{Name: "frozen", Data: frozen},
			{Name: "hot", Data: noise(3*ckptfmt.DefaultChunkSize, uint64(100+e))},
			{Name: "zeros", Data: make([]byte, 4096+e)}, // deflates under the automatic style
			{Name: "lr", Data: noise(9, uint64(200+e))},
			{Name: "empty"},
		}
	}
	for _, fanout := range []int{1, 4} {
		s, dir := openSharded(t, fanout)
		want := map[int][]byte{} // shard -> expected pack bytes
		seen := map[ckptfmt.Hash]bool{}
		for e, secs := range checkpoints {
			if _, err := s.PutSections(Key{LoopID: "train", Exec: e}, secs, 0, 0, 0); err != nil {
				t.Fatal(err)
			}
			for _, sec := range secs {
				for _, chunk := range codec.SplitChunks(sec.Data, ckptfmt.DefaultChunkSize) {
					f := ckptfmt.Build(chunk)
					if seen[f.Hash] {
						continue
					}
					seen[f.Hash] = true
					shard := int(f.Hash[0]) & (fanout - 1)
					want[shard] = append(want[shard], f.Marshal()...)
				}
			}
		}
		styles := map[byte]bool{}
		for shard, sh := range s.pool.shardTab {
			got, err := os.ReadFile(filepath.Join(dir, sh.name))
			if err != nil && len(want[shard]) > 0 {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[shard]) {
				t.Fatalf("fanout %d: pack %s holds %d bytes that are not its fresh frames in directory order (%d bytes)",
					fanout, sh.name, len(got), len(want[shard]))
			}
			for off := 0; off < len(got); {
				f, n, err := ckptfmt.Parse(got[off:])
				if err != nil {
					t.Fatal(err)
				}
				styles[f.Style] = true
				off += n
			}
		}
		if !styles[ckptfmt.StyleRaw] || !styles[ckptfmt.StyleDeflate] {
			t.Fatalf("fanout %d: packs hold styles %v, want raw and deflate frames both", fanout, styles)
		}
	}
}
