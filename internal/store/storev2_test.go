package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
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
	got, err := ReadAll(s, key, nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 3 || got[0].Name != "net" || got[1].Name != "rng" || got[2].Name != "empty" {
		t.Fatalf("sections = %+v", got)
	}
	if !bytes.Equal(got[0].Data, big) || string(got[1].Data) != "tiny rng state!!!" || len(got[2].Data) != 0 {
		t.Fatal("section data mismatch")
	}
}

// laidOut returns an into callback for Checkpoint.ReadInto that lays every
// section over fresh memory cut into pieces at cut's offsets (clamped to the
// section, empty pieces included), and the memory of each section it laid
// out, by name.
func laidOut(cut ...int) (func(string, int) [][]byte, map[string][]byte) {
	mem := map[string][]byte{}
	return func(name string, n int) [][]byte {
		buf := make([]byte, n)
		mem[name] = buf
		var pieces [][]byte
		at := 0
		for _, c := range cut {
			c = min(max(c, at), n)
			pieces = append(pieces, buf[at:c])
			at = c
		}
		return append(pieces, buf[at:])
	}, mem
}

// TestReadIntoDestinationOwnership pins who owns section memory on reads: a
// read with no destination returns fresh buffers the caller may retain (a
// later read never touches them); a read whose into callback lays a section
// out lands every byte in those pieces — cut anywhere, across chunk
// boundaries, empty pieces included — and returns that section with nil
// Data; a section into declines gets a fresh buffer; and pieces that do not
// tile the section are an error, not a short or overlong read.
func TestReadIntoDestinationOwnership(t *testing.T) {
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
	resolve := func(k Key) *Checkpoint {
		t.Helper()
		c, err := s.Resolve(k)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// No destination: fresh, retainable memory every time.
	first, _, err := s.GetSectionsObserved(k0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := resolve(k1).ReadInto(nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range content(1) {
		if !bytes.Equal(first[i].Data, want.Data) || !bytes.Equal(second[i].Data, content(2)[i].Data) {
			t.Fatalf("section %q differs from what was stored", want.Name)
		}
		if &first[i].Data[0] == &second[i].Data[0] {
			t.Fatalf("section %q of two unbuffered reads shares memory", want.Name)
		}
	}

	// Laid out: every byte lands in the caller's pieces, one boundary just
	// before the chunk edge, one on it, one inside the second chunk.
	edge := ckptfmt.DefaultChunkSize
	into, mem := laidOut(0, 5, 5, edge-3, edge, edge+50)
	third, err := resolve(k1).ReadInto(nil, nil, nil, into)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range content(2) {
		if third[i].Data != nil || third[i].RawLen != len(want.Data) || !bytes.Equal(mem[want.Name], want.Data) {
			t.Fatalf("section %q laid out: Data %d bytes, RawLen %d; pieces hold what was stored: %v",
				want.Name, len(third[i].Data), third[i].RawLen, bytes.Equal(mem[want.Name], want.Data))
		}
	}
	check := func(what string, got []Section, want []Section) {
		t.Helper()
		for i := range want {
			if !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("%s: section %q differs from what was stored", what, want[i].Name)
			}
		}
	}
	check("retained read after a laid-out one", first, content(1))

	// A section into declines gets a buffer; one it lays out short fails.
	declined, err := resolve(k0).ReadInto(nil, nil, nil, func(name string, n int) [][]byte {
		if name == "opt" {
			return nil
		}
		return [][]byte{make([]byte, n)}
	})
	if err != nil || declined[1].Data == nil || !bytes.Equal(declined[1].Data, content(1)[1].Data) || declined[0].Data != nil {
		t.Fatalf("into declining opt: err %v, opt Data %d bytes, net Data %d bytes", err, len(declined[1].Data), len(declined[0].Data))
	}
	for _, delta := range []int{-1, 1} {
		secs, err := resolve(k0).ReadInto(nil, nil, nil, func(name string, n int) [][]byte { return [][]byte{make([]byte, n+delta)} })
		if err == nil || secs != nil {
			t.Fatalf("pieces of %+d bytes against the section: %d sections, err %v", delta, len(secs), err)
		}
	}
}

// TestOpaqueDirectoryFailsResolveAndGC pins what became of the opaque
// checkpoints older builds wrote (a directory whose flag byte is 1): such a
// meta record stays indexed with codec.ErrCorrupt, Resolve returns it, GC
// fails closed on it without touching a file, and its neighbours still read.
func TestOpaqueDirectoryFailsResolveAndGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, opaque := Key{LoopID: "L", Exec: 0}, Key{LoopID: "blob", Exec: 0}
	for _, k := range []Key{good, opaque} {
		if _, err := s.PutSections(k, []Section{{Data: []byte("blob of " + k.LoopID)}}, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	raw, recs := manifestRecords(t, dir)
	for i, rec := range recs {
		if rec.tag == recMeta && rec.e.Key == opaque {
			body := encodeMeta(rec.e)
			body[len(body)-len(ckptfmt.EncodeDirectory(rec.e.dir))+1+len("FLV2")] = 1 // the flag byte
			raw[i] = frameTagged(recMeta, body)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), bytes.Join(raw, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(opaque) {
		t.Fatal("the opaque checkpoint's record was dropped, not indexed with its error")
	}
	if _, err := s2.Resolve(opaque); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("Resolve of an opaque directory: %v, want codec.ErrCorrupt", err)
	}
	if got, err := getBlob(s2, good); err != nil || string(got) != "blob of L" {
		t.Fatalf("neighbour of an opaque directory: %q, %v", got, err)
	}
	before := dirBytes(t, dir)
	if _, err := s2.GC(); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("GC over an opaque directory: %v, want codec.ErrCorrupt", err)
	}
	if after := dirBytes(t, dir); !maps.Equal(before, after) {
		t.Fatal("the refused GC changed the run directory")
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
		secs, err := ReadAll(s, Key{LoopID: "train", Exec: e}, nil)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
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
		secs, err := ReadAll(s2, Key{LoopID: "L", Exec: e}, nil)
		if err != nil || !bytes.Equal(secs[0].Data, frozen) {
			t.Fatalf("epoch %d after reopen: %v", e, err)
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
			secs, err := ReadAll(sc, m.Key, nil)
			if err != nil {
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
	if err != nil {
		t.Fatalf("Resolve: %v", err)
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

	// A second call for net alone declines what the first read, and the
	// first call's buffer is the caller's, untouched.
	second, err := c.ReadInto(only("net"), nil, &fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second[0].Data, stored[0].Data) || second[1].Data != nil || second[1].RawLen != 0 || second[2].Data != nil {
		t.Fatal("reading net alone: net differs, or a declined section came back with more than its name")
	}
	if !bytes.Equal(first[1].Data, stored[1].Data) {
		t.Fatal("the first read's buffer changed under a second read")
	}
	if got := fs.Snapshot().TotalFrames(); got != 3 {
		t.Fatalf("reading opt, then net, counted %d frames, want 1 + 2", got)
	}
}

// TestSectionIdentityComesFromTheDirectory pins Checkpoint.Section: the
// identity and length ReadInto reports for a section, read from the segment
// directory without fetching or counting a frame, and nothing for a name the
// checkpoint does not carry.
func TestSectionIdentityComesFromTheDirectory(t *testing.T) {
	s := openTemp(t)
	key := Key{LoopID: "train", Exec: 0}
	stored := []Section{
		{Name: "net", Data: noise(ckptfmt.DefaultChunkSize+100, 1)}, // two chunks
		{Name: "lr", Data: noise(9, 3)},
	}
	if _, err := s.PutSections(key, stored, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	c, err := s.Resolve(key)
	if err != nil {
		t.Fatal(err)
	}
	var fs FetchStats
	read, err := c.ReadInto(nil, nil, &fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := fs.Snapshot().TotalFrames()
	for _, r := range read {
		sec, ok := c.Section(r.Name)
		if !ok || sec.Name != r.Name || sec.Hash != r.Hash || sec.RawLen != r.RawLen || sec.Data != nil {
			t.Fatalf("Section(%q) = %+v, %v; ReadInto reported hash %x, length %d", r.Name, sec, ok, r.Hash, r.RawLen)
		}
	}
	if _, ok := c.Section("opt"); ok {
		t.Fatal("Section found a name the checkpoint does not carry")
	}
	if got := fs.Snapshot().TotalFrames(); got != frames {
		t.Fatalf("Section counted %d frames", got-frames)
	}
}

// TestFlippedPackByteSurfacesErrCorrupt flips every byte of the chunk pack
// in turn; reads of the affected checkpoint must fail with codec.ErrCorrupt
// rather than return garbage state — also when the read lands in pieces the
// caller laid the section out over, which a failed read may scribble on but
// must never report as read. No snapshot covers the pack, so each open
// scans it: a writable open either refuses the corrupt frame or, where the
// flip leaves what reads as a torn tail, opens; neither changes a byte. The
// reads go through a read-only open, which serves every pack.
func TestFlippedPackByteSurfacesErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := Key{LoopID: "L", Exec: 0}
	want := noise(512, 2)
	s.PutSections(key, []Section{{Name: "w", Data: want}}, 0, 0, 0)
	if _, err := ReadAll(s, key, nil); err != nil {
		t.Fatalf("intact read: %v", err)
	}
	laidOutRead := func(s *Store) ([]Section, []byte, error) {
		c, err := s.Resolve(key)
		if err != nil {
			return nil, nil, err
		}
		into, mem := laidOut(3, 3, 200, 511)
		secs, err := c.ReadInto(nil, nil, nil, into)
		return secs, mem["w"], err
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
		if _, err := Open(dir); err != nil && !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("byte %d: writable open: %v, want success or codec.ErrCorrupt", i, err)
		}
		if now, err := os.ReadFile(packPath); err != nil || !bytes.Equal(now, mut) {
			t.Fatalf("byte %d: a writable open changed the pack (%v)", i, err)
		}
		s2, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatalf("byte %d: open failed: %v", i, err)
		}
		if _, err := ReadAll(s2, key, nil); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("byte %d: error %v is not codec.ErrCorrupt", i, err)
		}
		if secs, _, err := laidOutRead(s2); !errors.Is(err, codec.ErrCorrupt) || secs != nil {
			t.Fatalf("byte %d, laid out in pieces: %d sections, error %v; want none and codec.ErrCorrupt", i, len(secs), err)
		}
	}
	os.WriteFile(packPath, pack, 0o644)
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := laidOutRead(s3); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("intact read laid out in pieces: err=%v", err)
	}
}

// TestFlippedSegmentDirectoryByteDetected pins the CRC of a legacy segment
// directory on a copy of the committed gztwins store: whichever byte of the
// file is flipped, ReadLegacy fails with codec.ErrCorrupt.
func TestFlippedSegmentDirectoryByteDetected(t *testing.T) {
	dir := legacyFixture(t, "gztwins")
	segPath := filepath.Join(dir, "ckpt-00000000.bin")
	seg, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seg {
		mut := bytes.Clone(seg)
		mut[i] ^= 0xff
		if err := os.WriteFile(segPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readLegacy(dir); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("byte %d: error %v is not codec.ErrCorrupt", i, err)
		}
	}
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

// dirBytes reads every file under dir, keyed by its path relative to dir.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestV1StoreReadableAndRefusesWrites pins what becomes of a run directory
// recorded in format v1 (no FORMAT marker): DetectLayout, a writable open
// and a read-only one each fail with ErrLegacyLayout naming florctl
// migrate, ReadLegacy reads its six checkpoints, and none of it touches a
// byte. (legacy_test.go pins what ReadLegacy returns.)
func TestV1StoreReadableAndRefusesWrites(t *testing.T) {
	dir := v1Fixture(t)
	before := dirBytes(t, dir)
	legacy := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrLegacyLayout) || !strings.Contains(err.Error(), "florctl migrate") {
			t.Fatalf("%s of a v1 run: %v, want ErrLegacyLayout naming florctl migrate", what, err)
		}
	}
	legacy("DetectLayout", DetectLayout(dir))
	_, err := Open(dir)
	legacy("writable open", err)
	_, err = OpenReadOnly(dir)
	legacy("read-only open", err)
	got, _, err := readLegacy(dir)
	if err != nil || len(got) != 6 {
		t.Fatalf("ReadLegacy: %d checkpoints, %v; want 6", len(got), err)
	}
	for key, secs := range got {
		if len(secs) != 2 || secs[0].Name != "rng" || secs[1].Name != "w" {
			t.Fatalf("v1 read of %s: %d sections; want rng and w", key, len(secs))
		}
	}
	if after := dirBytes(t, dir); !maps.Equal(before, after) {
		t.Fatal("refusing a v1 run's opens and reading it changed the directory")
	}
}

// TestFormatMismatchRefusedWithoutDataLoss pins the open guard: write-layout
// options that disagree with a recorded directory's format (pooling a legacy
// v1 run) and a FORMAT marker this build does not know must
// error out, never misparse the manifest as a torn tail and truncate the run
// away.
func TestFormatMismatchRefusedWithoutDataLoss(t *testing.T) {
	v1dir := v1Fixture(t)
	before := dirBytes(t, v1dir)
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
	putBlob(s, key, []byte("precious"), 0, 0, 0)
	os.WriteFile(filepath.Join(dir, "FORMAT"), []byte("3\n"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("unknown format marker opened")
	}
	os.WriteFile(filepath.Join(dir, "FORMAT"), []byte(formatMarker), 0o644)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := getBlob(s2, key); err != nil || string(got) != "precious" {
		t.Fatalf("data lost after refused mismatched open: %q, %v", got, err)
	}
}

func TestNewStoresDefaultToV2(t *testing.T) {
	s := openTemp(t)
	if s.Pooled() || s.ReadOnly() {
		t.Fatalf("new store opened pooled=%v, read-only=%v; want a writable v2 store that is its own pool", s.Pooled(), s.ReadOnly())
	}
	m, _ := putBlob(s, Key{LoopID: "L", Exec: 0}, []byte("x"), 0, 0, 0)
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
	secs, err := ReadAll(s, key, nil)
	if err != nil || !bytes.Equal(secs[0].Data, shared) {
		t.Fatalf("latest checkpoint unreadable after GC: %v", err)
	}
}

// TestPackBytesAreFreshFramesInDirectoryOrder pins what the append routine
// writes, whatever it stages the bytes in: the pack is the concatenation of
// the raw frames (BuildHashed) of the chunks that were fresh when their
// checkpoint was put, in directory order, checkpoint after checkpoint —
// frozen content once, and compressible content raw like the rest — for a
// private store's pack and a pool's alike.
func TestPackBytesAreFreshFramesInDirectoryOrder(t *testing.T) {
	frozen := noise(2*ckptfmt.DefaultChunkSize+77, 1)
	checkpoints := make([][]Section, 6)
	for e := range checkpoints {
		checkpoints[e] = []Section{
			{Name: "frozen", Data: frozen},
			{Name: "hot", Data: noise(3*ckptfmt.DefaultChunkSize, uint64(100+e))},
			{Name: "zeros", Data: make([]byte, 4096+e)}, // compressible, written raw all the same
			{Name: "lr", Data: noise(9, uint64(200+e))},
			{Name: "empty"},
		}
	}
	for _, layout := range []struct {
		name string
		open func() (s *Store, packDir string)
	}{
		{"private", func() (*Store, string) {
			dir := t.TempDir()
			return mustOpen(t, dir), dir
		}},
		{"pooled", func() (*Store, string) {
			base := t.TempDir()
			pool := filepath.Join(base, "POOL")
			return openPooled(t, filepath.Join(base, "run"), pool), pool
		}},
	} {
		s, dir := layout.open()
		var want []byte
		seen := map[ckptfmt.Hash]bool{}
		for e, secs := range checkpoints {
			if _, err := s.PutSections(Key{LoopID: "train", Exec: e}, secs, 0, 0, 0); err != nil {
				t.Fatal(err)
			}
			for _, sec := range secs {
				for _, chunk := range codec.SplitChunks(sec.Data, ckptfmt.DefaultChunkSize) {
					f := ckptfmt.BuildHashed(chunk, ckptfmt.HashChunk(chunk))
					if seen[f.Hash] {
						continue
					}
					seen[f.Hash] = true
					want = append(want, f.Marshal()...)
				}
			}
		}
		got, err := os.ReadFile(filepath.Join(dir, packFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: pack holds %d bytes that are not its fresh chunks' raw frames in directory order (%d bytes)",
				layout.name, len(got), len(want))
		}
		for off := 0; off < len(got); {
			f, n, err := ckptfmt.Parse(got[off:])
			if err != nil {
				t.Fatal(err)
			}
			if f.Style != ckptfmt.StyleRaw {
				t.Fatalf("%s: pack holds a frame of style %d at offset %d; every frame a store writes is raw", layout.name, f.Style, off)
			}
			off += n
		}
	}
}
