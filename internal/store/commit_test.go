package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"flor.dev/flor/internal/ckptfmt"
)

// errInjected is the write failure the tests below substitute.
var errInjected = errors.New("injected write failure")

// commitRun returns, for a run at <base>/run on one of the two writer
// layouts, the options a writable open takes and the INDEX snapshot of its
// chunks: the run's own for a private store, the pool's at <base>/POOL for
// a pooled run.
func commitRun(base string, pooled bool) (dir string, o Options, index string) {
	dir = filepath.Join(base, "run")
	index = filepath.Join(dir, poolIndexFile)
	if pooled {
		o = Options{Pool: filepath.Join(base, "POOL")}
		index = filepath.Join(base, "POOL", poolIndexFile)
	}
	return dir, o, index
}

// failLog makes every append to a log named name (the MANIFEST) write the
// first n bytes of its record and fail; with latch it also closes the
// file first, so that cutting the append back fails too. The returned func
// puts the real writer back.
func failLog(t *testing.T, name string, n int, latch bool) (restore func()) {
	real := writeLog
	restore = func() { writeLog = real }
	t.Cleanup(restore)
	writeLog = func(f *os.File, b []byte) (int, error) {
		if filepath.Base(f.Name()) != name {
			return real(f, b)
		}
		w, _ := real(f, b[:min(n, len(b))])
		if latch {
			f.Close()
		}
		return w, errInjected
	}
	return restore
}

// putOne puts one fresh section under key.
func putOne(s *Store, key Key, seed uint64) error {
	_, err := s.PutSections(key, []Section{{Name: "w", Data: noise(4096, seed)}}, 0, 0, 0)
	return err
}

// holdsExactly fails the test unless the store's committed keys are want,
// each reading back the section putOne put under the given seed, the
// MANIFEST has no torn tail and the INDEX snapshot, if any, decodes whole.
func holdsExactly(t *testing.T, what string, s *Store, index string, want map[Key]uint64) {
	t.Helper()
	var keys []Key
	for _, m := range s.Metas() {
		keys = append(keys, m.Key)
	}
	if len(keys) != len(want) {
		t.Fatalf("%s: committed %v, want %d keys", what, keys, len(want))
	}
	for key, seed := range want {
		secs, err := ReadAll(s, key, nil)
		if err != nil || !bytes.Equal(secs[0].Data, noise(4096, seed)) {
			t.Fatalf("%s: %s reads back wrong: %v", what, key, err)
		}
	}
	if _, torn, err := scanLog(s.manifest.path, decodeManifestRecord, func(manifestRecord) error { return nil }); err != nil || torn {
		t.Fatalf("%s: MANIFEST torn=%v, %v", what, torn, err)
	}
	raw, err := os.ReadFile(index)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); {
		_, n, err := decodeManifestRecord(raw[off:])
		if err != nil {
			t.Fatalf("%s: INDEX torn at byte %d of %d", what, off, len(raw))
		}
		off += n
	}
}

// TestFailedAppendLeavesNoTornRecord pins the append of the one log a put
// appends to, the MANIFEST, on both writer layouts. A write that fails
// part-way through its record fails the put and is cut back, so the next
// put appends a record that replays: after a reopen, every put that
// returned success is there. When the cut fails too, the log is latched
// broken — every later put fails instead of landing behind the torn bytes —
// and a reopen truncates the torn tail and shows exactly what committed
// before it.
func TestFailedAppendLeavesNoTornRecord(t *testing.T) {
	k0, k1, k2 := Key{LoopID: "train", Exec: 0}, Key{LoopID: "train", Exec: 1}, Key{LoopID: "train", Exec: 2}
	for _, pooled := range []bool{false, true} {
		for _, log := range []string{manifestFile} {
			for _, latch := range []bool{false, true} {
				what := func(step string) string {
					return strings.Join([]string{map[bool]string{false: "private", true: "pooled"}[pooled], log, map[bool]string{false: "cut back", true: "latched"}[latch], step}, ", ")
				}
				dir, o, index := commitRun(t.TempDir(), pooled)
				s, err := OpenWith(dir, o)
				if err != nil {
					t.Fatal(err)
				}
				if err := putOne(s, k0, 1); err != nil {
					t.Fatal(err)
				}
				restore := failLog(t, log, 3, latch)
				if err := putOne(s, k1, 2); !errors.Is(err, errInjected) {
					t.Fatalf("%s: %v, want the injected failure", what("put through the failing writer"), err)
				}
				restore()
				err = putOne(s, k1, 3)
				want := map[Key]uint64{k0: 1}
				if latch {
					if err == nil || !strings.Contains(err.Error(), "unusable after a failed append") {
						t.Fatalf("%s: %v, want the log latched broken", what("put after a failed cut"), err)
					}
				} else {
					if err != nil || !s.Has(k1) {
						t.Fatalf("%s: %v", what("put after a cut-back failure"), err)
					}
					want[k1] = 3
					holdsExactly(t, what("same store"), s, index, want)
				}
				s, err = OpenWith(dir, o)
				if err != nil {
					t.Fatal(err)
				}
				holdsExactly(t, what("reopened"), s, index, want)
				if err := putOne(s, k2, 4); err != nil {
					t.Fatalf("%s: %v", what("put after reopen"), err)
				}
				want[k2] = 4
				ro, err := OpenReadOnly(dir)
				if err != nil {
					t.Fatal(err)
				}
				holdsExactly(t, what("read-only"), ro, index, want)
			}
		}
	}
}

// packBytes sums the sizes of the pack objects under root.
func packBytes(t *testing.T, root string) int64 {
	t.Helper()
	packs, _ := filepath.Glob(filepath.Join(root, packFile+"*"))
	var n int64
	for _, p := range packs {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n += st.Size()
	}
	return n
}

// frameAt parses the frame at off in the pack obj of the pool under dir
// (a run directory or a pool root).
func frameAt(t *testing.T, dir, obj string, off int64) (ckptfmt.Frame, int) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, obj))
	if err != nil || off > int64(len(raw)) {
		t.Fatalf("pack %s: %d bytes, %v; want a frame at %d", obj, len(raw), err, off)
	}
	f, n, err := ckptfmt.Parse(raw[off:])
	if err != nil {
		t.Fatalf("pack %s at %d: %v", obj, off, err)
	}
	return f, n
}

// TestCrashCutPutKeepsCommittedPrefix cuts a put, on both writer layouts, at
// the two points of the one commit order — after its pack append ("pack"),
// and, once a snapshot was written, inside it, mid-frame ("torn") — and takes
// the run through a crash: the in-process pool is dropped and the run
// reopened. Each time, a read-only and a writable reopen hold exactly the
// committed prefix; a resumed put appends, and it and the prefix read back
// after another reopen, in the held store after the next GC pass and after a
// reopen past it; and that pass reclaims the cut put's whole frames, which
// the packs' scan adopted as chunks no checkpoint names
// (GCResult.DeadChunks). The torn put has three chunks, the last being the
// one the resumed put stores, and that last frame is cut in half; the
// resumed put's frame lands where the torn bytes were: the writer cut them
// before it appended.
func TestCrashCutPutKeepsCommittedPrefix(t *testing.T) {
	k0, k1 := Key{LoopID: "train", Exec: 0}, Key{LoopID: "train", Exec: 1}
	resumedChunk := noise(4096, 12)
	torn := ckptfmt.HashChunk(resumedChunk)
	for _, pooled := range []bool{false, true} {
		for _, cut := range []string{"pack", "torn"} {
			what := func(step string) string {
				return map[bool]string{false: "private", true: "pooled"}[pooled] + ", cut " + cut + ", " + step
			}
			base := t.TempDir()
			dir, o, index := commitRun(base, pooled)
			packs := dir
			if pooled {
				packs = o.Pool
			}
			s, err := OpenWith(dir, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := putOne(s, k0, 10); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteIndex(); err != nil {
				t.Fatal(err)
			}
			before := packBytes(t, packs)
			restore := failLog(t, manifestFile, 0, false)
			cutPut := noise(4096, 11)
			if cut == "torn" {
				cutPut = append(noise(2*ckptfmt.DefaultChunkSize, 13), resumedChunk...)
			}
			if _, err := s.PutSections(k1, []Section{{Name: "w", Data: cutPut}}, 0, 0, 0); !errors.Is(err, errInjected) {
				t.Fatalf("%s: %v, want the cut", what("put"), err)
			}
			restore()
			whole := packBytes(t, packs) - before // the cut put's whole frames
			tornObj := packFile
			var tornAt int64
			if cut == "torn" {
				fi, err := os.Stat(filepath.Join(packs, tornObj))
				if err != nil {
					t.Fatal(err)
				}
				wire := int64(ckptfmt.RawWireLen(len(resumedChunk)))
				tornAt = fi.Size() - wire // the last frame this put appended
				if err := os.Truncate(filepath.Join(packs, tornObj), tornAt+wire/2); err != nil {
					t.Fatal(err)
				}
				whole -= wire
			}

			prefix := map[Key]uint64{k0: 10}
			ro, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			holdsExactly(t, what("read-only reopen"), ro, index, prefix)
			s, err = OpenWith(dir, o)
			if err != nil {
				t.Fatal(err)
			}
			holdsExactly(t, what("writable reopen"), s, index, prefix)
			if err := putOne(s, k1, 12); err != nil {
				t.Fatalf("%s: %v", what("resumed put"), err)
			}
			if cut == "torn" {
				if f, _ := frameAt(t, packs, tornObj, tornAt); f.Hash != torn {
					t.Fatalf("%s: the frame at %d of %s holds %s, want the resumed %s", what("resumed put"), tornAt, tornObj, f.Hash, torn)
				}
			}
			resumed := map[Key]uint64{k0: 10, k1: 12}
			if s, err = OpenWith(dir, o); err != nil {
				t.Fatal(err)
			}
			holdsExactly(t, what("reopen after the resumed put"), s, index, resumed)

			var res GCResult
			if pooled {
				res, err = GCPool(o.Pool, GCOptions{PackRetention: time.Hour})
			} else {
				res, err = s.GCWith(GCOptions{PackRetention: time.Hour})
			}
			if err != nil {
				t.Fatalf("%s: %v", what("gc"), err)
			}
			if dead := map[string]int{"pack": 1, "torn": 2}[cut]; res.DeadChunks != dead || res.ReclaimedBytes != whole {
				t.Fatalf("%s: %+v, want the cut put's %d whole frames, %d bytes, reclaimed", what("gc"), res, dead, whole)
			}
			holdsExactly(t, what("after gc"), s, index, resumed)
			ro, err = OpenReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			holdsExactly(t, what("reopen after gc"), ro, index, resumed)
		}
	}
}

// TestPutLeavesTheIndexAlone pins what writes the INDEX snapshot, on both
// writer layouts: a put changes no byte of it — the same file, the same
// length, the same bytes — and WriteIndex and a compacting GC pass replace
// it whole, each with a new file whose pack record covers every pack byte.
func TestPutLeavesTheIndexAlone(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		what := map[bool]string{false: "private", true: "pooled"}[pooled]
		dir, o, index := commitRun(t.TempDir(), pooled)
		s, err := OpenWith(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := putOne(s, Key{LoopID: "train", Exec: 0}, 30); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(index); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: INDEX after a put: %v; want none before a snapshot", what, err)
		}
		covers := func(step string) os.FileInfo {
			t.Helper()
			fi, err := os.Stat(index)
			if err != nil {
				t.Fatalf("%s, %s: %v", what, step, err)
			}
			raw, _ := os.ReadFile(index)
			for off := 0; off < len(raw); {
				rec, n, err := decodeManifestRecord(raw[off:])
				if err != nil {
					t.Fatalf("%s, %s: INDEX undecodable at %d: %v", what, step, off, err)
				}
				if rec.tag == recShard && rec.shard.end != s.pool.end {
					t.Fatalf("%s, %s: pack record %+v, the pack's indexed end is %d", what, step, rec.shard, s.pool.end)
				}
				off += n
			}
			return fi
		}
		if err := s.WriteIndex(); err != nil {
			t.Fatal(err)
		}
		snap := covers("written")
		raw, _ := os.ReadFile(index)
		for exec := 1; exec <= 3; exec++ {
			if err := putOne(s, Key{LoopID: "train", Exec: 0}, uint64(30+exec)); err != nil {
				t.Fatal(err)
			}
		}
		if fi, err := os.Stat(index); err != nil || !os.SameFile(fi, snap) || fi.Size() != snap.Size() {
			t.Fatalf("%s: INDEX after three puts: %v, %v; want the file the snapshot wrote", what, fi, err)
		}
		if after, _ := os.ReadFile(index); !bytes.Equal(after, raw) {
			t.Fatalf("%s: three puts changed the INDEX's bytes", what)
		}
		if err := s.WriteIndex(); err != nil {
			t.Fatal(err)
		}
		if again := covers("rewritten"); os.SameFile(again, snap) {
			t.Fatalf("%s: WriteIndex wrote into the old file", what)
		}
		snap = covers("rewritten")
		var res GCResult
		if pooled {
			if _, err := s.GC(); err != nil { // drops the superseded meta records GCPool would mark
				t.Fatal(err)
			}
			res, err = GCPool(o.Pool, GCOptions{PackRetention: time.Hour})
			if err == nil {
				s, err = OpenWith(dir, o) // the pool's new generations, for covers
			}
		} else {
			res, err = s.GCWith(GCOptions{PackRetention: time.Hour})
		}
		if err != nil || res.CompactedShards == 0 {
			t.Fatalf("%s: gc %+v, %v; want the superseded chunks compacted", what, res, err)
		}
		if gc := covers("after gc"); os.SameFile(gc, snap) {
			t.Fatalf("%s: GC wrote into the old file", what)
		}
	}
}

// TestChunkRecordsLiveInTheIndex pins where each writer layout keeps its
// records, once a recording wrote its snapshot and after a compacting GC: a
// private store's MANIFEST holds only meta records and its INDEX snapshot
// one pack record, then chunk records; a pooled run's MANIFEST holds its
// pool-reference record, then only meta records, and the snapshot is the
// pool's INDEX, the same pack record and chunk records — the run directory
// has none. The GC supersedes a checkpoint first, so that the
// private store compacts.
func TestChunkRecordsLiveInTheIndex(t *testing.T) {
	base := t.TempDir()
	dirs, _ := recordLayouts(t, base)
	tags := func(path string) string {
		t.Helper()
		raw, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			return ""
		}
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for off := 0; off < len(raw); {
			rec, n, err := decodeManifestRecord(raw[off:])
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			b.WriteByte(rec.tag)
			off += n
		}
		return b.String()
	}
	only := func(s string, tag byte) bool {
		return s != "" && !slices.ContainsFunc([]byte(s), func(c byte) bool { return c != tag })
	}
	snapshot := func(s string) bool {
		return len(s) > 1 && s[0] == recShard && only(s[1:], recChunk)
	}
	check := func(when string) {
		t.Helper()
		priv, pooled := dirs["v2"], dirs["v2-pooled"]
		if m, idx := tags(filepath.Join(priv, manifestFile)), tags(filepath.Join(priv, poolIndexFile)); !only(m, recMeta) || !snapshot(idx) {
			t.Fatalf("%s: private MANIFEST %q, INDEX %q; want meta records, and a pack record and chunk records", when, m, idx)
		}
		m := tags(filepath.Join(pooled, manifestFile))
		if len(m) < 2 || m[0] != recPool || !only(m[1:], recMeta) {
			t.Fatalf("%s: pooled MANIFEST %q, want the pool record, then meta records", when, m)
		}
		if idx := tags(filepath.Join(pooled, poolIndexFile)); idx != "" {
			t.Fatalf("%s: pooled run directory holds INDEX records %q", when, idx)
		}
		if idx := tags(filepath.Join(base, "POOL", poolIndexFile)); !snapshot(idx) {
			t.Fatalf("%s: pool INDEX %q, want the pack record, then chunk records", when, idx)
		}
	}
	check("recorded")
	for _, dir := range dirs {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.PutSections(Key{LoopID: "train", Exec: 0}, mutatingSections(5), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		if res, err := s.GCWith(GCOptions{PackRetention: time.Hour}); err != nil || !s.Pooled() && res.CompactedShards == 0 {
			t.Fatalf("%s: gc %+v, %v", dir, res, err)
		}
	}
	if _, err := GCPool(filepath.Join(base, "POOL"), GCOptions{PackRetention: time.Hour}); err != nil {
		t.Fatal(err)
	}
	check("after gc")
}

// TestManifestChunkRecordsIgnoredUnderIndex pins that no open adopts a
// MANIFEST chunk record (only ReadLegacy reads them, in a store an older
// build left): in a private store, and in a pooled run, a chunk record
// planted in the MANIFEST — invalid in its pack, which would refuse a
// writable open were it adopted — is ignored, and every checkpoint reads
// back through the INDEX.
func TestManifestChunkRecordsIgnoredUnderIndex(t *testing.T) {
	key := Key{LoopID: "L", Exec: 0}
	data := noise(100000, 4)
	for _, layout := range []string{"index", "pool"} {
		dir, o, records := plantedRecordLog(t, layout, key, data)
		idx, err := os.ReadFile(records)
		if err != nil {
			t.Fatal(err)
		}
		man, err := os.ReadFile(filepath.Join(dir, manifestFile))
		if err != nil {
			t.Fatal(err)
		}
		plant(t, dir, manifestFile, string(man)+string(idx))
		rewriteChunkRecords(t, filepath.Join(dir, manifestFile), func(l *chunkLoc) { l.Off = -1 })
		for _, readOnly := range []bool{true, false} {
			o.ReadOnly = readOnly
			s, err := OpenWith(dir, o)
			if err != nil {
				t.Fatalf("%s, read-only=%v: open: %v", layout, readOnly, err)
			}
			if secs, err := ReadAll(s, key, nil); err != nil || !bytes.Equal(secs[0].Data, data) {
				t.Fatalf("%s, read-only=%v: read: %v", layout, readOnly, err)
			}
		}
	}
}

// tearingBackend writes only the first half of the next pack append once
// tear is set, and fails it.
type tearingBackend struct {
	Backend
	tear bool
}

func (b *tearingBackend) Append(name string, p []byte) error {
	if !b.tear {
		return b.Backend.Append(name, p)
	}
	b.tear = false
	if err := b.Backend.Append(name, p[:len(p)/2]); err != nil {
		return err
	}
	return errInjected
}

// TestFailedPackAppendIsCutByTheNextPut pins a pack append that fails
// part-way: the put fails and commits nothing, and the next put, catching up
// under the commit lock, scans the pack past its last whole frame, finds the
// torn bytes and cuts them, so its frame lands where they were rather than
// after or inside them. Both committed checkpoints read back, in the same
// store and after a reopen, and there is nothing left for GC to reclaim.
func TestFailedPackAppendIsCutByTheNextPut(t *testing.T) {
	k0, k1 := Key{LoopID: "train", Exec: 0}, Key{LoopID: "train", Exec: 1}
	dir := filepath.Join(t.TempDir(), "run")
	b := &tearingBackend{Backend: DirBackendAt(dir)}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWith(dir, Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	if err := putOne(s, k0, 20); err != nil {
		t.Fatal(err)
	}
	before := packBytes(t, dir)
	b.tear = true
	if err := putOne(s, k1, 21); !errors.Is(err, errInjected) {
		t.Fatalf("put through the tearing append: %v, want the injected failure", err)
	}
	if packBytes(t, dir) <= before {
		t.Fatal("the failed append left no bytes")
	}
	if err := putOne(s, k1, 22); err != nil {
		t.Fatalf("put after the failed append: %v", err)
	}
	if f, n := frameAt(t, dir, packFile, before); f.Hash != ckptfmt.HashChunk(noise(4096, 22)) || packBytes(t, dir) != before+int64(n) {
		t.Fatalf("the put after the failed append: frame %s at %d, pack %d bytes; want its own, ending the pack", f.Hash, before, packBytes(t, dir))
	}
	want := map[Key]uint64{k0: 20, k1: 22}
	index := filepath.Join(dir, poolIndexFile)
	holdsExactly(t, "same store", s, index, want)
	if s, err = OpenWith(dir, Options{Backend: b}); err != nil {
		t.Fatal(err)
	}
	holdsExactly(t, "reopened", s, index, want)
	if res, err := s.GCWith(GCOptions{PackRetention: time.Hour}); err != nil || res.ReclaimedBytes != 0 {
		t.Fatalf("gc: %+v, %v; want nothing to reclaim", res, err)
	}
	holdsExactly(t, "after gc", s, index, want)
}
