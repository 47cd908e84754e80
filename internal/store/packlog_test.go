package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
)

// TestCatchUpReadsOnlyWhatWasAppended pins the cost of a writer's catch-up:
// proportional to what other writers appended, not to the pool. Two
// writable instances of one store share its snapshot; A appends k frames;
// B's next put then reads exactly those bytes from the pack, in one read,
// and no INDEX byte — the INDEX is overwritten in place with garbage of the
// same length and modification time, which a reload would reject as
// corrupt — and lands after them. Both instances' checkpoints read back.
func TestCatchUpReadsOnlyWhatWasAppended(t *testing.T) {
	const k = 5
	dir := t.TempDir()
	a, err := OpenWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := putOne(a, Key{LoopID: "a", Exec: 0}, 40); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteIndex(); err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: DirBackendAt(dir)}
	b, err := OpenWith(dir, Options{Backend: cb})
	if err != nil {
		t.Fatal(err)
	}
	if len(cb.reads) != 0 {
		t.Fatalf("an open under a covering snapshot read %v from the pack", cb.reads)
	}

	index := filepath.Join(dir, poolIndexFile)
	snap, err := os.ReadFile(index)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(index)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(index, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, len(snap)), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.Chtimes(index, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}

	from := packBytes(t, dir)
	for i := 1; i <= k; i++ {
		if err := putOne(a, Key{LoopID: "a", Exec: i}, uint64(40+i)); err != nil {
			t.Fatal(err)
		}
	}
	to := packBytes(t, dir)
	if err := putOne(b, Key{LoopID: "b", Exec: 0}, 50); err != nil {
		t.Fatalf("B's put after A's %d: %v", k, err)
	}
	if want := [][2]int64{{from, to}}; len(cb.reads) != 1 || cb.reads[0] != want[0] {
		t.Fatalf("B's catch-up read %v, want exactly A's %d appended frames %v", cb.reads, k, want)
	}
	if f, _ := frameAt(t, dir, packFile, to); f.Hash != ckptfmt.HashChunk(noise(4096, 50)) {
		t.Fatalf("B's frame is not right after A's: %s at %d", f.Hash, to)
	}

	if err := os.WriteFile(index, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Key]uint64{{LoopID: "b", Exec: 0}: 50}
	for i := 0; i <= k; i++ {
		want[Key{LoopID: "a", Exec: i}] = uint64(40 + i)
	}
	holdsExactly(t, "reopened", ro, index, want)
}

// TestPutTouchesOnePack pins what a put asks of the backend, in a private
// store and in a run of a shared pool alike: a put of 24 fresh chunks is one
// Size — the catch-up's look at the pack, which finds nothing appended and
// reads no byte — and one Append of all its frames.
func TestPutTouchesOnePack(t *testing.T) {
	const fresh = 24
	for _, pooled := range []bool{false, true} {
		base := t.TempDir()
		dir := filepath.Join(base, "run")
		cb := &countingBackend{Backend: DirBackendAt(dir)}
		o := Options{Backend: cb}
		if pooled {
			o = Options{Pool: filepath.Join(base, "POOL")}
		}
		s, err := OpenWith(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		if pooled { // a pool's packs are its own: count them under it
			cb.Backend, s.pool.backend = s.pool.backend, cb
		}
		for e := 0; e < 3; e++ {
			secs := make([]Section, fresh)
			for i := range secs {
				secs[i] = Section{Name: fmt.Sprint(i), Data: noise(512, uint64(100*e+i))}
			}
			cb.sizes, cb.appends, cb.reads = 0, 0, nil
			m, err := s.PutSections(Key{LoopID: "train", Exec: e}, secs, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if m.StoredBytes != fresh*int64(ckptfmt.RawWireLen(512)) || cb.sizes != 1 || cb.appends != 1 || len(cb.reads) != 0 {
				t.Fatalf("pooled=%v, put %d of %d fresh chunks (%d bytes stored): %d Size, %d Append, reads %v; want 1, 1 and none",
					pooled, e, fresh, m.StoredBytes, cb.sizes, cb.appends, cb.reads)
			}
		}
	}
}

// poolOfChunks returns a shared pool holding n chunks of size bytes, put by
// one run, run-0, whose recording wrote the snapshot, and the run's
// directory.
func poolOfChunks(tb testing.TB, n, size int) (pool, run string) {
	tb.Helper()
	base := tb.TempDir()
	pool, run = filepath.Join(base, "POOL"), filepath.Join(base, "run-0")
	s, err := OpenWith(run, Options{Pool: pool})
	if err != nil {
		tb.Fatal(err)
	}
	secs := make([]Section, n)
	for i := range secs {
		secs[i] = Section{Name: fmt.Sprint(i), Data: noise(size, uint64(i))}
	}
	if _, err := s.PutSections(Key{LoopID: "big", Exec: 0}, secs, 0, 0, 0); err != nil {
		tb.Fatal(err)
	}
	if err := s.WriteIndex(); err != nil {
		tb.Fatal(err)
	}
	return pool, run
}

// BenchmarkAlternatingWriters times a 512 B put into a pool of 20,200
// chunks, from one writable instance ("single") and from two that take
// turns ("alternating"), each of which catches up with the other's frame
// first.
func BenchmarkAlternatingWriters(b *testing.B) {
	pool, run := poolOfChunks(b, 20200, 64)
	w0, err := OpenWith(run, Options{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	w1, err := OpenWith(filepath.Join(filepath.Dir(run), "run-1"), Options{Pool: pool})
	if err != nil {
		b.Fatal(err)
	}
	seed := uint64(1 << 20)
	for _, writers := range [][]*Store{{w0}, {w0, w1}} {
		b.Run(map[int]string{1: "single", 2: "alternating"}[len(writers)], func(b *testing.B) {
			for b.Loop() {
				seed++
				if _, err := writers[seed%uint64(len(writers))].PutSections(Key{LoopID: "w", Exec: int(seed)}, []Section{{Name: "w", Data: noise(512, seed)}}, 0, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpenPool times a read-only open of a run of a pool of 10,000
// chunks: under a snapshot that covers every pack byte, and with none, when
// the open scans every pack.
func BenchmarkOpenPool(b *testing.B) {
	pool, run := poolOfChunks(b, 10000, 256)
	snap, err := os.ReadFile(filepath.Join(pool, poolIndexFile))
	if err != nil {
		b.Fatal(err)
	}
	for _, covered := range []bool{true, false} {
		b.Run(map[bool]string{true: "snapshot", false: "scan"}[covered], func(b *testing.B) {
			if covered {
				err = os.WriteFile(filepath.Join(pool, poolIndexFile), snap, 0o644)
			} else if err = os.Remove(filepath.Join(pool, poolIndexFile)); errors.Is(err, os.ErrNotExist) {
				err = nil // removed by an earlier run of this sub-benchmark (-count)
			}
			if err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				s, err := OpenReadOnly(run)
				if err != nil {
					b.Fatal(err)
				}
				if st, _, _ := s.PoolStats(); st.Chunks != 10000 {
					b.Fatalf("%d chunks", st.Chunks)
				}
			}
		})
	}
}

// FuzzPackScan feeds a pack that is a valid prefix of whole frames followed
// by arbitrary bytes to a private store's open. Nothing panics, and the open
// adopts exactly the frames ckptfmt.Parse accepts that are raw frames (the
// only frames a put writes), from the start, up to the first that is not
// (the first of a hash wins). When that frame is torn — the bytes from it
// end before its header does, or before the length a raw frame's header
// declares, no longer than the scan's window — a writable
// instance's catch-up cuts the pack to exactly the whole frames' length.
// Otherwise it is corrupt: a writable open is refused, and the pack keeps
// every byte.
func FuzzPackScan(f *testing.F) {
	f.Add(uint8(3), []byte{})
	f.Add(uint8(2), []byte{0, 4, 4})
	whole := ckptfmt.BuildHashed(noise(100, 9), ckptfmt.HashChunk(noise(100, 9)))
	f.Add(uint8(1), whole.Marshal())
	f.Add(uint8(0), append(whole.Marshal(), whole.Marshal()[:30]...))
	rotten := whole.Marshal()
	rotten[len(rotten)/2] ^= 1
	f.Add(uint8(1), append(rotten, whole.Marshal()...))
	f.Fuzz(func(t *testing.T, prefix uint8, tail []byte) {
		var pack []byte
		for i := range int(prefix % 4) {
			raw := noise(64+i, uint64(i%3)) // the third repeats the first
			fr := ckptfmt.BuildHashed(raw, ckptfmt.HashChunk(raw))
			pack = fr.Append(pack)
		}
		pack = append(pack, tail...)
		want, end := map[ckptfmt.Hash]chunkLoc{}, 0
		for end < len(pack) {
			fr, n, err := ckptfmt.Parse(pack[end:])
			if err != nil || fr.Style != ckptfmt.StyleRaw || n != ckptfmt.RawWireLen(fr.RawLen) {
				break
			}
			if _, dup := want[fr.Hash]; !dup {
				want[fr.Hash] = chunkLoc{Off: int64(end), EncLen: n, RawLen: fr.RawLen, Style: fr.Style}
			}
			end += n
		}
		fr, wire, err := ckptfmt.ParseHeader(pack[end:])
		raw := err == nil && fr.Style == ckptfmt.StyleRaw && wire == ckptfmt.RawWireLen(fr.RawLen) && wire <= scanWindow
		torn := end == len(pack) || errors.Is(err, io.ErrUnexpectedEOF) || raw && wire > len(pack)-end
		dir := t.TempDir()
		plant(t, dir, formatFile, formatMarker)
		plant(t, dir, poolMarkerFile, poolMarker)
		plant(t, dir, packFile, string(pack))
		ro, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		if p := ro.pool; !maps.Equal(p.chunks, want) || p.end != int64(end) {
			t.Fatalf("the scan adopted %d frames up to %d, want Parse's %d up to %d", len(p.chunks), p.end, len(want), end)
		}
		w, err := Open(dir)
		if !torn {
			if !errors.Is(err, codec.ErrCorrupt) || packBytes(t, dir) != int64(len(pack)) {
				t.Fatalf("a writable open of a pack corrupt at %d: %v, %d bytes left of %d; want refused, every byte kept", end, err, packBytes(t, dir), len(pack))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteIndex(); err != nil {
			t.Fatal(err)
		}
		if n := packBytes(t, dir); n != int64(end) {
			t.Fatalf("after a writer's catch-up the pack is %d bytes, want the %d its whole frames take", n, end)
		}
	})
}

// TestCorruptFrameIsNeverCut flips one byte inside a committed frame that a
// recording's snapshot does not cover (it crashed before writing one),
// with whole frames of later checkpoints past it. The scan stops there, but
// it is no torn tail: a held writer's next put and a writable open are
// refused with ErrCorrupt, and the pack keeps every byte. A read-only open
// serves the checkpoint before it.
func TestCorruptFrameIsNeverCut(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	held, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for i := range 3 {
		offs = append(offs, packBytes(t, dir))
		if err := putOne(a, Key{LoopID: "train", Exec: i}, uint64(70+i)); err != nil {
			t.Fatal(err)
		}
	}
	pack := filepath.Join(dir, packFile)
	raw, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	raw[offs[1]+(offs[2]-offs[1])/2] ^= 0x40
	if err := os.WriteFile(pack, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := putOne(held, Key{LoopID: "late", Exec: 0}, 80); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("a held writer's put over a corrupt frame: %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("a writable open over a corrupt frame: %v, want ErrCorrupt", err)
	}
	if after, err := os.ReadFile(pack); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("the pack changed: %d bytes, want its %d (%v)", len(after), len(raw), err)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if secs, err := ReadAll(ro, Key{LoopID: "train", Exec: 0}, nil); err != nil || !bytes.Equal(secs[0].Data, noise(4096, 70)) {
		t.Fatalf("the checkpoint before the corrupt frame: %v", err)
	}
	if _, err := ReadAll(ro, Key{LoopID: "train", Exec: 1}, nil); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("the checkpoint of the corrupt frame: %v, want ErrCorrupt", err)
	}
}

// FuzzReadLease puts arbitrary content at an arbitrary name in a pool's
// LEASES directory. Nothing panics; readLease reads the content less one
// trailing newline and calls the lease sound exactly when that is not empty
// and the file sits at one of its names (leaseCandidates); and findLease
// finds a sound lease by its entry.
func FuzzReadLease(f *testing.F) {
	for _, entry := range []string{"run", "../runs/run-torn", " edge ", "a\nb"} {
		cands := leaseCandidates("", entry)
		f.Add(filepath.Base(cands[0]), []byte(entry+"\n"))
		f.Add(filepath.Base(cands[1]), []byte(entry))
		f.Add(filepath.Base(cands[0]), []byte(entry[:len(entry)-1]+"\n"))
	}
	f.Add("2acd4eca-run", []byte{})
	f.Add(".2acd4eca-run", []byte("run\n"))
	f.Fuzz(func(t *testing.T, name string, content []byte) {
		if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\x00") || len(name) > 200 {
			t.Skip("not a file name")
		}
		root := t.TempDir()
		plant(t, filepath.Join(root, poolLeaseDir), name, string(content))
		path := filepath.Join(root, poolLeaseDir, name)
		entry, sound, err := readLease(path)
		if err != nil {
			t.Fatal(err)
		}
		cands := leaseCandidates(root, entry)
		named := path == cands[0] || path == cands[1]
		if entry != strings.TrimSuffix(string(content), "\n") || sound != (entry != "" && named) {
			t.Fatalf("lease %q holding %q: entry %q, sound %v", name, content, entry, sound)
		}
		if found, ok := findLease(root, entry); sound && (!ok || found != path) {
			t.Fatalf("findLease(%q) = %q, %v; want %q", entry, found, ok, path)
		}
	})
}

// TestStoreRecordInt64FieldsRoundTrip pins the store records' int64 fields
// at values a 32-bit int cannot hold: a meta record's size, timings and
// stored bytes and a chunk record's offset decode to what was encoded, on
// every build.
func TestStoreRecordInt64FieldsRoundTrip(t *testing.T) {
	const big = int64(1)<<32 + 12345
	e := &entry{Meta: Meta{
		Key: Key{LoopID: "L", Exec: 3}, Seq: 7, Size: big + 1, MaterNs: big + 2,
		SnapNs: big + 3, ComputNs: big + 4, Format: FormatV2, StoredBytes: big + 5,
	}, dir: &ckptfmt.Directory{Sections: []ckptfmt.SectionRef{{Name: "w", Chunks: []ckptfmt.ChunkRef{{RawLen: 8}}}}}}
	rec, _, err := decodeManifestRecord(frameTagged(recMeta, encodeMeta(e)))
	if err != nil || rec.e.Meta != e.Meta {
		t.Fatalf("meta record: %+v, %v; want %+v", rec.e, err, e.Meta)
	}
	loc := chunkLoc{Gen: 2, Off: 3 * big, EncLen: 40, RawLen: 9}
	h := ckptfmt.HashChunk([]byte("chunk"))
	rec, _, err = decodeManifestRecord(frameTagged(recChunk, encodeChunkRecord(h, loc)))
	if err != nil || rec.hash != h || rec.loc != loc {
		t.Fatalf("chunk record: %+v at %s, %v; want %+v", rec.loc, rec.hash, err, loc)
	}
	sr := shardRecord{index: 15, gen: 3, end: 5 * big}
	if rec, _, err = decodeManifestRecord(frameTagged(recShard, encodeShardRecord(sr))); err != nil || rec.shard != sr {
		t.Fatalf("shard record: %+v, %v; want %+v", rec.shard, err, sr)
	}
}

// TestManifestOfA64BitWriterKeepsEveryCheckpoint opens writable a MANIFEST
// whose meta records hold a 4 s epoch (ComputNs 4e9), in the bytes a 64-bit
// writer produces (built here with codec.Writer.Int64): every checkpoint
// stays, with its timing, and the MANIFEST keeps every byte — on a 32-bit
// build too, where reading the field as an int used to end the log there.
func TestManifestOfA64BitWriterKeepsEveryCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if err := putOne(s, Key{LoopID: "train", Exec: i}, uint64(60+i)); err != nil {
			t.Fatal(err)
		}
	}
	raw, recs := manifestRecords(t, dir)
	man := raw[0] // the pool-reference record, as written
	for _, rec := range recs[1:] {
		e := rec.e
		w := codec.NewWriter()
		w.String(e.Key.LoopID)
		w.Int(e.Key.Exec)
		w.Int(e.Seq)
		for _, v := range []int64{e.Size, 0, e.MaterNs, e.SnapNs, 4e9} {
			w.Int64(v)
		}
		w.Int(e.Format)
		w.Int64(e.StoredBytes)
		w.RawAppend(ckptfmt.EncodeDirectory(e.dir))
		man = append(man, frameTagged(recMeta, w.Bytes())...)
	}
	plant(t, dir, manifestFile, string(man))
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if ms := s.Metas(); len(ms) != 3 || ms[2].ComputNs != 4e9 {
		t.Fatalf("reopened with %d checkpoints (%+v), want 3 with ComputNs 4e9", len(ms), ms)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, manifestFile)); err != nil || !bytes.Equal(raw, man) {
		t.Fatalf("the writable open changed the MANIFEST: %d bytes, want %d (%v)", len(raw), len(man), err)
	}
	holdsExactly(t, "reopened", s, filepath.Join(dir, poolIndexFile), map[Key]uint64{{LoopID: "train", Exec: 0}: 60, {LoopID: "train", Exec: 1}: 61, {LoopID: "train", Exec: 2}: 62})
}
