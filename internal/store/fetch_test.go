package store

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
)

// countingBackend records every ReadAt range its pack readers serve. With fd
// set the readers also expose the pack file's descriptor (and count how often
// it is taken), which is what selects the vectored read strategy; without it
// the same bytes arrive through the staged strategy.
type countingBackend struct {
	Backend
	fd bool

	mu    sync.Mutex
	reads [][2]int64 // [start, end) of every ReadAt
	fds   int        // Fd() calls: one per vectored run
}

func (b *countingBackend) Open(name string) (BackendReader, error) {
	r, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	cr := &countingReader{b: b, BackendReader: r}
	if b.fd {
		return fdReader{cr}, nil
	}
	return cr, nil
}

type countingReader struct {
	b *countingBackend
	BackendReader
}

func (r *countingReader) ReadAt(p []byte, off int64) (int, error) {
	r.b.mu.Lock()
	r.b.reads = append(r.b.reads, [2]int64{off, off + int64(len(p))})
	r.b.mu.Unlock()
	return r.BackendReader.ReadAt(p, off)
}

type fdReader struct{ *countingReader }

func (r fdReader) Fd() uintptr {
	r.b.mu.Lock()
	r.b.fds++
	r.b.mu.Unlock()
	return r.BackendReader.(interface{ Fd() uintptr }).Fd()
}

// compressiblePayload builds n bytes over a four-symbol alphabet: every
// chunk is distinct, and every chunk compresses.
func compressiblePayload(n int, seed uint64) []byte {
	b := testPayload(n, seed)
	for i := range b {
		b[i] = 'a' + b[i]&3
	}
	return b
}

// TestFetchReadsEachNeededByteOnce is the read pipeline's IO property, on
// both byte-obtaining strategies: restoring a checkpoint that mixes large
// raw, small raw and compressed frames — some deduplicated against an older
// checkpoint, some skipped by the caller, some referenced several times over,
// so the needed records lie scattered through the pack — reads every needed
// record exactly once however often it is referenced, never reads a
// byte twice, and drags in at most maxCoalesceGap dead bytes per joined pair
// of records.
func TestFetchReadsEachNeededByteOnce(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Sections cycle through the three frame shapes at seed-dependent
			// sizes. The first checkpoint takes every other section, so the
			// second one's records interleave old pack offsets with new ones.
			x := seed
			next := func(lo, hi int) int {
				x = x*6364136223846793005 + 1442695040888963407
				return lo + int(x>>33)%(hi-lo)
			}
			var all []Section
			for i := 0; i < 18; i++ {
				var data []byte
				switch i % 3 {
				case 0: // large raw: payloads land straight in their buffers
					data = testPayload(next(96<<10, 700<<10), seed*100+uint64(i))
				case 1: // small raw: staged whole
					data = testPayload(next(1<<10, 40<<10), seed*100+uint64(i))
				case 2: // compressed
					data = compressiblePayload(next(8<<10, 400<<10), seed*100+uint64(i))
				}
				all = append(all, Section{Name: fmt.Sprintf("s%02d", i), Data: data})
			}
			// Repeated records: one large raw block and one compressible block,
			// each several times over in a section of its own, and a small
			// section stored again under a second name. Each dedups to a single
			// record that the restore wants more than once.
			small := testPayload(next(1<<10, 40<<10), seed*100+52)
			all = append(all,
				Section{Name: "r0", Data: bytes.Repeat(testPayload(ckptfmt.DefaultChunkSize, seed*100+50), next(3, 6))},
				Section{Name: "r1", Data: bytes.Repeat(compressiblePayload(ckptfmt.DefaultChunkSize, seed*100+51), next(3, 6))},
				Section{Name: "r2", Data: small},
				Section{Name: "r3", Data: bytes.Clone(small)})
			var older []Section
			for i := 0; i < len(all); i += 2 {
				older = append(older, all[i])
			}
			if _, err := w.PutSections(Key{LoopID: "train", Exec: 0}, older, 0, 0, 0); err != nil {
				t.Fatal(err)
			}
			key := Key{LoopID: "train", Exec: 1}
			if _, err := w.PutSections(key, all, 0, 0, 0); err != nil {
				t.Fatal(err)
			}
			skip := map[string]bool{}
			for i := 0; i < 18; i++ { // the repeat sections are always restored
				if next(0, 4) == 0 {
					skip[all[i].Name] = true
				}
			}

			var stagedRuns int
			for _, fd := range []bool{false, true} {
				if fd && runtime.GOOS != "linux" {
					continue // no preadv: every reader takes the staged strategy
				}
				db, err := NewDirBackend(dir)
				if err != nil {
					t.Fatal(err)
				}
				cb := &countingBackend{Backend: db, fd: fd}
				s, err := OpenWith(dir, Options{ReadOnly: true, Backend: cb})
				if err != nil {
					t.Fatal(err)
				}
				// The needed records, from the directory and the chunk index: a
				// record referenced twice is needed (and read) once, but decoded
				// and accounted per reference.
				c, err := s.Resolve(key)
				if err != nil {
					t.Fatal(err)
				}
				sdir := c.dir
				skipHash := map[ckptfmt.Hash]bool{}
				seen := map[ckptfmt.Hash]bool{}
				var need [][2]int64
				var needBytes int64
				for i := range sdir.Sections {
					ds := &sdir.Sections[i]
					hs := make([]ckptfmt.Hash, len(ds.Chunks))
					for k, ref := range ds.Chunks {
						hs[k] = ref.Hash
					}
					if skip[ds.Name] {
						skipHash[ckptfmt.HashOfHashes(hs)] = true
						continue
					}
					for _, h := range hs {
						loc := s.pool.shardTab[s.pool.shardOf(h)].chunks[h]
						needBytes += int64(loc.EncLen)
						if !seen[h] {
							seen[h] = true
							need = append(need, [2]int64{loc.Off, loc.Off + int64(loc.EncLen)})
						}
					}
				}
				sort.Slice(need, func(a, b int) bool { return need[a][0] < need[b][0] })

				var fs FetchStats
				got, ok, err := s.GetSectionsObserved(key, func(h ckptfmt.Hash) bool { return skipHash[h] }, &fs)
				if err != nil || !ok {
					t.Fatalf("fd=%v: restore: ok=%v err=%v", fd, ok, err)
				}
				for i, sec := range got {
					if skip[sec.Name] != (sec.Data == nil) {
						t.Fatalf("fd=%v: section %s skipped=%v, want %v", fd, sec.Name, sec.Data == nil, skip[sec.Name])
					}
					if sec.Data != nil && !bytes.Equal(sec.Data, all[i].Data) {
						t.Fatalf("fd=%v: section %s differs", fd, sec.Name)
					}
				}
				snap := fs.Snapshot()
				if disk := snap.ScatterBytes + snap.RangedBytes; disk != needBytes {
					t.Fatalf("fd=%v: disk tiers carried %d bytes, needed records hold %d: %+v", fd, disk, needBytes, snap)
				}

				if fd {
					// Vectored: one preadv per run and nothing else — no record
					// is picked up a second time through ReadAt. The planner is
					// shared, so the run count is the staged pass's.
					if len(cb.reads) != 0 || cb.fds != stagedRuns {
						t.Fatalf("vectored restore issued %d ReadAt calls and %d vectored reads, want 0 and %d",
							len(cb.reads), cb.fds, stagedRuns)
					}
					if snap.ScatterBytes == 0 {
						t.Fatalf("vectored restore scattered nothing: %+v", snap)
					}
					continue
				}
				// Staged: the ReadAt ranges are the runs.
				reads := cb.reads
				stagedRuns = len(reads)
				sort.Slice(reads, func(a, b int) bool { return reads[a][0] < reads[b][0] })
				k := 0
				for ri, r := range reads {
					if ri > 0 && r[0] < reads[ri-1][1] {
						t.Fatalf("reads %v and %v overlap: bytes read twice", reads[ri-1], r)
					}
					if k == len(need) || need[k][0] != r[0] {
						t.Fatalf("read %v does not start at a needed record", r)
					}
					pos := r[0]
					for k < len(need) && need[k][1] <= r[1] {
						if gap := need[k][0] - pos; gap < 0 || gap > maxCoalesceGap {
							t.Fatalf("read %v carries a %d-byte gap before record %v", r, gap, need[k])
						}
						pos = need[k][1]
						k++
					}
					if pos != r[1] {
						t.Fatalf("read %v ends %d dead bytes past its last needed record", r, r[1]-pos)
					}
				}
				if k != len(need) {
					t.Fatalf("%d of %d needed records were never read", len(need)-k, len(need))
				}
			}
		})
	}
}

// TestFetchVectoredWrongRawGuessRereads pins the vectored strategy's one
// fallback: a compressed frame whose record is exactly as long as a raw frame
// of its content would be is planned as raw, found out when its header is
// parsed, and re-read alone through the staged strategy — byte-identical, and
// accounted as a ranged read.
func TestFetchVectoredWrongRawGuessRereads(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("vectored reads need preadv")
	}
	dir := t.TempDir()
	w, err := OpenWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-append one deflate frame that does not shrink its chunk (the
	// store's own writer would have fallen back to raw): stored-block deflate
	// of 100 KiB adds 10 bytes, which fits the uvarint slack of a raw header.
	raw := testPayload(100<<10, 7)
	f := ckptfmt.BuildStyle(raw, ckptfmt.StyleRaw)
	var enc bytes.Buffer
	for off := 0; off < len(raw); off += 65535 {
		end := min(off+65535, len(raw))
		final := byte(0)
		if end == len(raw) {
			final = 1
		}
		n := end - off
		enc.Write([]byte{final, byte(n), byte(n >> 8), ^byte(n), ^byte(n >> 8)})
		enc.Write(raw[off:end])
	}
	f.Style, f.Enc = ckptfmt.StyleDeflate, enc.Bytes()
	locs, err := w.pool.appendFrames([]ckptfmt.Frame{f})
	if err != nil {
		t.Fatal(err)
	}
	w.pool.publish([]ckptfmt.Frame{f}, locs)

	job := chunkJob{dst: make([]byte, len(raw)), loc: locs[0], ref: ckptfmt.ChunkRef{Hash: f.Hash, RawLen: len(raw)}}
	if rawOverhead(&job) < 0 {
		t.Fatalf("record of %d bytes for %d raw bytes is not raw-shaped; the test no longer provokes the guess", locs[0].EncLen, len(raw))
	}
	jobs := []chunkJob{job}
	var fs FetchStats
	if err := w.pool.fetch(jobs, map[int][]int{0: {0}}, &fs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jobs[0].dst, raw) {
		t.Fatal("re-read frame decoded to different bytes")
	}
	if snap := fs.Snapshot(); snap.RangedFrames != 1 || snap.ScatterFrames != 0 || snap.TotalBytes() != int64(locs[0].EncLen) {
		t.Fatalf("wrong-guess frame misattributed: %+v", snap)
	}
}
