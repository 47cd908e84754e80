package store

// pool.go implements the ChunkPool: the run-agnostic chunk layer under the
// checkpoint store. A pool owns one pack log — the content-addressed dedup
// index over the frames of one pack object behind a Backend — the INDEX
// snapshot of that index, the commit lock its writers take, and
// refcount-style garbage collection of superseded chunks via generational
// pack compaction.
//
// The pack is the log. A frame carries its hash, both lengths and its style
// under its CRC, so a pack's whole frames are its chunk records, found by a
// scan (ckptfmt.Parse) that stops at the first frame that is not whole. The
// INDEX only spares that scan (Bitcask's hint file, Sheehy & Smith 2010): a
// snapshot, written whole by write-then-rename by a GC pass (its commit
// point) and by a finished recording (Store.WriteIndex), of the pack's
// generation and the bytes it covers, then its chunk records. An open trusts
// it up to the covered length and scans the rest; a put never touches it.
//
// Every v2 store runs on a pool; a run's MANIFEST holds only its meta records
// (and a pooled run's pool reference). A private store is a pool of one: its
// root is the run directory, and that run is the only one it marks. A
// *shared* pool lives in its own directory (conventionally <project>/POOL)
// and is attached by many runs of the same project, each holding a lease:
//
//	<root>/POOL          marker: "pool2 shards=1" (shared pools)
//	<root>/INDEX         the snapshot: the pack record ('S'), then chunk records ('C')
//	<root>/LEASES/<id>   one lease file per attached run (shared pools)
//	<root>/PACKGC        retired pack generations awaiting expiry
//	<root>/CHUNKS[.gN]   the pack object of raw frames, generational after compaction
//
// Every attach, read-only or writable, is an instance of its own, built one
// way, by open, from the pool's files. Every writer holds the pool's commit
// lock (lock: an exclusive flock(2) on the root) for what it writes, first
// catching up with what other writers committed and cutting a torn pack
// tail, so writers in many processes, or instances in one, never commit
// records naming the same bytes. Readers take no lock. docs/FORMATS.md lists
// the writer paths.
//
// # GC and the grace period
//
// GC marks every chunk a committed checkpoint of one of the pool's runs
// references, reading their MANIFESTs. Compaction never mutates a pack in
// place: the survivors of generation g are rewritten into the pack object
// for generation g+1, a snapshot naming g+1 atomically replaces the INDEX,
// and only then does the in-memory index swap to the new generation. The
// replaced object is a grace-period tombstone: it stays on disk, readable by
// any store that resolved chunk locations before the swap (including
// concurrent OpenReadOnly stores in other processes), until a later GC pass
// finds its retirement deadline expired in PACKGC and deletes it.

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/obs"
)

// Shared-pool control-plane file names inside a pool root.
const (
	poolMarkerFile = "POOL"
	poolIndexFile  = "INDEX"
	poolLeaseDir   = "LEASES"
	packGCFile     = "PACKGC"
)

// DefaultPackRetention is how long a compacted-away pack generation stays
// on disk for concurrent readers before a later GC pass deletes it.
const DefaultPackRetention = 10 * time.Minute

// ErrStalePack reports a read through an index that another instance's GC
// has outrun: a pack generation whose grace period expired after the reader
// resolved chunk locations. The reader's in-memory index is stale, not the
// data — re-opening the store resolves the current generation and the
// successor checkpoints. Long-lived readers (the serving daemon's store
// cache) catch this to refresh and retry.
var ErrStalePack = errors.New("store: pack generation retired by gc")

// chunkLoc locates one content-addressed frame inside a pack generation.
type chunkLoc struct {
	Gen    int   // pack generation (0 = the original pack object)
	Off    int64 // offset within the generation's pack object
	EncLen int
	RawLen int
	Style  byte
}

// valid reports whether loc can be a frame inside a pack of packLen bytes:
// no field negative, no end past the pack's (compared without overflow),
// and for a raw frame the raw length its encoded length implies.
func (loc chunkLoc) valid(packLen int64) bool {
	return loc.Off >= 0 && loc.EncLen >= 0 && loc.RawLen >= 0 && int64(loc.EncLen) <= packLen-loc.Off &&
		(loc.Style != ckptfmt.StyleRaw || loc.EncLen == ckptfmt.RawWireLen(loc.RawLen))
}

// packObjName maps (base name, generation) to the backend object name.
func packObjName(name string, gen int) string {
	if gen == 0 {
		return name
	}
	return fmt.Sprintf("%s.g%d", name, gen)
}

// PoolStats is a chunk pool's storage accounting, pool-wide (for a private
// pool this equals the run's own dedup accounting).
type PoolStats struct {
	Root           string `json:"root,omitempty"`
	Leases         int    `json:"leases"` // attached runs (shared pools only)
	Chunks         int64  `json:"chunks"`
	StoredRawBytes int64  `json:"stored_raw_bytes"`
	StoredEncBytes int64  `json:"stored_enc_bytes"`
}

// ChunkPool is the run-agnostic chunk layer: one pack log, its dedup index,
// pack I/O and GC. It is safe for concurrent use by its store's goroutines.
type ChunkPool struct {
	root   string // holds INDEX, PACKGC and the pack: the run directory of a pool of one, a shared pool's own
	shared bool   // attached by leased runs

	backend Backend
	snap    os.FileInfo // the INDEX as this instance last read or wrote it (nil: none), under the commit lock

	// mu guards the fields below. The commit lock (lock), which every writer
	// holds, comes before it and Store.mu. Only a writer holding the commit
	// lock changes gen, end and chunks; every live entry of chunks is at gen.
	mu      sync.Mutex
	stored  PoolStats // Chunks/StoredRawBytes/StoredEncBytes upkeep
	dropped string    // the pack, when shorter than the snapshot covers, or holding invalid snapshot records
	packState

	// Per-tier fetch counters, resolved once at construction (nil and
	// branch-free when the registry is disabled — the fetch hot path must
	// not allocate when nobody is watching).
	mFetchBytes  [numTiers]*obs.Counter
	mFetchFrames [numTiers]*obs.Counter
}

// packState is a pool's dedup index over its active pack generation.
type packState struct {
	gen    int   // active pack generation
	end    int64 // the active pack's bytes indexed: whole frames up to here
	chunks map[ckptfmt.Hash]chunkLoc
}

// obj returns the active pack object's name. Callers hold mu or have the
// pool to themselves.
func (p *ChunkPool) obj() string { return packObjName(packFile, p.gen) }

// open builds the dedup index from the INDEX snapshot and a scan of the pack
// past what it covers. A pack shorter than that, holding a snapshot record
// that locates no raw frame inside it or a corrupt frame, or retired by GC,
// is dropped.
func (p *ChunkPool) open() error {
	p.initCounters()
	p.chunks = map[ckptfmt.Hash]chunkLoc{}
	p.stored = PoolStats{Root: p.root}
	if err := p.readSnapshot(); err != nil {
		return err
	}
	obj := p.obj()
	n, err := p.backend.Size(obj)
	if err != nil {
		return fmt.Errorf("store: pack %s: %w", obj, err)
	}
	// A pack shorter than its snapshot covers was lost or truncated (a
	// snapshot covers only bytes that landed); one PACKGC names was retired
	// by a GC pass whose snapshot is gone, and is deleted by the next, with
	// every frame appended to it.
	_, retired := p.readPackGC()[obj]
	bad := n < p.end || retired
	p.end = min(p.end, n)
	for h, loc := range p.chunks {
		if loc.Gen != p.gen || loc.Style != ckptfmt.StyleRaw || !loc.valid(p.end) {
			delete(p.chunks, h) // reads of what names it surface ErrCorrupt
			bad = true
			continue
		}
		p.stored.Chunks++
		p.stored.StoredRawBytes += int64(loc.RawLen)
		p.stored.StoredEncBytes += int64(loc.EncLen)
	}
	scanned, end, corrupt, err := scanPack(p.backend, obj, p.gen, p.end, n)
	if err != nil {
		return err
	}
	if bad || corrupt {
		p.dropped = obj
	}
	p.adopt(scanned, end)
	return nil
}

// readSnapshot reads the INDEX snapshot, noting its file, into the pack's
// generation, covered length and chunks (the first record of a hash wins).
// No snapshot covers nothing, at generation 0. A snapshot is written whole,
// so one that does not decode to its end is corrupt.
func (p *ChunkPool) readSnapshot() error {
	p.snap, _ = os.Stat(p.indexPath()) // before the read: a snapshot replaced in between is read again
	good, torn, err := scanLog(p.indexPath(), decodeManifestRecord, func(rec manifestRecord) error {
		switch {
		case rec.tag == recShard && rec.shard.index == 0:
			p.gen, p.end = rec.shard.gen, rec.shard.end
		case rec.tag == recChunk:
			if _, dup := p.chunks[rec.hash]; !dup {
				p.chunks[rec.hash] = rec.loc
			}
		default:
			return fmt.Errorf("%w: INDEX snapshot of %s: record %c", codec.ErrCorrupt, p.root, rec.tag)
		}
		return nil
	})
	if err == nil && torn {
		err = fmt.Errorf("%w: INDEX snapshot of %s: a record at byte %d does not decode", codec.ErrCorrupt, p.root, good)
	}
	return err
}

// scanWindow is what a scan reads at once: past the largest frame a put
// writes, so that a frame declaring more is corrupt.
const scanWindow = 1 << 20

// scanPack returns the frames in the pack obj of b, generation gen, from
// byte from up to byte n, and the offset past the last. It stops at the
// first frame that is not whole. That frame is torn — the bytes a crash or a
// failed append left, which the next writer cuts — when the pack ends inside
// its header or inside the length it declares. Otherwise it is corrupt: a
// header no raw frame a put writes has, or a CRC that does not match. Then
// bad is set, and the bytes from there, later whole frames among them, are
// not a tail to cut.
func scanPack(b Backend, obj string, gen int, from, n int64) (recs []poolChunkRec, end int64, bad bool, err error) {
	if from >= n {
		return nil, from, false, nil
	}
	r, err := b.Open(obj)
	if err != nil {
		return nil, from, false, fmt.Errorf("store: scan %s: %w", obj, err)
	}
	defer r.Close()
	br := bufio.NewReaderSize(io.NewSectionReader(r, from, n-from), int(min(max(n-from, ckptfmt.MaxHeaderLen), scanWindow)))
	for end = from; end < n; {
		b, err := br.Peek(ckptfmt.MaxHeaderLen) // fewer bytes where the pack ends
		f, wire, herr := ckptfmt.ParseHeader(b)
		if herr == nil && wire <= scanWindow {
			b, err = br.Peek(wire)
		}
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, bufio.ErrBufferFull) { // a window sized to a shorter pack
			return nil, from, false, fmt.Errorf("store: scan %s at %d: %w", obj, end, err)
		}
		switch {
		case errors.Is(herr, io.ErrUnexpectedEOF):
			return recs, end, false, nil
		case herr != nil || f.Style != ckptfmt.StyleRaw || wire != ckptfmt.RawWireLen(f.RawLen) || wire > scanWindow:
			return recs, end, true, nil
		case len(b) < wire:
			return recs, end, false, nil
		}
		if _, _, err := ckptfmt.Parse(b); err != nil {
			return recs, end, true, nil
		}
		recs = append(recs, poolChunkRec{f.Hash, chunkLoc{Gen: gen, Off: end, EncLen: wire, RawLen: f.RawLen, Style: f.Style}})
		br.Discard(wire)
		end += int64(wire)
	}
	return recs, end, false, nil
}

// initCounters resolves the per-tier fetch counters.
func (p *ChunkPool) initCounters() {
	for t := range tierTable {
		p.mFetchBytes[t] = obs.C(obs.MStoreFetchBytes, obs.L("tier", tierTable[t].label))
		p.mFetchFrames[t] = obs.C(obs.MStoreFetchFrames, obs.L("tier", tierTable[t].label))
	}
}

// countFetch attributes frames frames totalling b encoded bytes to a fetch
// tier: always into the pool-wide metrics (no-op handles when disabled),
// and into the per-query observer when one is threaded through.
func (p *ChunkPool) countFetch(tier int, b, frames int64, fs *FetchStats) {
	p.mFetchBytes[tier].Add(b)
	p.mFetchFrames[tier].Add(frames)
	fs.note(tier, b, frames)
}

// adopt installs chunk records of the active pack (the first of a hash wins,
// as write-order dedup does), counts them stored, and moves the indexed end
// to end. The caller holds the commit lock or has the pool to itself.
func (p *ChunkPool) adopt(recs []poolChunkRec, end int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cr := range recs {
		if _, dup := p.chunks[cr.hash]; !dup {
			p.chunks[cr.hash] = cr.loc
			p.stored.Chunks++
			p.stored.StoredRawBytes += int64(cr.loc.RawLen)
			p.stored.StoredEncBytes += int64(cr.loc.EncLen)
		}
	}
	p.end = end
}

// Stats returns a snapshot of the pool's storage accounting, a shared
// pool's lease count refreshed from disk; a lease that cannot be read
// (leases) is the error, and Leases then counts none.
func (p *ChunkPool) Stats() (PoolStats, error) {
	p.mu.Lock()
	st := p.stored
	p.mu.Unlock()
	if !p.shared {
		return st, nil
	}
	leases, err := p.leases()
	st.Leases = len(leases)
	return st, err
}

// filterFresh probes the dedup index and returns, in ascending order, the
// indices of hashes not stored yet (deduplicating repeats within the batch
// too).
func (p *ChunkPool) filterFresh(hashes []ckptfmt.Hash) []int {
	var newIdx []int
	fresh := map[ckptfmt.Hash]bool{}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, h := range hashes {
		if _, stored := p.chunks[h]; !stored && !fresh[h] {
			fresh[h] = true
			newIdx = append(newIdx, i)
		}
	}
	return newIdx
}

// appendFrames appends freshly encoded frames to the pack, after its last
// whole frame, in one backend append, and returns each frame's chunk
// record. Their wire lengths are known up front (Frame.WireLen), so they
// are staged once, at their exact size, in a span of the ckptfmt.Shared
// scratch arena that goes back the moment the append returns. Nothing
// section-sized stays reachable from the pool after a put — a recording's
// store outlives its puts by the whole life of the Recording. Once the
// append landed, the frames are published to the dedup index; after a
// failed one, the next writer's catch-up adopts what whole frames landed
// and cuts the rest. Callers hold the commit lock (via Store.putV2).
func (p *ChunkPool) appendFrames(frames []ckptfmt.Frame) ([]poolChunkRec, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	p.mu.Lock()
	obj, gen, start := p.obj(), p.gen, p.end
	p.mu.Unlock()
	recs := make([]poolChunkRec, len(frames))
	off := start
	for i, f := range frames {
		recs[i] = poolChunkRec{f.Hash, chunkLoc{Gen: gen, Off: off, EncLen: f.WireLen(), RawLen: f.RawLen, Style: f.Style}}
		off += int64(recs[i].loc.EncLen)
	}
	span := ckptfmt.Shared.Get(int(off - start))
	defer ckptfmt.Shared.Put(span)
	buf := span[:0]
	for i := range frames {
		buf = frames[i].Append(buf)
	}
	if err := p.backend.Append(obj, buf); err != nil {
		return nil, fmt.Errorf("store: pack %s: %w", obj, err)
	}
	p.adopt(recs, off)
	return recs, nil
}

// resolve fills each job's chunk location from the dedup index, under one
// hold of its lock. key names the requesting checkpoint for error messages.
func (p *ChunkPool) resolve(jobs []chunkJob, key Key) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range jobs {
		loc, ok := p.chunks[jobs[i].ref.Hash]
		if !ok {
			return fmt.Errorf("%w: checkpoint %s references chunk %s absent from pack %s (pack missing, truncated, or collected?)",
				codec.ErrCorrupt, key, jobs[i].ref.Hash, p.obj())
		}
		jobs[i].loc = loc
	}
	return nil
}

// encodeChunkRecord encodes a chunk record's body: the one place a chunk
// record is made (persistIndex).
func encodeChunkRecord(hash ckptfmt.Hash, loc chunkLoc) []byte {
	w := codec.NewWriter()
	w.RawBytes(hash[:])
	w.Int64(loc.Off)
	w.Int(loc.EncLen)
	w.Int(loc.RawLen)
	w.Uvarint(uint64(loc.Style))
	// The pack generation is a trailing optional field, omitted when 0.
	if loc.Gen > 0 {
		w.Uvarint(uint64(loc.Gen))
	}
	return w.Bytes()
}

// decodeChunkRecord decodes a chunk record's body (decodeManifestRecord
// unframes it).
func decodeChunkRecord(b []byte) (hash ckptfmt.Hash, loc chunkLoc, err error) {
	r := codec.NewReader(b)
	hb, err := r.RawBytes()
	if err != nil {
		return hash, loc, err
	}
	if len(hb) != 16 {
		return hash, loc, fmt.Errorf("%w: chunk record hash length %d", codec.ErrCorrupt, len(hb))
	}
	copy(hash[:], hb)
	if loc.Off, err = r.Int64(); err != nil {
		return hash, loc, err
	}
	if loc.EncLen, err = r.Int(); err != nil {
		return hash, loc, err
	}
	if loc.RawLen, err = r.Int(); err != nil {
		return hash, loc, err
	}
	style, err := r.Uvarint()
	if err != nil {
		return hash, loc, err
	}
	if style > 0xff {
		return hash, loc, fmt.Errorf("%w: chunk record style %d", codec.ErrCorrupt, style)
	}
	loc.Style = byte(style)
	if r.Remaining() == 0 {
		return hash, loc, nil
	}
	// The pack generation, written only when it is not 0, ends the record.
	gen, err := r.Uvarint()
	if err == nil && (gen == 0 || r.Remaining() > 0) {
		err = fmt.Errorf("%w: chunk record generation %d, then %d bytes", codec.ErrCorrupt, gen, r.Remaining())
	}
	if err != nil {
		return hash, loc, err
	}
	loc.Gen = int(gen)
	return hash, loc, nil
}

// shardRecord is a snapshot's 'S' record: the pack's active generation and
// the bytes of that generation's pack the snapshot covers. Its index is 0;
// an older build's sharded pool wrote one per shard (legacy.go).
type shardRecord struct {
	index, gen int
	end        int64
}

func encodeShardRecord(sr shardRecord) []byte {
	w := codec.NewWriter()
	w.Int(sr.index)
	w.Int(sr.gen)
	w.Int64(sr.end)
	return w.Bytes()
}

func decodeShardRecord(b []byte) (sr shardRecord, err error) {
	r := codec.NewReader(b)
	if sr.index, err = r.Int(); err == nil {
		if sr.gen, err = r.Int(); err == nil {
			sr.end, err = r.Int64()
		}
	}
	if err == nil && (r.Remaining() > 0 || sr.index < 0 || sr.gen < 0 || sr.end < 0) {
		err = fmt.Errorf("%w: shard record %+v, then %d bytes", codec.ErrCorrupt, sr, r.Remaining())
	}
	return sr, err
}

// ---------------------------------------------------------------------------
// Shared-pool persistence: marker, INDEX snapshot, leases, commit lock

// canonicalPath makes path absolute, with symlinks resolved where it exists:
// runs naming one pool through different paths record and compare one root,
// and a run's lease entry and pool reference are relative to real paths.
func canonicalPath(path string) (string, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if resolved, err := filepath.EvalSymlinks(abs); err == nil {
		return resolved, nil
	}
	return abs, nil
}

// poolMarker is the POOL marker of every pool this build makes and opens:
// one pack. Older builds wrote "pool1 shards=N", whose INDEX is the log of
// every chunk record, and "pool2 shards=16", whose packs are split by hash
// prefix: they refuse this one, which they would misread.
const poolMarker = "pool2 shards=1\n"

// checkPoolMarker classifies the POOL marker of the pool at key: the one
// this build writes, whitespace aside; one an older build wrote
// (ErrLegacyLayout); or an unknown one — misreading an extended pool would
// end in a writer cutting pack bytes it cannot parse.
func checkPoolMarker(key string, raw []byte) error {
	marker := strings.Join(strings.Fields(string(raw)), " ")
	if marker+"\n" == poolMarker {
		return nil
	}
	if n, ok := parseLegacyPoolMarker(raw); ok {
		return legacyLayout(key, fmt.Sprintf("a chunk pool an older build made (%q, fanout %d)", marker, n))
	}
	return fmt.Errorf("store: unknown pool marker %q (newer pool layout or corrupt POOL file)", strings.TrimSpace(string(raw)))
}

// openSharedPool opens the shared pool at root. A writable attach creates
// the pool on first use, under the commit lock: so may another attach.
func openSharedPool(root string, readOnly bool) (*ChunkPool, error) {
	if !readOnly {
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, fmt.Errorf("store: create pool: %w", err)
		}
		unlock, err := lockRoot(root)
		if err != nil {
			return nil, err
		}
		defer unlock()
	}
	key, err := canonicalPath(root)
	if err != nil {
		return nil, err
	}
	markerRaw, merr := os.ReadFile(filepath.Join(key, poolMarkerFile))
	switch {
	case merr == nil:
		if err := checkPoolMarker(key, markerRaw); err != nil {
			return nil, err
		}
	case errors.Is(merr, os.ErrNotExist):
		if readOnly {
			return nil, fmt.Errorf("store: pool %s: no POOL marker (not a chunk pool)", key)
		}
		if err := writeFileAtomic(filepath.Join(key, poolMarkerFile), []byte(poolMarker)); err != nil {
			return nil, fmt.Errorf("store: write pool marker: %w", err)
		}
	default:
		return nil, fmt.Errorf("store: read pool marker: %w", merr)
	}
	p := &ChunkPool{root: key, shared: true, backend: DirBackendAt(key)}
	return p, p.open()
}

// lock takes the pool's commit lock (lockRoot) and catches the instance up
// with the files. A snapshot that is not the file this instance last read or
// wrote — a GC pass or a finished recording replaced it — is reloaded whole
// (open, into a scratch pool whose index is installed under mu; a dropped
// pack is refused). Then the pack is scanned from the end this instance
// indexed, adopting what other writers appended, and a torn tail is cut, so
// that the next append lands right after the last whole frame.
func (p *ChunkPool) lock() (unlock func(), err error) {
	if unlock, err = lockRoot(p.root); err != nil {
		return nil, err
	}
	if err = p.catchUp(); err != nil {
		unlock()
		return nil, err
	}
	return unlock, nil
}

func (p *ChunkPool) catchUp() error {
	fi, err := os.Stat(p.indexPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: stat INDEX: %w", err)
	}
	same := p.snap == nil && fi == nil || p.snap != nil && fi != nil &&
		os.SameFile(p.snap, fi) && p.snap.Size() == fi.Size() && p.snap.ModTime().Equal(fi.ModTime())
	if !same {
		fresh := &ChunkPool{root: p.root, shared: p.shared, backend: p.backend}
		if err := fresh.open(); err != nil {
			return err
		}
		if err := fresh.refuseDropped(); err != nil {
			return err
		}
		p.mu.Lock()
		p.packState, p.stored = fresh.packState, fresh.stored
		p.mu.Unlock()
		p.snap = fresh.snap
	}
	p.mu.Lock()
	obj, gen, from := p.obj(), p.gen, p.end
	p.mu.Unlock()
	n, err := p.backend.Size(obj)
	if err != nil {
		return fmt.Errorf("store: pack %s: %w", obj, err)
	}
	if n < from {
		return fmt.Errorf("%w: pack %s is %d bytes, %d of them indexed: truncated under a writer — repair or open read-only", codec.ErrCorrupt, obj, n, from)
	}
	recs, end, corrupt, err := scanPack(p.backend, obj, gen, from, n)
	if err != nil {
		return err
	}
	if corrupt {
		return fmt.Errorf("%w: pack %s holds a corrupt frame at byte %d; write refused — repair or open read-only", codec.ErrCorrupt, obj, end)
	}
	if end < n {
		if err := p.backend.Truncate(obj, end); err != nil {
			return err
		}
	}
	p.adopt(recs, end)
	return nil
}

// refuseDropped refuses writes to a pool whose pack open dropped: shorter
// than the snapshot covers, holding snapshot records that locate no raw
// frame in it or a corrupt frame, or retired by GC. Readers degrade
// gracefully; a writer appending to a rewound pack would commit frames at
// offsets the snapshot still claims, one cutting at a corrupt frame would
// lose the whole frames past it, and one appending to a retired pack would
// commit frames the next GC pass deletes.
func (p *ChunkPool) refuseDropped() error {
	if p.dropped == "" {
		return nil
	}
	return fmt.Errorf("%w: pack %s is missing, truncated, corrupt or retired by gc, or its committed chunk records are invalid; writable open refused — repair or open read-only",
		codec.ErrCorrupt, p.dropped)
}

func (p *ChunkPool) indexPath() string { return filepath.Join(p.root, poolIndexFile) }

// persistIndex writes the INDEX snapshot whole, by write-then-rename, and
// notes the new file: the pack record and chunk records of next (a
// compaction's new generation) or, when nil, of the live index, the chunk
// records in an order that keeps a snapshot reproducible, which it returns.
// The caller holds the commit lock.
func (p *ChunkPool) persistIndex(next *packState) ([]poolChunkRec, error) {
	p.mu.Lock()
	st := next
	if st == nil {
		st = &p.packState
	}
	buf := frameTagged(recShard, encodeShardRecord(shardRecord{0, st.gen, st.end}))
	recs := make([]poolChunkRec, 0, len(st.chunks))
	for h, loc := range st.chunks {
		recs = append(recs, poolChunkRec{h, loc})
	}
	p.mu.Unlock()
	slices.SortFunc(recs, func(a, b poolChunkRec) int {
		return cmp.Or(cmp.Compare(a.loc.Gen, b.loc.Gen), cmp.Compare(a.loc.Off, b.loc.Off), bytes.Compare(a.hash[:], b.hash[:]))
	})
	for _, cr := range recs {
		buf = append(buf, frameTagged(recChunk, encodeChunkRecord(cr.hash, cr.loc))...)
	}
	if err := writeFileAtomic(p.indexPath(), buf); err != nil {
		return nil, fmt.Errorf("store: write INDEX snapshot: %w", err)
	}
	fi, err := os.Stat(p.indexPath())
	if err != nil {
		return nil, fmt.Errorf("store: write INDEX snapshot: %w", err)
	}
	p.snap = fi
	return recs, nil
}

// leaseEntry derives the path a lease stores for a run directory:
// pool-root-relative whenever one exists, mirroring the run manifest's
// run-dir-relative pool reference, so a project tree (runs + POOL) that
// relocates as a unit keeps its leases valid — GC after a `mv` must not
// mistake every run for deleted and reclaim the family's chunks.
func leaseEntry(poolRoot, runDir string) (string, error) {
	abs, err := canonicalPath(runDir)
	if err != nil {
		return "", err
	}
	if rel, rerr := filepath.Rel(poolRoot, abs); rerr == nil {
		return rel, nil
	}
	return abs, nil
}

// leaseNameRune sanitizes one rune for a lease file name.
func leaseNameRune(r rune) rune {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		return r
	default:
		return '-'
	}
}

// leaseScratchPrefix starts the name of writeLease's scratch copy of a
// lease. No lease name can start with it (each starts with a hex hash), so
// a scratch copy a crash left behind is never read as a lease.
const leaseScratchPrefix = "."

// leaseCandidates returns the file paths a lease entry may occupy, in
// probe order: the short-hash name, then a long-hash fallback used only
// when two distinct entries collide under the short hash. A lease file is
// authoritative for an entry only if its CONTENT matches — an
// existence-only check would merge two colliding runs' refcounts, and
// deleting one would unpin the other's chunks.
func leaseCandidates(poolRoot, entry string) [2]string {
	dir, base := filepath.Join(poolRoot, poolLeaseDir), strings.Map(leaseNameRune, filepath.Base(entry))
	h32, h64 := fnv.New32a(), fnv.New64a()
	h32.Write([]byte(entry))
	h64.Write([]byte(entry))
	return [2]string{
		filepath.Join(dir, fmt.Sprintf("%08x-%s", h32.Sum32(), base)),
		filepath.Join(dir, fmt.Sprintf("%016x-%s", h64.Sum64(), base)),
	}
}

// readLease reads the lease file at path: its entry (its bytes less
// writeLease's newline: a run directory's name may end in a space), and
// whether it is sound — not empty, and named for its entry. An unsound lease
// is torn: "../run-tor" for "../run-torn" names no live run.
func readLease(path string) (entry string, sound bool, err error) {
	raw, err := os.ReadFile(path)
	entry = strings.TrimSuffix(string(raw), "\n")
	cands := leaseCandidates("", entry)
	name := filepath.Base(path)
	return entry, err == nil && entry != "" && (name == filepath.Base(cands[0]) || name == filepath.Base(cands[1])), err
}

// findLease locates the lease file whose content is exactly entry; ok is
// false when none exists.
func findLease(poolRoot, entry string) (path string, ok bool) {
	for _, cand := range leaseCandidates(poolRoot, entry) {
		if held, sound, _ := readLease(cand); sound && held == entry {
			return cand, true
		}
	}
	return "", false
}

// writeLease records a run's attachment to the pool (idempotent): the lease
// is the run's refcount — pool GC treats every chunk referenced by a leased
// run's committed checkpoints as live. It writes at the short-hash name
// unless another run's lease holds it, overwriting a torn file there. The
// caller holds the commit lock.
func (p *ChunkPool) writeLease(runDir string) error {
	entry, err := leaseEntry(p.root, runDir)
	if err != nil {
		return err
	}
	if _, ok := findLease(p.root, entry); ok {
		return nil
	}
	cands := leaseCandidates(p.root, entry)
	path := cands[0]
	if _, sound, _ := readLease(path); sound {
		path = cands[1] // short-hash collision with a different run
		if _, sound, _ := readLease(path); sound {
			return fmt.Errorf("store: lease name collision for %q (both candidates taken)", entry)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: lease: %w", err)
	}
	scratch := filepath.Join(filepath.Dir(path), leaseScratchPrefix+filepath.Base(path))
	if err := writeFileVia(scratch, path, []byte(entry+"\n")); err != nil {
		return fmt.Errorf("store: write lease: %w", err)
	}
	return nil
}

// removeLease releases the lease of the run whose entry is entry, and a torn
// file at one of its names, which would stop every GC pass for good; missing
// leases are not an error. The caller holds the commit lock.
func removeLease(poolRoot, entry string) error {
	for _, cand := range leaseCandidates(poolRoot, entry) {
		if held, sound, err := readLease(cand); err == nil && (!sound || held == entry) {
			if err := os.Remove(cand); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("store: remove lease: %w", err)
			}
		}
	}
	return nil
}

// leases returns the entries of the runs currently attached to the pool
// (relative ones are relative to the pool root). Like the GC mark it
// feeds, it fails closed: an unreadable, empty or torn lease (readLease) is
// an error naming the file. Only writeLease's scratch copies are skipped,
// and a lease deleted mid-scan.
func (p *ChunkPool) leases() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(p.root, poolLeaseDir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read leases: %w", err)
	}
	var held []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), leaseScratchPrefix) {
			continue
		}
		path := filepath.Join(p.root, poolLeaseDir, e.Name())
		entry, sound, err := readLease(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			continue
		case err != nil:
			return nil, fmt.Errorf("store: read lease %s: %w", e.Name(), err)
		case entry == "":
			return nil, fmt.Errorf("store: lease %s is empty: the run it pinned is unknown, so no chunk can be reclaimed", path)
		case !sound:
			return nil, fmt.Errorf("store: lease %s holds %q but is not named for it (a torn write?): the run it pinned is unknown, so no chunk can be reclaimed", path, entry)
		}
		held = append(held, entry)
	}
	sort.Strings(held)
	return held, nil
}

// ---------------------------------------------------------------------------
// GC: mark, compact, grace-period pack retirement

// GCOptions configures a chunk-reclaiming GC pass.
type GCOptions struct {
	// PackRetention overrides how long replaced pack generations stay on
	// disk for concurrent readers (DefaultPackRetention when zero). A later
	// GC pass deletes generations whose retention expired. Size it above
	// the longest-lived reader of the store: a reader resolves chunk
	// locations when it opens (or re-opens) the store, so a serving daemon
	// whose open-store cache can hold a run longer than the retention must
	// either use a larger retention or bound its cache residency —
	// locations resolved before a compaction are only guaranteed readable
	// within the grace period.
	PackRetention time.Duration
}

func (o GCOptions) retention() time.Duration {
	if o.PackRetention > 0 {
		return o.PackRetention
	}
	return DefaultPackRetention
}

// GCResult reports what a GC pass reclaimed.
type GCResult struct {
	// Superseded is the number of superseded checkpoints whose meta records
	// the manifest rewrite dropped.
	Superseded int
	// DeadChunks is the number of superseded chunks compacted away.
	DeadChunks int
	// ReclaimedBytes is the encoded pack volume those chunks occupied; the
	// bytes return to the filesystem when the retired generations expire.
	ReclaimedBytes int64
	// CompactedShards counts packs rewritten to a new generation: 0 or 1.
	CompactedShards int
	// RetiredPacks counts pack generations newly scheduled for deletion.
	RetiredPacks int
	// DeletedPacks counts retired generations whose grace period expired
	// and which were deleted by this pass.
	DeletedPacks int
}

// poolChunkRec is one chunk record: a hash and its location.
type poolChunkRec struct {
	hash ckptfmt.Hash
	loc  chunkLoc
}

func (p *ChunkPool) packGCPath() string { return filepath.Join(p.root, packGCFile) }

// readPackGC loads the retired-pack schedule: object name → deletion
// deadline (unix nanoseconds).
func (p *ChunkPool) readPackGC() map[string]int64 {
	out := map[string]int64{}
	raw, err := os.ReadFile(p.packGCPath())
	if err != nil {
		return out
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		var name string
		var ddl int64
		if _, err := fmt.Sscanf(ln, "%s %d", &name, &ddl); err == nil {
			out[name] = ddl
		}
	}
	return out
}

func (p *ChunkPool) writePackGC(sched map[string]int64) error {
	names := make([]string, 0, len(sched))
	for n := range sched {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %d\n", n, sched[n])
	}
	if err := writeFileAtomic(p.packGCPath(), []byte(b.String())); err != nil {
		return fmt.Errorf("store: save pack retirement state: %w", err)
	}
	return nil
}

// gc is the chunk-reclaiming GC pass, of a pool of one (Store.GCWith) and
// of a shared pool (GCPool) alike. It marks every chunk hash a committed
// checkpoint of one of the pool's runs references, reading their MANIFESTs
// (markRun), compacts the pack when it holds a chunk or bytes nothing live
// references, and commits by replacing the INDEX snapshot. The caller holds
// the commit lock for the whole pass, so any checkpoint that deduplicated
// against an indexed chunk is committed by the time the mark looks.
func (p *ChunkPool) gc(o GCOptions) (GCResult, error) {
	var res GCResult

	// The pass runs outside any query, so it records itself as a background
	// task: each phase becomes a span, served at /v1/debug/tasks.
	task := obs.BeginTask("gc")
	defer task.End()
	ttr := task.Trace()
	phaseStart := ttr.Now()
	phase := func(name string, attrs map[string]int64) {
		now := ttr.Now()
		ttr.Add(obs.Span{Name: name, StartNs: phaseStart, DurNs: now - phaseStart, Attrs: attrs})
		phaseStart = now
	}

	// Mark under the commit lock: a put holds it from its dedup probe to its
	// MANIFEST append, so no checkpoint that deduplicated against a chunk
	// this pass is about to drop is in flight.
	runs, err := p.runs()
	if err != nil {
		return res, err
	}
	live := map[ckptfmt.Hash]bool{}
	for _, runDir := range runs {
		if err := markRun(runDir, live); err != nil {
			return res, fmt.Errorf("store: gc: %s: %w", runDir, err)
		}
	}
	obs.C(obs.MStoreGCMarkedChunks).Add(int64(len(live)))
	phase("mark", map[string]int64{"live_chunks": int64(len(live))})

	now := time.Now()
	sched := p.readPackGC()

	// Phase 1: delete retired generations whose grace period expired, and
	// adopt any stray superseded generations a crashed pass leaked (every
	// generation below the active one is by construction replaced, and the
	// snapshot keeps the generation however few chunks it holds).
	for name, ddl := range sched {
		if now.UnixNano() < ddl {
			continue
		}
		if err := p.backend.Remove(name); err != nil {
			return res, fmt.Errorf("store: gc: remove retired pack %s: %w", name, err)
		}
		delete(sched, name)
		res.DeletedPacks++
	}
	for g := 0; g < p.gen; g++ {
		obj := packObjName(packFile, g)
		if _, scheduled := sched[obj]; scheduled {
			continue
		}
		if n, err := p.backend.Size(obj); err == nil && n > 0 {
			sched[obj] = now.Add(o.retention()).UnixNano()
			res.RetiredPacks++
		}
	}
	phase("tombstone", map[string]int64{"deleted_packs": int64(res.DeletedPacks), "retired_packs": int64(res.RetiredPacks)})

	// Phase 2: sweep the index against the live set. The pack is compacted
	// when it holds bytes no live chunk occupies: a dead chunk's frame, or a
	// frame a failed or crashed put left that duplicates an earlier one.
	p.mu.Lock()
	oldObj, deadBytes := p.obj(), p.end
	next := &packState{gen: p.gen + 1, chunks: map[ckptfmt.Hash]chunkLoc{}}
	var keep []poolChunkRec // the survivors, in pack order
	for h, loc := range p.chunks {
		if live[h] {
			keep = append(keep, poolChunkRec{h, loc})
			deadBytes -= int64(loc.EncLen)
		} else {
			res.DeadChunks++
		}
	}
	p.mu.Unlock()
	phase("sweep", map[string]int64{"dead_bytes": deadBytes})
	if deadBytes <= 0 {
		return res, p.writePackGC(sched)
	}

	// Phase 3: rewrite the survivors into the next pack generation. No
	// in-memory state changes yet — readers keep resolving against the
	// current generation, whose object is never mutated.
	if len(keep) > 0 {
		slices.SortFunc(keep, func(a, b poolChunkRec) int { return cmp.Compare(a.loc.Off, b.loc.Off) })
		if err := p.rewrite(oldObj, keep, next); err != nil {
			return res, err
		}
	}
	phase("rewrite", map[string]int64{"kept_chunks": int64(len(keep))})

	// Phase 4: commit — atomically replace the INDEX snapshot. Until this
	// succeeds, disk and memory both still describe the old generation.
	recs, err := p.persistIndex(next)
	if err != nil {
		return res, err
	}
	phase("persist", map[string]int64{"records": int64(len(recs))})

	// Phase 5: swap in-memory state, rebuild the stored-chunk accounting from
	// the records just persisted, and retire the replaced object.
	p.mu.Lock()
	p.packState = *next
	p.stored.Chunks, p.stored.StoredRawBytes, p.stored.StoredEncBytes = int64(len(recs)), 0, 0
	for _, cr := range recs {
		p.stored.StoredRawBytes += int64(cr.loc.RawLen)
		p.stored.StoredEncBytes += int64(cr.loc.EncLen)
	}
	p.mu.Unlock()
	sched[oldObj] = now.Add(o.retention()).UnixNano()
	res.CompactedShards++
	res.RetiredPacks++
	res.ReclaimedBytes = deadBytes
	if err := p.writePackGC(sched); err != nil {
		return res, err
	}
	phase("swap", map[string]int64{"dead_chunks": int64(res.DeadChunks), "reclaimed_bytes": res.ReclaimedBytes})
	return res, nil
}

// rewrite copies the frames keep locates in the pack oldObj, in order, into
// next's generation, and records where each landed in next.
func (p *ChunkPool) rewrite(oldObj string, keep []poolChunkRec, next *packState) error {
	newObj := packObjName(packFile, next.gen)
	src, err := p.backend.Open(oldObj)
	if err != nil {
		return fmt.Errorf("store: gc: open pack %s: %w", oldObj, err)
	}
	defer src.Close()
	dst, err := p.backend.Create(newObj)
	if err != nil {
		return fmt.Errorf("store: gc: create pack %s: %w", newObj, err)
	}
	for _, sv := range keep {
		buf := make([]byte, sv.loc.EncLen)
		if _, err := src.ReadAt(buf, sv.loc.Off); err != nil {
			dst.Abort()
			return fmt.Errorf("store: gc: read pack %s at %d: %w", oldObj, sv.loc.Off, err)
		}
		if _, err := dst.Write(buf); err != nil {
			dst.Abort()
			return fmt.Errorf("store: gc: write pack %s: %w", newObj, err)
		}
		next.chunks[sv.hash] = chunkLoc{Gen: next.gen, Off: next.end, EncLen: sv.loc.EncLen, RawLen: sv.loc.RawLen, Style: sv.loc.Style}
		next.end += int64(sv.loc.EncLen)
	}
	if err := dst.Close(); err != nil {
		return fmt.Errorf("store: gc: commit pack %s: %w", newObj, err)
	}
	return nil
}

// GCPool runs a refcounted GC pass over a shared pool: every chunk
// referenced by a committed checkpoint of any leased run is live; everything
// else is compacted away, with replaced pack generations retained for the
// grace period (see GCOptions.PackRetention). Leases whose run directory no
// longer exists are released (runs) — deleting a run's directory and lease
// (see DeleteRun) is how its chunks' refcounts drop.
func GCPool(root string, o GCOptions) (GCResult, error) {
	// GC must never mint a pool: a writable open of a nonexistent root
	// would create an empty pool tree, turning a typo'd path into a silent
	// no-op instead of the error it is.
	if _, err := os.Stat(filepath.Join(root, poolMarkerFile)); err != nil {
		return GCResult{}, fmt.Errorf("store: pool gc: %s is not a chunk pool: %w", root, err)
	}
	p, err := openSharedPool(root, false)
	if err != nil {
		return GCResult{}, err
	}
	unlock, err := p.lock()
	if err != nil {
		return GCResult{}, err
	}
	defer unlock()
	res, err := p.gc(o)
	if err == nil {
		recordGCMetrics(res)
	}
	return res, err
}

// runs returns the run directories whose committed checkpoints keep the
// pool's chunks live: a pool of one's own directory, or every leased run of
// a shared pool. A lease whose run directory is gone no longer pins
// anything, and is released.
func (p *ChunkPool) runs() ([]string, error) {
	if !p.shared {
		return []string{p.root}, nil
	}
	leases, err := p.leases()
	if err != nil {
		return nil, err
	}
	var runs []string
	for _, entry := range leases {
		runDir := resolveRunPath(p.root, entry)
		if _, serr := os.Stat(runDir); errors.Is(serr, os.ErrNotExist) {
			if err := removeLease(p.root, entry); err != nil {
				return nil, err
			}
			continue
		}
		runs = append(runs, runDir)
	}
	return runs, nil
}

// markRun adds every chunk a run's committed checkpoints reference to live,
// reading its MANIFEST as open does. The mark is the sole safety input to
// an irreversible compaction, so a run it cannot read — a directory that
// does not decode, or a layout an older build left (ErrLegacyLayout, naming
// the run) — fails the whole pass rather than counting as referencing
// nothing.
func markRun(runDir string, live map[ckptfmt.Hash]bool) error {
	if _, err := detectDir(runDir); err != nil {
		return err
	}
	_, _, err := scanLog(filepath.Join(runDir, manifestFile), decodeManifestRecord, func(rec manifestRecord) error {
		switch {
		case dirless(rec):
			return legacyLayout(runDir, "a store whose manifest holds segment-file checkpoints")
		case rec.tag != recMeta:
		case rec.e.dirErr != nil:
			return fmt.Errorf("gc mark: %w", rec.e.dirErr)
		default:
			for _, sec := range rec.e.dir.Sections {
				for _, ref := range sec.Chunks {
					live[ref.Hash] = true
				}
			}
		}
		return nil
	})
	return err
}

// DeleteRun deletes a recorded run directory, then releases its pool lease
// when the run is attached to a shared pool — the "refcount decrement" that
// lets a later GCPool pass reclaim the chunks only this run referenced. It
// holds the pool's commit lock, so no GC pass marks between the two. The
// directory goes first: a crash in between leaves a stale lease pointing at
// a missing run (harmless; the next GC releases it), whereas the reverse
// order would leave a live run unpinned. The lease is removed without
// opening the pool: a writable open would resurrect an already-deleted pool
// directory.
func DeleteRun(dir string) error {
	root, pooled, perr := PoolRef(dir)
	if perr != nil || !pooled {
		return os.RemoveAll(dir)
	}
	unlock, err := lockRoot(root)
	if errors.Is(err, os.ErrNotExist) {
		return os.RemoveAll(dir) // the pool is gone, and its leases with it
	}
	if err != nil {
		return err
	}
	defer unlock()
	// The entry is derived from the run path while it still exists.
	entry, err := leaseEntry(root, dir)
	if err == nil {
		err = os.RemoveAll(dir)
	}
	if err != nil {
		return err
	}
	return removeLease(root, entry)
}
