package store

// pool.go implements the ChunkPool: the run-agnostic chunk layer under the
// checkpoint store. A pool owns the hash-prefix shard table — per-shard
// append locks, the content-addressed dedup index, pack objects behind a
// Backend — the INDEX its chunk records are committed to, and refcount-style
// garbage collection of superseded chunks via generational pack compaction.
//
// Every v2 store runs on a pool, and every pool keeps its chunk records in
// the INDEX at its root; a run's MANIFEST holds only its meta records (and a
// pooled run's pool reference). A private store is a pool of one: its root
// is the run directory, and that run is the only one it marks. A *shared*
// pool lives in its own directory (conventionally <project>/POOL) and is
// attached by many runs of the same project, each holding a lease:
//
//	<root>/POOL          marker: "pool1 shards=N" (shared pools)
//	<root>/INDEX         append-only CRC-framed chunk records ('C')
//	<root>/LEASES/<id>   one lease file per attached run (shared pools)
//	<root>/PACKGC        retired pack generations awaiting expiry
//	<root>/CHUNKS[-xx][.gN] pack objects, generational after compaction
//
// A pool's in-memory state is built one way, by open, from its files. A
// read-only attach opens a snapshot of its own, as a read-only pool of one
// does. Writers in one process share one instance per resolved root (the
// registry), so concurrent sibling-run records share one shard table and
// its locks; every writable attach reloads that instance from the files, so
// it holds what another process committed before the attach. Cross-process
// concurrent *writers* against one pool are not coordinated; serving and
// replay open pools read-only.
//
// # GC and the grace period
//
// GC marks every chunk a committed checkpoint of one of the pool's runs
// references, reading their MANIFESTs. Compaction never mutates a pack in
// place: survivors of shard S at generation g are rewritten into the pack
// object for generation g+1, the INDEX is atomically rewritten, and only
// then does the in-memory shard swap to the new generation. The replaced
// object is a grace-period tombstone: it stays on disk, readable by any
// store that resolved chunk locations before the swap (including concurrent
// OpenReadOnly stores in other processes), until a later GC pass finds its
// retirement deadline expired in PACKGC and deletes it.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
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

// ErrStalePack reports a read through an index that GC in another process
// has outrun: a pack generation whose grace period expired after the reader
// resolved chunk locations. The reader's in-memory index is stale, not the
// data — re-opening the store resolves the current generation and the
// successor checkpoints. Long-lived readers (the serving daemon's store
// cache) catch this to refresh and retry.
var ErrStalePack = errors.New("store: pack generation retired by gc")

// chunkLoc locates one content-addressed frame inside its shard's pack
// generation.
type chunkLoc struct {
	Gen    int   // pack generation (0 = the original pack object)
	Off    int64 // offset within the generation's pack object
	EncLen int
	RawLen int
	Style  byte
}

// poolShard is one hash-prefix slice of a chunk pool: an independently
// appendable pack object plus its level-two dedup map. Every shard has its
// own lock, so appends and index probes on different shards never contend.
// All live index entries of a shard share the shard's active generation.
type poolShard struct {
	name string // base pack object name within the backend

	mu      sync.Mutex
	gen     int // active pack generation
	chunks  map[ckptfmt.Hash]chunkLoc
	packLen int64 // committed length of the active generation's object
	// broken latches the first append failure whose length resync also
	// failed: packLen can no longer be trusted, and appending at an unknown
	// offset would commit wrong-offset chunk records. Reads stay valid.
	broken error
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

// obj returns the shard's active pack object name. Callers hold sh.mu or
// have exclusive access.
func (sh *poolShard) obj() string { return packObjName(sh.name, sh.gen) }

// PoolStats is a chunk pool's storage accounting, pool-wide (for a private
// pool this equals the run's own dedup accounting).
type PoolStats struct {
	Root           string `json:"root,omitempty"`
	Fanout         int    `json:"fanout"`
	Leases         int    `json:"leases"` // attached runs (shared pools only)
	Chunks         int64  `json:"chunks"`
	StoredRawBytes int64  `json:"stored_raw_bytes"`
	StoredEncBytes int64  `json:"stored_enc_bytes"`
}

// ChunkPool is the run-agnostic chunk layer: shard table, dedup index, pack
// I/O and GC. It is safe for concurrent use by many stores.
type ChunkPool struct {
	root   string // holds INDEX and PACKGC: the run directory of a pool of one, a shared pool's own
	shared bool   // attached by leased runs (writable instances are registered process-wide)
	fanout int

	backend Backend

	// gcMu fences compaction against the chunk write path: a put holds the
	// read side from fresh-chunk filtering through its manifest commit, and
	// GC the write side for its whole pass, so GC's mark (which reads
	// committed directories) can never miss a chunk an in-flight checkpoint
	// is about to reference. Lock order: gcMu before any shard.mu or
	// Store.mu.
	gcMu sync.RWMutex

	mu       sync.Mutex
	readOnly bool
	stored   PoolStats // Chunks/StoredRawBytes/StoredEncBytes upkeep
	dropped  []string  // packs whose records are invalid or point past the pack's real end
	index    recordLog // INDEX; appends hold mu

	shardTab []*poolShard // two-level dedup index: shardTab[shardOf(h)].chunks[h]

	// Per-tier fetch counters, resolved once at construction (nil and
	// branch-free when the registry is disabled — the fetch hot path must
	// not allocate when nobody is watching).
	mFetchBytes  [numTiers]*obs.Counter
	mFetchFrames [numTiers]*obs.Counter
}

// open builds the shard table and replays the chunk records: those a
// read-only legacy store keeps in its MANIFEST (legacy.go; nil otherwise),
// then the pool's INDEX. finishOpen then resolves pack generations and
// lengths and drops records no pack holds.
func (p *ChunkPool) open(manifest []manifestRecord) error {
	p.initShards()
	p.index = recordLog{path: filepath.Join(p.root, poolIndexFile)}
	adoptManifestChunks(p, manifest)
	if err := p.replayIndex(); err != nil {
		return err
	}
	return p.finishOpen()
}

// shards is built once at pool construction and never resized; the slice
// itself is immutable (individual shards have their own locks).
func (p *ChunkPool) initShards() {
	p.initFetchMetrics()
	if p.fanout <= 1 {
		p.fanout = 1
		p.shardTab = []*poolShard{{name: packFile, chunks: map[ckptfmt.Hash]chunkLoc{}}}
		return
	}
	p.shardTab = make([]*poolShard, p.fanout)
	for i := range p.shardTab {
		p.shardTab[i] = &poolShard{name: fmt.Sprintf("%s-%02x", packFile, i), chunks: map[ckptfmt.Hash]chunkLoc{}}
	}
}

// initFetchMetrics resolves the per-tier fetch counters; called from every
// pool constructor right after initShards.
func (p *ChunkPool) initFetchMetrics() {
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

// Fanout returns the pool's shard count.
func (p *ChunkPool) Fanout() int { return p.fanout }

// shardOf maps a content hash to its shard index: the hash's top byte
// masked to the fanout. The shard is a pure function of the hash, so chunk
// records never need to name it.
func (p *ChunkPool) shardOf(h ckptfmt.Hash) int {
	return int(h[0]) & (p.fanout - 1)
}

// adopt installs one replayed chunk record (first record wins, matching
// write-order dedup) and counts it stored. Used while replaying an INDEX (or
// a legacy MANIFEST) and publishing a put's records; the caller holds p.mu or
// has the pool to itself.
func (p *ChunkPool) adopt(h ckptfmt.Hash, loc chunkLoc) {
	sh := p.shardTab[p.shardOf(h)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.chunks[h]; !dup {
		sh.chunks[h] = loc
		p.stored.Chunks++
		p.stored.StoredRawBytes += int64(loc.RawLen)
		p.stored.StoredEncBytes += int64(loc.EncLen)
	}
	if loc.Gen > sh.gen {
		sh.gen = loc.Gen
	}
}

// finishOpen completes initialization after records were adopted: resolves
// each shard's active generation and pack length, drops records from stale
// generations and records that are not valid in their pack (remembering the
// pack in dropped), and rebuilds the stored-chunk accounting. It runs once,
// at the end of open, before the pool is shared.
func (p *ChunkPool) finishOpen() error {
	p.stored = PoolStats{Root: p.root, Fanout: p.fanout}
	for _, sh := range p.shardTab {
		n, err := p.backend.Size(sh.obj())
		if err != nil {
			return fmt.Errorf("store: shard %s: %w", sh.obj(), err)
		}
		sh.mu.Lock()
		sh.packLen = max(sh.packLen, n)
		bad := false
		for h, loc := range sh.chunks {
			if loc.Gen != sh.gen || !loc.valid(sh.packLen) {
				// A record from a superseded generation, with a negative
				// field or a raw length its frame cannot hold, or pointing
				// past the pack's real end (pack lost or truncated — never
				// a crash artifact, since pack bytes land before records).
				// Drop it and let reads of referencing checkpoints surface
				// ErrCorrupt.
				delete(sh.chunks, h)
				bad = true
				continue
			}
			p.stored.Chunks++
			p.stored.StoredRawBytes += int64(loc.RawLen)
			p.stored.StoredEncBytes += int64(loc.EncLen)
		}
		sh.mu.Unlock()
		if bad && !slices.Contains(p.dropped, sh.obj()) {
			p.dropped = append(p.dropped, sh.obj())
		}
	}
	sort.Strings(p.dropped)
	return nil
}

// dropMismatched drops every chunk record whose raw length disagrees with
// the one a directory in dirs gives its hash, as finishOpen drops a record
// its pack cannot hold: the pack goes into dropped, and the record out of
// the index and the stored-chunk accounting.
func (p *ChunkPool) dropMismatched(dirs []*ckptfmt.Directory) {
	for _, d := range dirs {
		for _, sec := range d.Sections {
			for _, ref := range sec.Chunks {
				sh := p.shardTab[p.shardOf(ref.Hash)]
				sh.mu.Lock()
				loc, ok := sh.chunks[ref.Hash]
				bad, obj := ok && loc.RawLen != ref.RawLen, sh.obj()
				if bad {
					delete(sh.chunks, ref.Hash)
				}
				sh.mu.Unlock()
				if bad {
					p.mu.Lock()
					p.stored.Chunks--
					p.stored.StoredRawBytes -= int64(loc.RawLen)
					p.stored.StoredEncBytes -= int64(loc.EncLen)
					if !slices.Contains(p.dropped, obj) {
						p.dropped = append(p.dropped, obj)
					}
					p.mu.Unlock()
				}
			}
		}
	}
}

// droppedPacks names packs whose committed chunk records pointed past the
// pack's real end at open (pack lost or truncated), held a negative offset
// or length, or gave a raw length that their frame or a live directory
// contradicts. Read-only opens degrade gracefully; writable opens refuse,
// because appending to a rewound pack would re-commit hashes at offsets the
// old records still claim.
func (p *ChunkPool) droppedPacks() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.dropped...)
}

// Stats returns a snapshot of the pool's storage accounting (lease count
// refreshed from disk for shared pools).
func (p *ChunkPool) Stats() PoolStats {
	p.mu.Lock()
	st := p.stored
	p.mu.Unlock()
	if p.shared {
		if leases, err := p.leases(); err == nil {
			st.Leases = len(leases)
		}
	}
	return st
}

// filterFresh probes the dedup index and returns, in ascending order, the
// indices of hashes not stored yet (deduplicating repeats within the batch
// too).
func (p *ChunkPool) filterFresh(hashes []ckptfmt.Hash) []int {
	byShard := map[int][]int{}
	for i, h := range hashes {
		si := p.shardOf(h)
		byShard[si] = append(byShard[si], i)
	}
	var newIdx []int
	fresh := map[ckptfmt.Hash]bool{}
	for si, idxs := range byShard {
		sh := p.shardTab[si]
		sh.mu.Lock()
		for _, i := range idxs {
			h := hashes[i]
			if _, ok := sh.chunks[h]; !ok && !fresh[h] {
				fresh[h] = true
				newIdx = append(newIdx, i)
			}
		}
		sh.mu.Unlock()
	}
	sort.Ints(newIdx) // deterministic frame order regardless of shard map iteration
	return newIdx
}

// appendFrames appends freshly encoded frames to their hash shards' packs —
// each involved shard appends under its own lock, concurrently with the other
// shards — and returns each frame's committed location. A shard's frames go
// out as one backend append: their wire lengths are known up front
// (Frame.WireLen), so they are staged once, at their exact size, in a span of
// the ckptfmt.Shared scratch arena that goes back the moment the append
// returns. Nothing section-sized stays reachable from the pool or its shards
// after a put — a recording's store outlives its puts by the whole life of
// the Recording. It then appends the frames' chunk records to the INDEX and
// publishes their locations to the in-memory dedup index. Callers hold
// p.gcMu.RLock (via Store.putV2).
func (p *ChunkPool) appendFrames(frames []ckptfmt.Frame) ([]chunkLoc, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	frameShards := map[int][]int{} // shard index -> indices into frames
	for i := range frames {
		si := p.shardOf(frames[i].Hash)
		frameShards[si] = append(frameShards[si], i)
	}
	involved := make([]int, 0, len(frameShards))
	for si := range frameShards {
		involved = append(involved, si)
	}
	locs := make([]chunkLoc, len(frames))
	appendErrs := make([]error, len(involved))
	ckptfmt.ParallelDo(len(involved), func(k int) {
		sh := p.shardTab[involved[k]]
		idxs := frameShards[involved[k]]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if sh.broken != nil {
			appendErrs[k] = fmt.Errorf("store: shard %s unusable after failed append: %w", sh.name, sh.broken)
			return
		}
		off := sh.packLen
		for _, i := range idxs {
			wire := frames[i].WireLen()
			locs[i] = chunkLoc{Gen: sh.gen, Off: off, EncLen: wire, RawLen: frames[i].RawLen, Style: frames[i].Style}
			off += int64(wire)
		}
		span := ckptfmt.Shared.Get(int(off - sh.packLen))
		defer ckptfmt.Shared.Put(span)
		buf := span[:0]
		for _, i := range idxs {
			buf = frames[i].Append(buf)
		}
		if err := p.backend.Append(sh.obj(), buf); err != nil {
			// A partial append leaves the pack length unknown; resync from
			// the backend so later appends don't commit bad offsets. If even
			// the resync fails, latch the shard broken: appending at a
			// guessed offset would poison the records permanently.
			if n, serr := p.backend.Size(sh.obj()); serr == nil {
				sh.packLen = n
			} else {
				sh.broken = err
			}
			appendErrs[k] = fmt.Errorf("store: shard %s: %w", sh.name, err)
			return
		}
		sh.packLen = off
	})
	for _, err := range appendErrs {
		if err != nil {
			return nil, err
		}
	}
	// Durable record first, then in-memory publication: a chunk becomes
	// dedup-visible to any put only once its INDEX record can survive a
	// crash.
	if err := p.appendIndexRecords(frames, locs); err != nil {
		return nil, err
	}
	return locs, nil
}

// resolve fills each job's chunk location from the dedup index, locking
// each involved shard exactly once. key names the requesting checkpoint for
// error messages.
func (p *ChunkPool) resolve(jobs []chunkJob, byShard map[int][]int, key Key) error {
	for si, idxs := range byShard {
		sh := p.shardTab[si]
		sh.mu.Lock()
		for _, ji := range idxs {
			loc, ok := sh.chunks[jobs[ji].ref.Hash]
			if !ok {
				sh.mu.Unlock()
				return fmt.Errorf("%w: checkpoint %s references chunk %s absent from shard %s (pack missing, truncated, or collected?)",
					codec.ErrCorrupt, key, jobs[ji].ref.Hash, sh.name)
			}
			jobs[ji].loc = loc
		}
		sh.mu.Unlock()
	}
	return nil
}

// encodeChunkRecord encodes a chunk record's body: the one place a chunk
// record is made (appendIndexRecords, persistIndex).
func encodeChunkRecord(hash ckptfmt.Hash, loc chunkLoc) []byte {
	w := codec.NewWriter()
	w.RawBytes(hash[:])
	w.Int(int(loc.Off))
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
// unframes it, from an INDEX or a legacy MANIFEST).
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
	off, err := r.Int()
	if err != nil {
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
	loc.Off = int64(off)
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

// ---------------------------------------------------------------------------
// Shared-pool persistence: marker, INDEX, leases, registry

// poolRegistry holds the process's one writable instance of each shared
// pool, keyed by resolved root: sibling runs recording in one process share
// its shard table and locks, so their appends never interleave offsets.
var poolRegistry = struct {
	sync.Mutex
	m map[string]*ChunkPool
}{m: map[string]*ChunkPool{}}

// resolvePoolRoot canonicalizes a pool root for the registry key. The key
// must be identical before and after the root exists: a symlinked prefix
// (e.g. a linked workspace) resolved only once the directory appears would
// register two ChunkPool instances over the same files, and their
// independent packLen tracking would interleave corrupt offsets. So a
// nonexistent tail is resolved against its deepest existing ancestor.
func resolvePoolRoot(root string) (string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "", fmt.Errorf("store: pool root: %w", err)
	}
	return resolveExistingPrefix(filepath.Clean(abs)), nil
}

// resolveExistingPrefix resolves symlinks in the longest existing prefix of
// p, rejoining the (not yet created) remainder verbatim.
func resolveExistingPrefix(p string) string {
	if resolved, err := filepath.EvalSymlinks(p); err == nil {
		return resolved
	}
	parent := filepath.Dir(p)
	if parent == p {
		return p
	}
	return filepath.Join(resolveExistingPrefix(parent), filepath.Base(p))
}

// poolMarker renders the pool marker file contents.
func poolMarker(fanout int) []byte {
	return []byte(fmt.Sprintf("pool1 shards=%d\n", fanout))
}

// parsePoolMarker decodes a POOL marker file. The grammar is exactly
// "pool1 shards=N" — trailing fields a future layout might add are
// refused, like unknown FORMAT markers: misreading an extended pool would
// end in a writable open truncating INDEX records it cannot decode.
func parsePoolMarker(raw []byte) (fanout int, err error) {
	marker := strings.TrimSpace(string(raw))
	fields := strings.Fields(marker)
	if len(fields) == 2 && fields[0] == "pool1" {
		if n, ok := parseShards(fields[1]); ok {
			return n, nil
		}
	}
	return 0, fmt.Errorf("store: unknown pool marker %q (newer pool layout or corrupt POOL file)", marker)
}

// openSharedPool opens the shared pool at root. A read-only attach opens a
// snapshot of the pool's files and registers nothing. A writable attach
// creates the pool directory on first use and returns the process's one
// writable instance for the root, reloaded from the files (reload). fanout 0
// adopts the existing pool's fanout (DefaultShardFanout for new pools); a
// conflicting non-zero fanout is refused, and a writable attach of a pool at
// any other fanout fails with ErrLegacyLayout before it writes.
func openSharedPool(root string, fanout int, readOnly bool) (*ChunkPool, error) {
	key, err := resolvePoolRoot(root)
	if err != nil {
		return nil, err
	}
	if !readOnly {
		// The marker checks below run under the lock too: a writable attach
		// must not race another one that is creating the pool.
		poolRegistry.Lock()
		defer poolRegistry.Unlock()
	}
	markerRaw, merr := os.ReadFile(filepath.Join(key, poolMarkerFile))
	switch {
	case merr == nil:
		got, perr := parsePoolMarker(markerRaw)
		if perr != nil {
			return nil, perr
		}
		if fanout != 0 && fanout != got {
			return nil, fmt.Errorf("store: pool %s has fanout %d (fanout %d requested)", key, got, fanout)
		}
		if !readOnly && got != DefaultShardFanout {
			return nil, legacyLayout(key, fmt.Sprintf("a chunk pool at fanout %d", got))
		}
		fanout = got
	case errors.Is(merr, os.ErrNotExist):
		if readOnly {
			return nil, fmt.Errorf("store: pool %s: no POOL marker (not a chunk pool)", key)
		}
		fanout = DefaultShardFanout
		if err := os.MkdirAll(filepath.Join(key, poolLeaseDir), 0o755); err != nil {
			return nil, fmt.Errorf("store: create pool: %w", err)
		}
		if err := writeFileAtomic(filepath.Join(key, poolMarkerFile), poolMarker(fanout)); err != nil {
			return nil, fmt.Errorf("store: write pool marker: %w", err)
		}
	default:
		return nil, fmt.Errorf("store: read pool marker: %w", merr)
	}
	if !readOnly {
		if held, ok := poolRegistry.m[key]; ok {
			return held, held.reload()
		}
	}
	// The root exists — the marker was just read or written — so the plain
	// DirBackend needs no MkdirAll.
	p := &ChunkPool{root: key, shared: true, fanout: fanout, readOnly: readOnly, backend: &DirBackend{roots: []string{key}}}
	if err := p.open(nil); err != nil {
		return nil, err
	}
	if !readOnly {
		poolRegistry.m[key] = p
	}
	return p, nil
}

// reload rebuilds a registered pool's state from its files, so that it
// holds what another process committed since this instance last read them:
// open runs into a scratch pool over the same backend, and each shard's
// generation, chunk index and pack length are installed under the shard's
// lock. It holds the write side of gcMu, so no put of this process is
// between its pack append and its INDEX append, and the files describe
// every chunk this instance published. The caller holds the registry lock.
func (p *ChunkPool) reload() error {
	p.gcMu.Lock()
	defer p.gcMu.Unlock()
	fresh := &ChunkPool{root: p.root, shared: true, fanout: p.fanout, backend: p.backend}
	if err := fresh.open(nil); err != nil {
		return err
	}
	for i, sh := range p.shardTab {
		f := fresh.shardTab[i]
		sh.mu.Lock()
		sh.gen, sh.chunks, sh.packLen = f.gen, f.chunks, f.packLen
		sh.mu.Unlock()
	}
	p.mu.Lock()
	p.stored, p.dropped = fresh.stored, fresh.dropped
	p.mu.Unlock()
	return nil
}

// replayIndex adopts the pool's INDEX records. A torn tail is truncated
// (writable) or skipped (read-only).
func (p *ChunkPool) replayIndex() error {
	raw, err := os.ReadFile(p.index.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: read pool index: %w", err)
	}
	off := 0
	for off < len(raw) {
		rec, consumed, err := decodeManifestRecord(raw[off:], false)
		if err != nil || rec.tag != recChunk {
			break // torn tail
		}
		p.adopt(rec.hash, rec.loc)
		off += consumed
	}
	if off < len(raw) && !p.readOnly {
		if err := os.Truncate(p.index.path, int64(off)); err != nil {
			return fmt.Errorf("store: truncate torn pool index: %w", err)
		}
	}
	return nil
}

// appendIndexRecords durably appends the chunk records of freshly stored
// frames to the INDEX, in one append, and publishes their locations to the
// dedup index (first location wins) and the pool's storage accounting.
func (p *ChunkPool) appendIndexRecords(frames []ckptfmt.Frame, locs []chunkLoc) error {
	var record []byte
	for i := range frames {
		record = append(record, frameTagged(recChunk, encodeChunkRecord(frames[i].Hash, locs[i]))...)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.index.append(record); err != nil {
		return err
	}
	for i := range frames {
		p.adopt(frames[i].Hash, locs[i])
	}
	return nil
}

// persistIndex atomically rewrites the INDEX from the given records — the
// commit point of compaction.
func (p *ChunkPool) persistIndex(recs []poolChunkRec) error {
	var buf []byte
	for _, cr := range recs {
		buf = append(buf, frameTagged(recChunk, encodeChunkRecord(cr.hash, cr.loc))...)
	}
	if err := writeFileAtomic(p.index.path, buf); err != nil {
		return fmt.Errorf("store: rewrite pool index: %w", err)
	}
	return nil
}

// leaseEntry derives the path a lease stores for a run directory:
// pool-root-relative whenever one exists, mirroring the run manifest's
// run-dir-relative pool reference, so a project tree (runs + POOL) that
// relocates as a unit keeps its leases valid — GC after a `mv` must not
// mistake every run for deleted and reclaim the family's chunks.
func leaseEntry(poolRoot, runDir string) (string, error) {
	abs, err := filepath.Abs(runDir)
	if err != nil {
		return "", fmt.Errorf("store: lease: %w", err)
	}
	if resolved, rerr := filepath.EvalSymlinks(abs); rerr == nil {
		abs = resolved
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

// leaseFileName derives a stable lease file name from a lease entry.
func leaseFileName(entry string) string {
	h := fnv.New32a()
	h.Write([]byte(entry))
	return fmt.Sprintf("%08x-%s", h.Sum32(), strings.Map(leaseNameRune, filepath.Base(entry)))
}

// leaseScratchPrefix starts the name of writeLease's scratch copy of a
// lease. No lease name can start with it (leaseFileName starts each with a
// hex hash), so a scratch copy a crash left behind is never read as a lease.
const leaseScratchPrefix = "."

// leaseCandidates returns the file paths a lease entry may occupy, in
// probe order: the short-hash name, then a long-hash fallback used only
// when two distinct entries collide under the short hash. A lease file is
// authoritative for an entry only if its CONTENT matches — an
// existence-only check would merge two colliding runs' refcounts, and
// deleting one would unpin the other's chunks.
func leaseCandidates(poolRoot, entry string) [2]string {
	dir := filepath.Join(poolRoot, poolLeaseDir)
	h64 := fnv.New64a()
	h64.Write([]byte(entry))
	base := filepath.Base(entry)
	return [2]string{
		filepath.Join(dir, leaseFileName(entry)),
		filepath.Join(dir, fmt.Sprintf("%016x-%s", h64.Sum64(), strings.Map(leaseNameRune, base))),
	}
}

// findLease locates the lease file whose content is exactly entry; ok is
// false when none exists.
func findLease(poolRoot, entry string) (path string, ok bool) {
	for _, cand := range leaseCandidates(poolRoot, entry) {
		raw, err := os.ReadFile(cand)
		if err == nil && strings.TrimSpace(string(raw)) == entry {
			return cand, true
		}
	}
	return "", false
}

// writeLease records a run's attachment to the pool (idempotent): the lease
// is the run's refcount — pool GC treats every chunk referenced by a leased
// run's committed checkpoints as live.
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
	if raw, err := os.ReadFile(path); err == nil && strings.TrimSpace(string(raw)) != entry {
		path = cands[1] // short-hash collision with a different run
		if raw, err := os.ReadFile(path); err == nil && strings.TrimSpace(string(raw)) != entry {
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

// removeLease releases a run's attachment; missing leases are not an error.
func (p *ChunkPool) removeLease(runDir string) error {
	entry, err := leaseEntry(p.root, runDir)
	if err != nil {
		return err
	}
	path, ok := findLease(p.root, entry)
	if !ok {
		return nil
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: remove lease: %w", err)
	}
	return nil
}

// leases returns the run directories currently attached to the pool
// (relative entries resolved against the pool root). Like the GC mark it
// feeds, it fails closed: an unreadable or empty lease (writeLease never
// writes one, so it is a crash's torn write) would silently unpin a live
// run's chunks, so it is an error naming the file. Only a lease deleted
// mid-scan (a concurrent DeleteRun) is skipped, and writeLease's scratch
// copies: a lease exists only once it is renamed into place.
func (p *ChunkPool) leases() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(p.root, poolLeaseDir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read leases: %w", err)
	}
	var dirs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), leaseScratchPrefix) {
			continue
		}
		path := filepath.Join(p.root, poolLeaseDir, e.Name())
		raw, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("store: read lease %s: %w", e.Name(), err)
		}
		dir := strings.TrimSpace(string(raw))
		if dir == "" {
			return nil, fmt.Errorf("store: lease %s is empty: the run it pinned is unknown, so no chunk can be reclaimed", path)
		}
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(p.root, dir)
		}
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs, nil
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
	// CompactedShards counts shards rewritten to a new pack generation.
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
// (markRun), compacts every shard holding a chunk or pack bytes nothing
// live references, and commits by rewriting the INDEX. The caller holds
// p.gcMu for the whole pass, so any checkpoint that deduplicated against an
// indexed chunk is committed by the time the mark looks.
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

	// Mark inside the fence: a put's filter→append→commit span holds the
	// read side, so marking before the lock could miss a checkpoint that
	// deduplicated against a chunk this pass is about to drop.
	runs, err := p.runs()
	if err != nil {
		return res, err
	}
	liveSet := map[ckptfmt.Hash]bool{}
	for _, runDir := range runs {
		if err := markRun(runDir, liveSet); err != nil {
			return res, fmt.Errorf("store: gc: %s: %w", runDir, err)
		}
	}
	obs.C(obs.MStoreGCMarkedChunks).Add(int64(len(liveSet)))
	live := func(h ckptfmt.Hash) bool { return liveSet[h] }
	phase("mark", map[string]int64{"live_chunks": int64(len(liveSet))})

	now := time.Now()
	sched := p.readPackGC()

	// Phase 1: delete retired generations whose grace period expired, and
	// adopt any stray superseded generations a crashed pass leaked (every
	// generation below a shard's active one is by construction replaced).
	// A scheduled object that is once again some shard's ACTIVE object is
	// never deleted: a shard compacted down to zero chunks persists no
	// generation records, so a reopen resets it to generation 0 and resumes
	// appending to the very object an earlier pass retired. The stale
	// schedule entry is kept — it becomes deletable again only after a
	// future compaction moves the shard past the object.
	active := make(map[string]bool, len(p.shardTab))
	for _, sh := range p.shardTab {
		sh.mu.Lock()
		active[sh.obj()] = true
		sh.mu.Unlock()
	}
	for name, ddl := range sched {
		if active[name] || now.UnixNano() < ddl {
			continue
		}
		if err := p.backend.Remove(name); err != nil {
			return res, fmt.Errorf("store: gc: remove retired pack %s: %w", name, err)
		}
		delete(sched, name)
		res.DeletedPacks++
	}
	for _, sh := range p.shardTab {
		for g := 0; g < sh.gen; g++ {
			obj := packObjName(sh.name, g)
			if _, scheduled := sched[obj]; scheduled {
				continue
			}
			if n, err := p.backend.Size(obj); err == nil && n > 0 {
				sched[obj] = now.Add(o.retention()).UnixNano()
				res.RetiredPacks++
			}
		}
	}
	phase("tombstone", map[string]int64{"deleted_packs": int64(res.DeletedPacks), "retired_packs": int64(res.RetiredPacks)})

	// Phase 2: sweep each shard's index against the live set. A shard is
	// compacted when it indexes a dead chunk, or when its pack holds bytes
	// no record locates: frames a put appended before a crash or a failed
	// INDEX append cut it short, or the second copy of a chunk two
	// concurrent puts both stored.
	type plan struct {
		sh        *poolShard
		keep      []poolChunkRec // the survivors, in pack order
		dead      int
		deadBytes int64 // the pack bytes compaction drops
	}
	var plans []*plan
	for _, sh := range p.shardTab {
		sh.mu.Lock()
		pl := &plan{sh: sh, deadBytes: sh.packLen}
		for h, loc := range sh.chunks {
			if live(h) {
				pl.keep = append(pl.keep, poolChunkRec{h, loc})
				pl.deadBytes -= int64(loc.EncLen)
			} else {
				pl.dead++
			}
		}
		sh.mu.Unlock()
		if pl.deadBytes > 0 {
			slices.SortFunc(pl.keep, func(a, b poolChunkRec) int { return cmp.Compare(a.loc.Off, b.loc.Off) })
			plans = append(plans, pl)
		}
	}
	phase("sweep", map[string]int64{"dirty_shards": int64(len(plans))})
	if len(plans) == 0 {
		if err := p.writePackGC(sched); err != nil {
			return res, err
		}
		return res, nil
	}

	// Phase 3: rewrite each affected shard's survivors into the next pack
	// generation. No in-memory state changes yet — readers keep resolving
	// against the current generation, whose object is never mutated.
	type swap struct {
		sh      *poolShard
		newGen  int
		newLen  int64
		newMap  map[ckptfmt.Hash]chunkLoc
		oldObj  string
		removed int
		bytes   int64
	}
	var swaps []*swap
	for _, pl := range plans {
		sh, keep := pl.sh, pl.keep
		sh.mu.Lock()
		oldObj, newGen := sh.obj(), sh.gen+1
		sh.mu.Unlock()
		newMap := make(map[ckptfmt.Hash]chunkLoc, len(keep))
		var newLen int64
		if len(keep) > 0 {
			src, err := p.backend.Open(oldObj)
			if err != nil {
				return res, fmt.Errorf("store: gc: open pack %s: %w", oldObj, err)
			}
			dst, err := p.backend.Create(packObjName(sh.name, newGen))
			if err != nil {
				src.Close()
				return res, fmt.Errorf("store: gc: create pack %s: %w", packObjName(sh.name, newGen), err)
			}
			fail := func(err error) (GCResult, error) {
				dst.Abort()
				src.Close()
				return res, err
			}
			for _, sv := range keep {
				buf := make([]byte, sv.loc.EncLen)
				if _, err := src.ReadAt(buf, sv.loc.Off); err != nil {
					return fail(fmt.Errorf("store: gc: read pack %s at %d: %w", oldObj, sv.loc.Off, err))
				}
				if _, err := dst.Write(buf); err != nil {
					return fail(fmt.Errorf("store: gc: write pack %s: %w", packObjName(sh.name, newGen), err))
				}
				newMap[sv.hash] = chunkLoc{Gen: newGen, Off: newLen, EncLen: sv.loc.EncLen, RawLen: sv.loc.RawLen, Style: sv.loc.Style}
				newLen += int64(sv.loc.EncLen)
			}
			src.Close()
			if err := dst.Close(); err != nil {
				return res, fmt.Errorf("store: gc: commit pack %s: %w", packObjName(sh.name, newGen), err)
			}
		}
		swaps = append(swaps, &swap{sh: sh, newGen: newGen, newLen: newLen, newMap: newMap,
			oldObj: oldObj, removed: pl.dead, bytes: pl.deadBytes})
	}
	phase("rewrite", map[string]int64{"rewritten_shards": int64(len(swaps))})

	// Phase 4: commit — atomically rewrite the INDEX. Until this succeeds,
	// disk and memory both still describe the old generations.
	next := make(map[*poolShard]map[ckptfmt.Hash]chunkLoc, len(swaps))
	for _, sw := range swaps {
		next[sw.sh] = sw.newMap
	}
	recs := p.records(next)
	if err := p.persistIndex(recs); err != nil {
		return res, err
	}
	phase("persist", map[string]int64{"records": int64(len(recs))})

	// Phase 5: swap in-memory state and retire the replaced objects.
	for _, sw := range swaps {
		sh := sw.sh
		sh.mu.Lock()
		sh.gen = sw.newGen
		sh.chunks = sw.newMap
		sh.packLen = sw.newLen
		sh.mu.Unlock()
		sched[sw.oldObj] = now.Add(o.retention()).UnixNano()
		res.CompactedShards++
		res.RetiredPacks++
		res.DeadChunks += sw.removed
		res.ReclaimedBytes += sw.bytes
	}
	// Rebuild the stored-chunk accounting from the records just persisted.
	p.mu.Lock()
	p.stored.Chunks, p.stored.StoredRawBytes, p.stored.StoredEncBytes = int64(len(recs)), 0, 0
	for _, cr := range recs {
		p.stored.StoredRawBytes += int64(cr.loc.RawLen)
		p.stored.StoredEncBytes += int64(cr.loc.EncLen)
	}
	p.mu.Unlock()
	if err := p.writePackGC(sched); err != nil {
		return res, err
	}
	phase("swap", map[string]int64{"dead_chunks": int64(res.DeadChunks), "reclaimed_bytes": res.ReclaimedBytes})
	return res, nil
}

// records lists the pool's chunk records, a shard's from next where it has
// an entry there (a compaction's new generation) and from the live index
// otherwise, in a deterministic order that keeps a rewritten INDEX
// reproducible.
func (p *ChunkPool) records(next map[*poolShard]map[ckptfmt.Hash]chunkLoc) []poolChunkRec {
	var recs []poolChunkRec
	for _, sh := range p.shardTab {
		sh.mu.Lock()
		chunks, ok := next[sh]
		if !ok {
			chunks = sh.chunks
		}
		for h, loc := range chunks {
			recs = append(recs, poolChunkRec{h, loc})
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(recs, func(a, b poolChunkRec) int {
		return cmp.Or(cmp.Compare(a.loc.Gen, b.loc.Gen), cmp.Compare(a.loc.Off, b.loc.Off), bytes.Compare(a.hash[:], b.hash[:]))
	})
	return recs
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
	key, err := resolvePoolRoot(root)
	if err != nil {
		return GCResult{}, err
	}
	if _, err := os.Stat(filepath.Join(key, poolMarkerFile)); err != nil {
		return GCResult{}, fmt.Errorf("store: pool gc: %s is not a chunk pool: %w", key, err)
	}
	p, err := openSharedPool(root, 0, false)
	if err != nil {
		return GCResult{}, err
	}
	p.gcMu.Lock()
	defer p.gcMu.Unlock()
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
	runs := leases[:0]
	for _, runDir := range leases {
		if _, serr := os.Stat(runDir); errors.Is(serr, os.ErrNotExist) {
			if err := p.removeLease(runDir); err != nil {
				return nil, err
			}
			continue
		}
		runs = append(runs, runDir)
	}
	return runs, nil
}

// markRun adds every chunk a run's committed checkpoints reference to live.
// It decodes the run's MANIFEST with the record decoder open uses (a legacy
// record reads its segment file, and is dropped when that is missing, as at
// open) and stops where open would, at a torn tail. The mark is the sole
// safety input to an irreversible compaction, so a directory it cannot read
// fails the whole pass (retry later) rather than counting as referencing
// nothing.
func markRun(runDir string, live map[ckptfmt.Hash]bool) error {
	raw, err := os.ReadFile(filepath.Join(runDir, manifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("gc mark: %w", err)
	}
	for off := 0; off < len(raw); {
		rec, n, err := decodeManifestRecord(raw[off:], false)
		if err != nil {
			break
		}
		off += n
		if rec.tag != recMeta || (rec.e.dir == nil && rec.e.dirErr == nil && !loadSegment(runDir, rec.e)) {
			continue
		}
		if rec.e.dirErr != nil {
			return fmt.Errorf("gc mark: %w", rec.e.dirErr)
		}
		for _, sec := range rec.e.dir.Sections {
			for _, ref := range sec.Chunks {
				live[ref.Hash] = true
			}
		}
	}
	return nil
}

// DeleteRun deletes a recorded run directory, then releases its pool lease
// when the run is attached to a shared pool — the "refcount decrement" that
// lets a later GCPool pass reclaim the chunks only this run referenced. The
// directory goes first: a crash in between leaves a stale lease pointing at
// a missing run (harmless; the next GC releases it), whereas the reverse
// order would leave a live run unpinned. The lease file is removed
// directly, without opening the pool: a writable pool open would resurrect
// an already-deleted pool directory.
func DeleteRun(dir string) error {
	root, pooled, perr := PoolRef(dir)
	var lease string
	if perr == nil && pooled {
		// Locate the lease before the directory goes away: the entry is
		// derived from the (still existing) run path.
		entry, err := leaseEntry(root, dir)
		if err != nil {
			return err
		}
		lease, _ = findLease(root, entry)
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if lease != "" {
		if err := os.Remove(lease); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: remove lease: %w", err)
		}
	}
	return nil
}
