package store

// pool.go implements the ChunkPool: the run-agnostic chunk layer under the
// checkpoint store. A pool owns the hash-prefix shard table — per-shard
// append locks, the content-addressed dedup index, pack objects behind a
// Backend — plus refcount-style garbage collection of superseded chunks via
// generational pack compaction.
//
// Every v2 store runs on a pool. A run's private pack is simply a
// single-tenant pool whose chunk records are persisted in the run's own
// MANIFEST (byte-identical to the pre-pool layouts). A *shared* pool lives
// in its own directory (conventionally <project>/POOL) and is attached by
// many runs of the same project:
//
//	<root>/POOL          marker: "pool1 shards=N"
//	<root>/INDEX         append-only CRC-framed chunk records ('C')
//	<root>/LEASES/<id>   one lease file per attached run (its directory path)
//	<root>/PACKGC        retired pack generations awaiting expiry
//	<root>/CHUNKS-xx[.gN] pack objects, generational after compaction
//
// Shared pools are process-wide singletons (an in-process registry keyed by
// resolved root), so concurrent sibling-run record and replay share one
// shard table and its locks. Cross-process concurrent *writers* against one
// pool are not coordinated; serving and replay open pools read-only.
//
// # GC and the grace period
//
// Compaction never mutates a pack in place: survivors of shard S at
// generation g are rewritten into the pack object for generation g+1, the
// chunk records are atomically rewritten (run MANIFEST for private pools,
// pool INDEX for shared ones), and only then does the in-memory shard swap
// to the new generation. The replaced object is a grace-period tombstone:
// it stays on disk, readable by any store that resolved chunk locations
// before the swap (including concurrent OpenReadOnly stores in other
// processes), until a later GC pass finds its retirement deadline expired
// in PACKGC and deletes it.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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
// has outrun: either a pack generation whose grace period expired after the
// reader resolved chunk locations, or a superseded checkpoint's segment file
// removed by the (grace-free) segment sweep. The reader's in-memory index is
// stale, not the data — re-opening the store resolves the current generation
// and the successor checkpoints. Long-lived readers (the serving daemon's
// store cache) catch this to refresh and retry.
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
	Root           string `json:"root,omitempty"` // empty for private pools
	Fanout         int    `json:"fanout"`
	Leases         int    `json:"leases"` // attached runs (shared pools only)
	Chunks         int64  `json:"chunks"`
	StoredRawBytes int64  `json:"stored_raw_bytes"`
	StoredEncBytes int64  `json:"stored_enc_bytes"`
}

// ChunkPool is the run-agnostic chunk layer: shard table, dedup index, pack
// I/O and GC. It is safe for concurrent use by many stores.
type ChunkPool struct {
	root   string // pool root directory; "" for a private (single-run) pool
	ctlDir string // directory holding PACKGC (run dir or pool root)
	shared bool
	fanout int

	backend Backend

	// gcMu fences compaction against the chunk write path: a put holds the
	// read side from fresh-chunk filtering through manifest/index commit, so
	// GC's mark phase (which scans committed segment directories) can never
	// miss a chunk an in-flight checkpoint is about to reference. Lock
	// order: gcMu before any shard.mu or Store.mu.
	gcMu sync.RWMutex

	mu       sync.Mutex
	readOnly bool
	stored   PoolStats // Chunks/StoredRawBytes/StoredEncBytes upkeep
	dropped  []string  // packs whose records point past the pack's real end
	indexLen int64     // validated INDEX prefix length (shared pools)

	shardTab []*poolShard // two-level dedup index: shardTab[shardOf(h)].chunks[h]

	// Per-tier fetch counters, resolved once at construction (nil and
	// branch-free when the registry is disabled — the fetch hot path must
	// not allocate when nobody is watching).
	mFetchBytes  [numTiers]*obs.Counter
	mFetchFrames [numTiers]*obs.Counter
}

// newPrivatePool builds the single-tenant pool over a run's own backend;
// chunk records are adopted from the run manifest and finishOpen completes
// initialization.
func newPrivatePool(backend Backend, fanout int, readOnly bool) *ChunkPool {
	p := &ChunkPool{fanout: fanout, backend: backend, readOnly: readOnly}
	p.initShards()
	return p
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

// Shared reports whether the pool is a multi-run shared pool.
func (p *ChunkPool) Shared() bool { return p.shared }

// Root returns the shared pool's root directory ("" for private pools).
func (p *ChunkPool) Root() string { return p.root }

// shardOf maps a content hash to its shard index: the hash's top byte
// masked to the fanout. The shard is a pure function of the hash, so chunk
// records never need to name it.
func (p *ChunkPool) shardOf(h ckptfmt.Hash) int {
	return int(h[0]) & (p.fanout - 1)
}

// adopt installs one replayed chunk record (first record wins, matching
// write-order dedup). Used while replaying a run manifest or a pool INDEX,
// before the pool is shared.
func (p *ChunkPool) adopt(h ckptfmt.Hash, loc chunkLoc) {
	sh := p.shardTab[p.shardOf(h)]
	if _, dup := sh.chunks[h]; !dup {
		sh.chunks[h] = loc
	}
	if loc.Gen > sh.gen {
		sh.gen = loc.Gen
	}
}

// finishOpen completes initialization after records were adopted: resolves
// each shard's active generation and pack length, drops records from stale
// generations or pointing past their pack's end (remembering the pack in
// dropped), and rebuilds the stored-chunk accounting. Runs single-threaded
// at open.
func (p *ChunkPool) finishOpen() error {
	p.stored.Fanout = p.fanout
	p.stored.Root = p.root
	p.stored.Chunks, p.stored.StoredRawBytes, p.stored.StoredEncBytes = 0, 0, 0
	for _, sh := range p.shardTab {
		n, err := p.backend.Size(sh.obj())
		if err != nil {
			return fmt.Errorf("store: shard %s: %w", sh.obj(), err)
		}
		sh.packLen = n
		bad := false
		for h, loc := range sh.chunks {
			if loc.Gen != sh.gen || loc.Off+int64(loc.EncLen) > sh.packLen {
				// A record from a superseded generation, or pointing past the
				// pack's real end (pack lost or truncated — never a crash
				// artifact, since pack bytes land before records). Drop it and
				// let reads of referencing checkpoints surface ErrCorrupt.
				delete(sh.chunks, h)
				bad = true
				continue
			}
			p.stored.Chunks++
			p.stored.StoredRawBytes += int64(loc.RawLen)
			p.stored.StoredEncBytes += int64(loc.EncLen)
		}
		if bad {
			p.dropped = append(p.dropped, sh.obj())
		}
	}
	sort.Strings(p.dropped)
	return nil
}

// droppedPacks names packs whose committed chunk records pointed past the
// pack's real end at open (pack lost or truncated). Read-only opens degrade
// gracefully; writable opens refuse, because appending to a rewound pack
// would re-commit hashes at offsets the old records still claim.
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
// the Recording. For shared pools it also appends the chunk records to the pool
// INDEX and publishes the locations to the in-memory dedup index; private
// pools defer publication to publish, after the run manifest commit.
// Callers hold p.gcMu.RLock (via Store.putV2).
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
	if p.shared {
		// Durable record first, then in-memory publication: a chunk becomes
		// dedup-visible to sibling runs only once its INDEX record can
		// survive a crash.
		if err := p.appendIndexRecords(frames, locs); err != nil {
			return nil, err
		}
		p.publish(frames, locs)
	}
	return locs, nil
}

// publish installs committed chunk locations into the dedup index (first
// location wins) and accumulates the pool's storage accounting.
func (p *ChunkPool) publish(frames []ckptfmt.Frame, locs []chunkLoc) {
	var chunks, raw, enc int64
	for i := range frames {
		sh := p.shardTab[p.shardOf(frames[i].Hash)]
		sh.mu.Lock()
		if _, dup := sh.chunks[frames[i].Hash]; !dup {
			sh.chunks[frames[i].Hash] = locs[i]
		}
		sh.mu.Unlock()
		chunks++
		raw += int64(locs[i].RawLen)
		enc += int64(locs[i].EncLen)
	}
	p.mu.Lock()
	p.stored.Chunks += chunks
	p.stored.StoredRawBytes += raw
	p.stored.StoredEncBytes += enc
	p.mu.Unlock()
}

// resolve fills each job's chunk location from the dedup index, locking
// each involved shard exactly once. seq names the requesting segment for
// error messages.
func (p *ChunkPool) resolve(jobs []chunkJob, byShard map[int][]int, seq int) error {
	for si, idxs := range byShard {
		sh := p.shardTab[si]
		sh.mu.Lock()
		for _, ji := range idxs {
			loc, ok := sh.chunks[jobs[ji].ref.Hash]
			if !ok {
				sh.mu.Unlock()
				return fmt.Errorf("%w: segment %d references chunk %s absent from shard %s (pack missing, truncated, or collected?)",
					codec.ErrCorrupt, seq, jobs[ji].ref.Hash, sh.name)
			}
			jobs[ji].loc = loc
		}
		sh.mu.Unlock()
	}
	return nil
}

func (p *ChunkPool) isReadOnly() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readOnly
}

// ---------------------------------------------------------------------------
// Shared-pool persistence: marker, INDEX, leases, registry

// poolRegistry makes shared pools process-wide singletons: every store
// attaching to one resolved root shares the same shard table and locks, so
// concurrent sibling-run record and replay coordinate correctly.
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
	if len(fields) == 2 && fields[0] == "pool1" && strings.HasPrefix(fields[1], "shards=") {
		n, perr := strconv.Atoi(strings.TrimPrefix(fields[1], "shards="))
		if perr == nil && n >= 1 && n <= maxShardFanout && (n == 1 || n&(n-1) == 0) {
			return n, nil
		}
	}
	return 0, fmt.Errorf("store: unknown pool marker %q (newer pool layout or corrupt POOL file)", marker)
}

// openSharedPool returns the process-wide pool for root, creating the pool
// directory (writable opens only) or replaying its INDEX on first use.
// fanout 0 adopts the existing pool's fanout (DefaultShardFanout for new
// pools); a conflicting non-zero fanout is refused. A writable open of a
// pool first opened read-only upgrades it in place.
func openSharedPool(root string, fanout int, readOnly bool) (*ChunkPool, error) {
	key, err := resolvePoolRoot(root)
	if err != nil {
		return nil, err
	}
	poolRegistry.Lock()
	defer poolRegistry.Unlock()
	if p, ok := poolRegistry.m[key]; ok {
		if fanout != 0 && fanout != p.fanout {
			return nil, fmt.Errorf("store: pool %s has fanout %d (fanout %d requested)", key, p.fanout, fanout)
		}
		if !readOnly {
			if err := p.upgradeWritable(); err != nil {
				return nil, err
			}
		}
		return p, nil
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
		fanout = got
	case errors.Is(merr, os.ErrNotExist):
		if readOnly {
			return nil, fmt.Errorf("store: pool %s: no POOL marker (not a chunk pool)", key)
		}
		if fanout == 0 {
			fanout = DefaultShardFanout
		}
		if fanout > 1 && (fanout > maxShardFanout || fanout&(fanout-1) != 0) {
			return nil, fmt.Errorf("store: pool fanout %d: want a power of two in [1, %d]", fanout, maxShardFanout)
		}
		if err := os.MkdirAll(filepath.Join(key, poolLeaseDir), 0o755); err != nil {
			return nil, fmt.Errorf("store: create pool: %w", err)
		}
		if err := writeFileAtomic(filepath.Join(key, poolMarkerFile), poolMarker(fanout)); err != nil {
			return nil, fmt.Errorf("store: write pool marker: %w", err)
		}
	default:
		return nil, fmt.Errorf("store: read pool marker: %w", merr)
	}

	p := &ChunkPool{root: key, ctlDir: key, shared: true, fanout: fanout, readOnly: readOnly}
	p.initShards()
	// One backend for the pool's whole lifetime: a read-only→writable
	// upgrade must not swap the field under concurrent readers (restores
	// read it without locks). The root exists — the marker was
	// just read or written — so the plain DirBackend needs no MkdirAll.
	p.backend = &DirBackend{roots: []string{key}}
	if err := p.replayIndex(); err != nil {
		return nil, err
	}
	if err := p.finishOpen(); err != nil {
		return nil, err
	}
	poolRegistry.m[key] = p
	return p, nil
}

// upgradeWritable flips a read-only pool instance writable. The instance's
// in-memory state may be stale: a sequential writer in another process (the
// documented non-concurrent cross-process pattern) can have appended
// committed INDEX records and pack bytes since our read-only replay. The
// upgrade adopts those records (truncating only a genuinely undecodable
// tail — blindly truncating to the old validated length would destroy the
// other writer's commits) and resyncs every shard's pack length, without
// which our next append would commit offsets short of the packs' real
// ends. The backend is shared as-is (see openSharedPool). Caller holds the
// registry lock.
func (p *ChunkPool) upgradeWritable() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.readOnly {
		return nil
	}
	raw, err := os.ReadFile(p.indexPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: read pool index: %w", err)
	}
	off := int(p.indexLen)
	if off > len(raw) {
		off = len(raw)
	}
	for off < len(raw) {
		payload, consumed, uerr := codec.Unframe(raw[off:])
		if uerr != nil || len(payload) == 0 || payload[0] != recChunk {
			break
		}
		hash, loc, derr := decodeChunkRecord(payload[1:])
		if derr != nil {
			break
		}
		sh := p.shardTab[p.shardOf(hash)]
		sh.mu.Lock()
		if loc.Gen > sh.gen {
			sh.gen = loc.Gen
		}
		if _, dup := sh.chunks[hash]; !dup {
			sh.chunks[hash] = loc
			p.stored.Chunks++
			p.stored.StoredRawBytes += int64(loc.RawLen)
			p.stored.StoredEncBytes += int64(loc.EncLen)
		}
		sh.mu.Unlock()
		off += consumed
	}
	p.indexLen = int64(off)
	if int64(len(raw)) > p.indexLen {
		if err := os.Truncate(p.indexPath(), p.indexLen); err != nil {
			return fmt.Errorf("store: truncate torn pool index: %w", err)
		}
	}
	for _, sh := range p.shardTab {
		sh.mu.Lock()
		if n, serr := p.backend.Size(sh.obj()); serr == nil && n > sh.packLen {
			sh.packLen = n
		}
		sh.mu.Unlock()
	}
	p.readOnly = false
	return nil
}

// resetPoolRegistry drops all registered pools (tests only: simulated
// crashes reopen pools from disk).
func resetPoolRegistry() {
	poolRegistry.Lock()
	defer poolRegistry.Unlock()
	poolRegistry.m = map[string]*ChunkPool{}
}

func (p *ChunkPool) indexPath() string { return filepath.Join(p.root, poolIndexFile) }

// replayIndex rebuilds the dedup index from the pool's INDEX log. Torn
// tails are truncated (writable) or skipped (read-only).
func (p *ChunkPool) replayIndex() error {
	raw, err := os.ReadFile(p.indexPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read pool index: %w", err)
	}
	off := 0
	validated := 0
	for off < len(raw) {
		payload, consumed, err := codec.Unframe(raw[off:])
		if err != nil {
			break // torn tail
		}
		if len(payload) == 0 || payload[0] != recChunk {
			break
		}
		hash, loc, derr := decodeChunkRecord(payload[1:])
		if derr != nil {
			break
		}
		p.adopt(hash, loc)
		off += consumed
		validated = off
	}
	p.indexLen = int64(validated)
	if validated < len(raw) && !p.readOnly {
		if err := os.Truncate(p.indexPath(), int64(validated)); err != nil {
			return fmt.Errorf("store: truncate torn pool index: %w", err)
		}
	}
	return nil
}

// appendIndexRecords durably appends chunk records for freshly stored
// frames to the pool INDEX.
func (p *ChunkPool) appendIndexRecords(frames []ckptfmt.Frame, locs []chunkLoc) error {
	var record []byte
	for i := range frames {
		record = append(record, frameTagged(recChunk, encodeChunkRecord(frames[i].Hash, locs[i]))...)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := os.OpenFile(p.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open pool index: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(record); err != nil {
		return fmt.Errorf("store: append pool index: %w", err)
	}
	p.indexLen += int64(len(record))
	return nil
}

// persistIndex atomically rewrites the INDEX from the given records — the
// commit point of shared-pool compaction.
func (p *ChunkPool) persistIndex(recs []poolChunkRec) error {
	var buf []byte
	for _, cr := range recs {
		buf = append(buf, frameTagged(recChunk, encodeChunkRecord(cr.hash, cr.loc))...)
	}
	if err := writeFileAtomic(p.indexPath(), buf); err != nil {
		return fmt.Errorf("store: rewrite pool index: %w", err)
	}
	p.mu.Lock()
	p.indexLen = int64(len(buf))
	p.mu.Unlock()
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
// run's segments as live.
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
	if err := writeFileAtomic(path, []byte(entry+"\n")); err != nil {
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
// feeds, it fails closed: an unreadable lease would silently unpin a live
// run's chunks, so only a lease deleted mid-scan (a concurrent DeleteRun)
// is skipped.
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
		raw, err := os.ReadFile(filepath.Join(p.root, poolLeaseDir, e.Name()))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("store: read lease %s: %w", e.Name(), err)
		}
		dir := strings.TrimSpace(string(raw))
		if dir == "" {
			continue
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
	// SkipChunks limits GC to superseded segment files (the pre-pool
	// behavior): packs are left untouched.
	SkipChunks bool
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
	// Segments is the number of superseded segment files removed.
	Segments int
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

// poolChunkRec is one (hash, location) pair handed to a persist callback.
type poolChunkRec struct {
	hash ckptfmt.Hash
	loc  chunkLoc
}

func (p *ChunkPool) packGCPath() string { return filepath.Join(p.ctlDir, packGCFile) }

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

// gc is the chunk-reclaiming GC pass shared by private stores (Store.GCWith)
// and shared pools (GCPool). mark builds the live set — every chunk hash
// still referenced by a live checkpoint — and MUST scan durable state
// (segment files): it runs after gc has fenced off the chunk write path, so
// any checkpoint that deduplicated against an indexed chunk has its segment
// on disk by the time mark looks. persist atomically commits the
// post-compaction chunk records (the run MANIFEST for private pools, the
// pool INDEX for shared ones). gc excludes writers (gcMu) for its whole
// duration.
func (p *ChunkPool) gc(mark func() (map[ckptfmt.Hash]bool, error), o GCOptions, persist func([]poolChunkRec) error) (GCResult, error) {
	var res GCResult
	if p.isReadOnly() {
		return res, ErrReadOnly
	}
	p.gcMu.Lock()
	defer p.gcMu.Unlock()

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

	// Mark inside the fence: a put's filter→segment→commit span holds the
	// read side, so marking before the lock could miss a checkpoint that
	// deduplicated against a chunk this pass is about to drop.
	liveSet, err := mark()
	if err != nil {
		return res, err
	}
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
		// The gzip twin an older build may have written beside the pack goes
		// too, before the schedule entry is dropped, or a failed removal
		// would leave it with nothing to retry it.
		if err := p.backend.Remove(name + ".gz"); err != nil {
			return res, fmt.Errorf("store: gc: remove %s.gz: %w", name, err)
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

	// Phase 2: sweep each shard's index against the live set.
	type plan struct {
		sh        *poolShard
		dead      []ckptfmt.Hash
		deadBytes int64
	}
	var plans []*plan
	for _, sh := range p.shardTab {
		sh.mu.Lock()
		pl := &plan{sh: sh}
		for h, loc := range sh.chunks {
			if !live(h) {
				pl.dead = append(pl.dead, h)
				pl.deadBytes += int64(loc.EncLen)
			}
		}
		sh.mu.Unlock()
		if len(pl.dead) > 0 {
			plans = append(plans, pl)
		}
	}
	phase("sweep", map[string]int64{"dirty_shards": int64(len(plans))})
	if len(plans) == 0 || o.SkipChunks {
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
		sh := pl.sh
		deadSet := make(map[ckptfmt.Hash]bool, len(pl.dead))
		for _, h := range pl.dead {
			deadSet[h] = true
		}
		type survivor struct {
			h   ckptfmt.Hash
			loc chunkLoc
		}
		var keep []survivor
		sh.mu.Lock()
		for h, loc := range sh.chunks {
			if !deadSet[h] {
				keep = append(keep, survivor{h, loc})
			}
		}
		oldObj, oldGen := sh.obj(), sh.gen
		sh.mu.Unlock()
		sort.Slice(keep, func(i, j int) bool { return keep[i].loc.Off < keep[j].loc.Off })

		newGen := oldGen + 1
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
				newMap[sv.h] = chunkLoc{Gen: newGen, Off: newLen, EncLen: sv.loc.EncLen, RawLen: sv.loc.RawLen, Style: sv.loc.Style}
				newLen += int64(sv.loc.EncLen)
			}
			src.Close()
			if err := dst.Close(); err != nil {
				return res, fmt.Errorf("store: gc: commit pack %s: %w", packObjName(sh.name, newGen), err)
			}
		}
		swaps = append(swaps, &swap{sh: sh, newGen: newGen, newLen: newLen, newMap: newMap,
			oldObj: oldObj, removed: len(pl.dead), bytes: pl.deadBytes})
	}
	phase("rewrite", map[string]int64{"rewritten_shards": int64(len(swaps))})

	// Phase 4: commit — atomically rewrite the chunk records. Until this
	// succeeds, disk and memory both still describe the old generations.
	var recs []poolChunkRec
	for _, sh := range p.shardTab {
		var sw *swap
		for _, c := range swaps {
			if c.sh == sh {
				sw = c
				break
			}
		}
		if sw != nil {
			for h, loc := range sw.newMap {
				recs = append(recs, poolChunkRec{h, loc})
			}
			continue
		}
		sh.mu.Lock()
		for h, loc := range sh.chunks {
			recs = append(recs, poolChunkRec{h, loc})
		}
		sh.mu.Unlock()
	}
	// Deterministic record order keeps rewritten manifests reproducible.
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].loc.Gen != recs[j].loc.Gen {
			return recs[i].loc.Gen < recs[j].loc.Gen
		}
		if recs[i].loc.Off != recs[j].loc.Off {
			return recs[i].loc.Off < recs[j].loc.Off
		}
		return bytes.Compare(recs[i].hash[:], recs[j].hash[:]) < 0
	})
	if err := persist(recs); err != nil {
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
	// Rebuild the stored-chunk accounting from the surviving index.
	var liveChunks, liveRaw, liveEnc int64
	for _, sh := range p.shardTab {
		sh.mu.Lock()
		for _, loc := range sh.chunks {
			liveChunks++
			liveRaw += int64(loc.RawLen)
			liveEnc += int64(loc.EncLen)
		}
		sh.mu.Unlock()
	}
	p.mu.Lock()
	p.stored.Chunks, p.stored.StoredRawBytes, p.stored.StoredEncBytes = liveChunks, liveRaw, liveEnc
	p.mu.Unlock()
	if err := p.writePackGC(sched); err != nil {
		return res, err
	}
	phase("swap", map[string]int64{"dead_chunks": int64(res.DeadChunks), "reclaimed_bytes": res.ReclaimedBytes})
	return res, nil
}

// GCPool runs a refcounted GC pass over a shared pool: every chunk
// referenced by a segment of any leased run is live; everything else is
// compacted away, with replaced pack generations retained for the grace
// period (see GCOptions.PackRetention). Leases whose run directory no
// longer exists are released — deleting a run's directory and lease (see
// DeleteRun) is how its chunks' refcounts drop.
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
	mark := func() (map[ckptfmt.Hash]bool, error) {
		live := map[ckptfmt.Hash]bool{}
		leases, err := p.leases()
		if err != nil {
			return nil, err
		}
		for _, runDir := range leases {
			if _, serr := os.Stat(runDir); errors.Is(serr, os.ErrNotExist) {
				// The run is gone; its lease no longer pins any chunks.
				if err := p.removeLease(runDir); err != nil {
					return nil, err
				}
				continue
			}
			if err := collectLiveChunks(runDir, live); err != nil {
				return nil, fmt.Errorf("store: pool gc: %s: %w", runDir, err)
			}
		}
		obs.C(obs.MStoreGCMarkedChunks).Add(int64(len(live)))
		return live, nil
	}
	res, err := p.gc(mark, o, p.persistIndex)
	if err == nil {
		recordGCMetrics(res)
	}
	return res, err
}

// collectLiveChunks accumulates every chunk hash referenced by the run
// directory's segment files. Segments are written before their chunks are
// appended, so a checkpoint mid-materialization already pins its chunks.
//
// The mark is the sole safety input to an irreversible compaction, so any
// failure to read or decode a segment fails the whole GC pass (retry
// later) rather than silently treating the segment as referencing nothing
// — the one exception being a segment deleted between listing and read,
// which is a completed segment GC, not a lost reference.
func collectLiveChunks(runDir string, live map[ckptfmt.Hash]bool) error {
	entries, err := os.ReadDir(runDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".bin") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(runDir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("gc mark: read segment %s: %w", name, err)
		}
		payload, _, err := codec.Unframe(raw)
		if err != nil {
			return fmt.Errorf("gc mark: segment %s: %w", name, err)
		}
		dir, err := ckptfmt.DecodeDirectory(payload)
		if err != nil {
			return fmt.Errorf("gc mark: segment %s directory: %w", name, err)
		}
		for _, sec := range dir.Sections {
			for _, ref := range sec.Chunks {
				live[ref.Hash] = true
			}
		}
	}
	return nil
}

// PoolStatsAt reports a shared pool's storage accounting if the pool is
// open in this process (serving stats; no disk replay is triggered).
func PoolStatsAt(root string) (PoolStats, bool) {
	key, err := resolvePoolRoot(root)
	if err != nil {
		return PoolStats{}, false
	}
	poolRegistry.Lock()
	p := poolRegistry.m[key]
	poolRegistry.Unlock()
	if p == nil {
		return PoolStats{}, false
	}
	return p.Stats(), true
}

// DeleteRun deletes a recorded run directory, then releases its pool lease
// when the run is attached to a shared pool — the "refcount decrement" that
// lets a later GCPool pass reclaim the chunks only this run referenced. The
// directory goes first: a crash in between leaves a stale lease pointing at
// a missing run (harmless; the next GC releases it), whereas the reverse
// order would leave a live run unpinned. The lease file is removed
// directly, without opening the pool: a writable pool open would resurrect
// an already-deleted pool directory and needlessly upgrade a read-only
// in-process pool instance.
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
