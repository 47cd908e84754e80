// Package store implements the on-disk checkpoint store backing Flor record
// and replay: manifest-committed segments, and a run-agnostic ChunkPool
// layer owning the content-addressed chunk packs (optionally sharded by
// hash prefix across pluggable backends), the dedup index, and refcounted
// GC/compaction of superseded chunks. A run's private pack is a
// single-tenant pool; a shared pool at a project-level root is attached by
// many runs, which then deduplicate chunks against each other (fine-tuning
// families re-checkpointing one frozen backbone store it once).
//
// # Run-directory layout
//
// A run directory always holds the store's control plane:
//
//	<dir>/FORMAT              format marker; absent in legacy v1 runs
//	<dir>/MANIFEST            append-only log of committed checkpoints and
//	                          (private-pack stores) dedup chunk records;
//	                          pooled runs lead with a pool-reference record
//	<dir>/ckpt-<seq>.bin      one segment file per checkpoint
//	<dir>/SHARDS              sharded stores only: extra backend root dirs
//	<dir>/PACKGC              retired pack generations awaiting expiry
//
// Nothing derived is persisted: a run leaves the machine as these files
// (remote.UploadRun), not as a compressed copy of them. Gzip twins
// ("*.gz") and a SPOOL file that older builds wrote beside them are inert:
// no read path opens them.
//
// Chunk bytes live in pack objects addressed through a Backend (local
// directories today; the interface is shaped so S3-style ranged backends
// slot in later):
//
//	CHUNKS                    unsharded v2: the single chunk pack
//	CHUNKS-00 .. CHUNKS-ff    sharded v2: one pack per hash-prefix shard
//	CHUNKS-xx.g<n>            generation n of a shard's pack, after GC
//	                          compaction rewrote it (see pool.go)
//
// Shared pools keep the same pack objects plus their own control plane
// (POOL marker, INDEX chunk-record log, LEASES/ refcount entries) under the
// pool root; see pool.go and docs/FORMATS.md.
//
// # Formats
//
// One encoding is written — v2 — over a private or shared chunk pool at some
// fanout; four layouts are readable (docs/FORMATS.md has the byte-level
// detail). v2-pooled (marker "2 pool shards=N") stores segments like v2 but
// resolves every chunk through the shared pool named by its manifest:
//
//   - v1 (legacy, read-only): one monolithic CRC-framed blob per segment,
//     untyped manifest records, no pack. Detected from the absence of the
//     FORMAT marker on a directory that holds a manifest; a v1 run opens
//     read-only whatever the options say — it replays byte-identically and
//     every write fails with ErrReadOnly. No build writes v1 any more.
//   - v2 (marker "2"): a segment file holds only a CRC-framed *directory*
//     (package ckptfmt): the checkpoint's named sections and, per section,
//     the ordered content hashes of the chunks holding its bytes. The chunk
//     bytes themselves live in the CHUNKS pack as independent frames —
//     style byte, CRC-32C, 128-bit content hash — written raw (the deflate
//     and LZ4 frames older builds wrote are read-compat), once per distinct
//     hash, and shared by every checkpoint of the run that references them
//     (cross-checkpoint dedup: frozen layers, datasets, and configuration
//     are stored once). Frames decode in parallel across a worker pool.
//   - v2-sharded (marker "2 shards=N"): the v2 encoding with the pack and
//     the dedup index split into N shards (power of two, 2..256) by the top
//     byte of each chunk's content hash: chunk h lives in shard h[0] mod N,
//     pack object "CHUNKS-<shard in hex>". Because the shard is a pure
//     function of the hash, manifest chunk records are byte-identical to
//     unsharded v2 — only the interpretation of their offsets (relative to
//     the shard's pack, not one global pack) differs, which is why the
//     FORMAT marker changes: builds that predate sharding refuse the
//     marker instead of misreading shard-relative offsets.
//
// # Sharding and concurrency
//
// Each shard has its own append lock and its own dedup map (the two-level
// index: shard, then hash), so concurrent PutSections calls fan a
// checkpoint's fresh chunks out across shards, and replay-time restores of
// independent sections read their shards' packs concurrently instead of
// serializing on one file descriptor.
//
// # Restore read path
//
// Every restore — any layout, local or remote — runs one pipeline
// (fetch.go): a planner offset-sorts each shard's wanted frame records and
// cuts them into bounded runs (neighbours merge across gaps up to 256 KiB),
// and an executor reads the runs of all shards on one bounded
// worker group, one read call per run, decoding and hash-checking a run's
// frames the moment its bytes land and handing out no further runs after the
// first error. How a run's bytes are obtained follows from what the opened
// BackendReader offers, never from a setting: a file descriptor gets one
// vectored preadv that puts large raw payloads straight into their
// destinations; an ExtentReader lends the run's exact extent, decoded where it
// lies; anything else gets one ReadAt into an arena span. The results are
// byte-identical whichever way the bytes came.
// Replay resolves a checkpoint once (Resolve, one segment-directory read)
// and then reads only the sections its statements touch through
// Checkpoint.ReadInto. A section lands where the caller laid it out — over
// live tensors, so that the kernel read is the restore — or in a freshly
// allocated buffer the caller may retain. GetSections wraps the same call
// for readers that want every section.
//
// # Manifest and crash consistency
//
// The MANIFEST interleaves record kinds, each individually CRC-framed:
//
//	'C' chunk record  hash, pack offset (shard-relative when sharded),
//	                  encoded length, raw length, style, and (after GC
//	                  compaction) the pack generation — an entry of the
//	                  run's dedup chunk index; absent in pooled runs,
//	                  whose records live in the pool INDEX
//	'M' meta record   a committed checkpoint (key, segment seq, sizes,
//	                  timings, format)
//	'P' pool record   pooled runs only, always first: the shared pool's
//	                  root (relative paths resolve against the run dir)
//	                  and fanout
//
// Chunk records precede the meta record of the checkpoint that introduced
// them, and pack bytes are written before either, so a crash at any point
// leaves a prefix-consistent run: opening a store replays the manifest,
// verifying each record's CRC and ignoring any torn tail. The design
// follows write-ahead-log discipline adapted to a redo-only workload (paper
// §7, "Recovery and Replay Systems"): segment files and pack bytes are
// written first, then a manifest record commits them, so a crash
// mid-materialization never yields a checkpoint that replay could
// half-trust.
//
// # Compatibility guarantees
//
// Stores open without flags: the FORMAT marker (or its absence) selects the
// layout, and pooled runs find their pool through the manifest's
// pool-reference record. v1, unsharded-v2, and sharded-v2 directories
// recorded by any earlier build open and replay byte-identically. Unknown
// or corrupt FORMAT markers — including the pooled and gc-flagged markers
// on builds that predate them — surface ErrUnknownFormat (with the
// offending marker) rather than risking misparse-and-truncate of a future
// layout's manifest.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/obs"
)

// Format identifies a segment encoding.
const (
	// FormatV1 is the legacy single-blob-per-segment encoding; it is only
	// read (see resolveLayout).
	FormatV1 = 1
	// FormatV2 is the frame-based, deduplicated encoding (package ckptfmt),
	// with or without hash-prefix sharding.
	FormatV2 = 2
)

// Shard-fanout bounds for the v2-sharded layout.
const (
	// DefaultShardFanout is the shard count used when sharding is requested
	// without an explicit fanout.
	DefaultShardFanout = 16
	// maxShardFanout bounds the fanout to what one hash byte can address.
	maxShardFanout = 256
)

// Manifest record tags (legacy v1 manifests hold untagged meta records).
const (
	recMeta  = 'M'
	recChunk = 'C'
	// recPool is the pool-reference record: the first record of a pooled
	// run's manifest, naming the shared chunk pool the run's chunks live in.
	recPool = 'P'
)

// Control-plane file names inside a run directory.
const (
	formatFile    = "FORMAT"
	manifestFile  = "MANIFEST"
	packFile      = "CHUNKS"
	shardDirsFile = "SHARDS"
)

// Key identifies a checkpoint: the side-effects of execution number Exec of
// the loop statically identified by LoopID. Exec counts every execution of
// the loop at runtime (paper §4.2: "A loop may generate zero or many Loop
// End Checkpoints").
type Key struct {
	LoopID string
	Exec   int
}

// String renders the key for logs and file names.
func (k Key) String() string { return fmt.Sprintf("%s@%d", k.LoopID, k.Exec) }

// Meta describes a committed checkpoint.
type Meta struct {
	Key      Key
	Seq      int   // segment sequence number
	Size     int64 // uncompressed payload size in bytes
	MaterNs  int64 // observed materialization time (serialize+write), ns
	SnapNs   int64 // observed snapshot (training-thread) time, ns
	ComputNs int64 // observed loop computation time, ns
	Format   int   // segment format (FormatV2; FormatV1 in legacy runs)
	// StoredBytes is the number of pack bytes this checkpoint added (encoded
	// size of its previously unseen chunks). Dedup hits make it smaller than
	// Size; it is Size itself for a legacy v1 checkpoint.
	StoredBytes int64
}

// Section is one named slice of a checkpoint payload — the encoded bytes of
// one environment entry. Materialization hands sections to PutSections so
// the store can chunk, dedup, and frame them independently. On reads the
// store also reports each section's content identity (the hash of its chunk
// hashes) and logical length, so restore caches can recognize repeated
// content — and ask the store not to load it at all.
type Section struct {
	Name string
	Data []byte
	// Hash is the section's content identity on read paths (zero on writes
	// and for format-v1 fallbacks).
	Hash ckptfmt.Hash
	// RawLen is the section's logical byte length, valid even when Data was
	// skipped at the caller's request.
	RawLen int
}

// KnownChunks is what the single writer of a section buffer carries from one
// put of that buffer to the next (PutSectionsKnown): the hash of each of its
// DefaultChunkSize chunks as the store last took them, and the writer's claim
// about which chunks it has left byte for byte as they were since. It is a
// cache of work already done on bytes still in memory — never serialized, and
// worth nothing once the buffer is gone.
type KnownChunks struct {
	// Hashes[j] is the hash the last put computed (or accepted) for chunk j.
	// Only the store writes it.
	Hashes []ckptfmt.Hash
	// Clean[j] offers Hashes[j] to the next put in place of hashing chunk j
	// again. Only the buffer's writer can set it, and only from an exact
	// compare of what it wrote against what the buffer held; the put consumes
	// the claim.
	Clean []bool
}

// offer returns the hash known has on offer for chunk j of section i, if any.
func offer(known []KnownChunks, i, j int) (ckptfmt.Hash, bool) {
	if known == nil || j >= len(known[i].Clean) || !known[i].Clean[j] || j >= len(known[i].Hashes) {
		return ckptfmt.Hash{}, false
	}
	return known[i].Hashes[j], true
}

// DedupStats aggregates the run's chunk-level storage accounting.
type DedupStats struct {
	LogicalBytes   int64 // raw bytes referenced by all committed checkpoints
	StoredRawBytes int64 // raw bytes of distinct chunks actually stored
	StoredEncBytes int64 // encoded (post-style) bytes appended to the packs
	ChunkRefs      int64 // chunk references across all checkpoints
	ChunksStored   int64 // distinct chunks written to the packs
}

// Ratio returns the dedup ratio: logical bytes per stored raw byte. A run
// with no repeated state scores 1.0; frozen-layer workloads score higher.
func (d DedupStats) Ratio() float64 {
	if d.StoredRawBytes == 0 {
		return 1
	}
	return float64(d.LogicalBytes) / float64(d.StoredRawBytes)
}

// Store is a checkpoint store rooted at a run directory. It is safe for
// concurrent use: record's background materializer (or several concurrent
// PutSections callers) write while the training thread queries stats, and
// replay workers read in parallel.
//
// Chunk bytes live in the store's ChunkPool. A plain v2 store runs on a
// private single-tenant pool over the run's own backend (chunk records in
// the run MANIFEST — byte-identical to pre-pool layouts); a pooled store
// attaches to a shared pool named by its manifest's pool-reference record,
// where sibling runs of the same project dedup against each other.
type Store struct {
	dir      string
	format   int
	fanout   int  // 0 for v1; 1 for unsharded v2; >1 for sharded/pooled v2
	recorded bool // a manifest existed at open (detectDir's Layout.Recorded)
	backend  Backend
	readOnly bool

	// pool is the chunk layer (nil for v1 stores). pooled marks a shared,
	// multi-run pool; poolRoot is its resolved root and poolRef the path as
	// recorded in (or destined for) the manifest's pool-reference record.
	pool     *ChunkPool
	pooled   bool
	poolRoot string
	poolRef  string
	// gcMarked mirrors the FORMAT marker's "gc" flag: the manifest may name
	// pack generations, so pre-GC builds must refuse the directory.
	gcMarked bool
	// lz4Marked mirrors the marker's "lz4" flag: packs may hold the LZ4
	// frames older builds wrote, which pre-LZ4 builds cannot decode, so they
	// must refuse. Nothing sets it any more; a reopen writes it back as read.
	lz4Marked bool
	sawPRec   bool // manifest already holds the pool-reference record

	mu      sync.Mutex
	nextSeq int
	index   map[Key]*Meta // latest committed checkpoint per key
	metas   []*Meta       // commit order
	dedup   DedupStats
}

// ErrNotFound is returned when no checkpoint exists for a key.
var ErrNotFound = errors.New("store: checkpoint not found")

// ErrReadOnly is returned by write operations on a read-only store.
var ErrReadOnly = errors.New("store: read-only")

// ErrUnknownFormat is returned (wrapped in an *UnknownFormatError carrying
// the offending marker) when a run directory's FORMAT marker names a layout
// this build does not understand — a future version or corruption. The
// store refuses rather than misparse the manifest as a torn tail and
// truncate the run away; servers surface it as a client error when a bad
// directory is registered.
var ErrUnknownFormat = errors.New("store: unknown store format")

// UnknownFormatError reports the unrecognized FORMAT marker of a run
// directory. errors.Is(err, ErrUnknownFormat) matches it.
type UnknownFormatError struct {
	Dir    string
	Marker string // the marker as found on disk, whitespace-trimmed
}

// Error implements error.
func (e *UnknownFormatError) Error() string {
	return fmt.Sprintf("store: unknown format marker %q in %s (newer layout or corrupt FORMAT file)", e.Marker, e.Dir)
}

// Is reports ErrUnknownFormat identity for errors.Is.
func (e *UnknownFormatError) Is(target error) bool { return target == ErrUnknownFormat }

// Options configures OpenWith. The zero value reproduces Open: auto-detect
// the layout, single local directory, read-write.
type Options struct {
	// ShardFanout selects the chunk-pack layout for new v2 stores: 0 keeps
	// the existing layout (single pack for new directories), 1 explicitly
	// requests the single pack, and a power of two in [2, 256] requests
	// hash-prefix sharding at that fanout. Opening an existing store with a
	// conflicting non-zero fanout is refused.
	ShardFanout int
	// ShardDirs adds extra root directories to the default local backend:
	// shard packs spread across the run directory plus these roots. The
	// list is persisted in the run directory's SHARDS file so later opens
	// (including OpenReadOnly) find the packs without options.
	ShardDirs []string
	// PinShardDirs makes ShardDirs authoritative even when empty: the open
	// fails unless the directory's persisted SHARDS list matches ShardDirs
	// exactly (resolved), instead of adopting whatever the file says.
	// Servers pin the roots they validated at registration so a later
	// SHARDS rewrite cannot redirect their reads.
	PinShardDirs bool
	// Backend overrides pack storage entirely (ShardDirs is then ignored).
	// The control plane (FORMAT, MANIFEST, segments) stays in the run
	// directory regardless.
	Backend Backend
	// Pool attaches the run to a shared chunk pool at this root (created at
	// ShardFanout — DefaultShardFanout when 0 — if absent; relative paths
	// resolve against the process working directory, while the manifest
	// records a run-dir-relative reference so a project tree relocates as a
	// unit). The run's chunks are published to
	// and read from the pool, deduplicated against every sibling run
	// attached to it; a pool-reference record in the manifest plus a LEASE
	// entry under the pool root make the attachment durable. Only fresh
	// directories can attach; a recorded private-pack run cannot be
	// relocated into a pool (nor a pooled run out of one). Reopens need no
	// Pool option — the manifest record names the pool.
	Pool string
	// PinPool makes Pool authoritative even when empty: the open fails
	// unless the run's recorded pool attachment matches Pool exactly
	// (resolved; empty means "not pooled"). Servers pin the pool root they
	// validated at registration so a later manifest rewrite cannot redirect
	// their reads.
	PinPool bool
	// ReadOnly opens the store for shared read-only use: nothing on disk is
	// touched and every write operation fails with ErrReadOnly.
	ReadOnly bool
}

// Open opens (or creates) a store at dir, replaying the manifest to rebuild
// the checkpoint index and the dedup chunk index. Torn or corrupt manifest
// tails are truncated away; segments whose files are missing or corrupt are
// dropped from the index. New stores are created at format v2; directories
// recorded before the FORMAT marker existed open as v1, read-only.
func Open(dir string) (*Store, error) {
	return OpenWith(dir, Options{})
}

// OpenReadOnly opens an existing recorded run for shared read-only use — the
// serving daemon's open path. It touches nothing on disk: the FORMAT marker
// is not (re)written, a torn manifest tail is skipped rather than truncated,
// and every write operation (Put, PutSections, GC) fails with
// ErrReadOnly. The returned store is safe for concurrent Get/GetSections
// from many goroutines.
func OpenReadOnly(dir string) (*Store, error) {
	return OpenWith(dir, Options{ReadOnly: true})
}

// OpenWith opens (or, unless o.ReadOnly, creates) a store at dir under the
// given options. See Options for the layout and backend knobs; Open and
// OpenReadOnly are thin wrappers.
func OpenWith(dir string, o Options) (*Store, error) {
	if o.ReadOnly {
		// A read-only open must not mint an empty store out of a typo'd
		// path: the directory has to exist already.
		if st, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("store: open read-only: %w", err)
		} else if !st.IsDir() {
			return nil, fmt.Errorf("store: open read-only: %s is not a directory", dir)
		}
	} else {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	if o.ShardFanout < 0 || o.ShardFanout > maxShardFanout ||
		(o.ShardFanout > 1 && o.ShardFanout&(o.ShardFanout-1) != 0) {
		return nil, fmt.Errorf("store: shard fanout %d: want a power of two in [2, %d]", o.ShardFanout, maxShardFanout)
	}
	s := &Store{dir: dir, readOnly: o.ReadOnly, index: map[Key]*Meta{}}
	if err := s.resolveLayout(o); err != nil {
		return nil, err
	}
	if s.pooled {
		if o.Backend != nil || len(o.ShardDirs) > 0 {
			return nil, fmt.Errorf("store: pooled stores place all packs in the pool (Backend/ShardDirs not applicable)")
		}
		if err := s.attachPool(o); err != nil {
			return nil, err
		}
	} else {
		if o.PinPool && o.Pool != "" {
			return nil, fmt.Errorf("store: %s is not attached to a pool (pinned to %s)", s.dir, o.Pool)
		}
		// Extra roots are a sharded-layout feature: relocating the unsharded
		// CHUNKS pack (or a v1 store) out of the run directory would leave
		// the plain "2" marker lying to pre-sharding builds, which would
		// misread the run (empty pack, dropped chunk records) instead of
		// refusing. (Pinning an empty root list onto an unsharded store is
		// fine — that is exactly what the layout declares.)
		if len(o.ShardDirs) > 0 && s.fanout <= 1 {
			return nil, fmt.Errorf("store: shard dirs require a sharded store (fanout %d); pass ShardFanout", s.fanout)
		}
		if err := s.initBackend(o); err != nil {
			return nil, err
		}
		if s.format == FormatV2 {
			s.pool = newPrivatePool(s.backend, s.fanout, s.readOnly)
			s.pool.ctlDir = s.dir
		}
	}
	if err := s.writeMarker(); err != nil {
		return nil, err
	}
	if err := s.replayManifest(); err != nil {
		return nil, err
	}
	if s.format == FormatV2 && !s.pooled {
		// The private pool adopted the manifest's chunk records; resolve
		// pack generations and lengths, drop unreadable records, and take
		// over the run's stored-chunk accounting from the surviving index.
		if err := s.pool.finishOpen(); err != nil {
			return nil, err
		}
		st := s.pool.Stats()
		s.dedup.ChunksStored = st.Chunks
		s.dedup.StoredRawBytes = st.StoredRawBytes
		s.dedup.StoredEncBytes = st.StoredEncBytes
	}
	if s.pool != nil {
		if dropped := s.pool.droppedPacks(); !s.readOnly && len(dropped) > 0 {
			return nil, fmt.Errorf("%w: shard pack %s is missing or truncated (committed chunk records point past its end); writable open refused — repair or open read-only",
				codec.ErrCorrupt, strings.Join(dropped, ", "))
		}
	}
	if s.pooled && !s.readOnly {
		// Make the attachment durable: the pool-reference record is the
		// manifest's first record, and the LEASE entry is the pool-side
		// refcount that keeps this run's chunks live under GCPool.
		if err := s.commitPoolAttachment(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ReadOnly reports whether the store rejects writes: it was opened read-only,
// or it is a legacy v1 run.
func (s *Store) ReadOnly() bool { return s.readOnly }

// Layout describes a run directory's on-disk store layout, detected without
// replaying its manifest.
type Layout struct {
	// Format is FormatV1 or FormatV2 (what a fresh open would use).
	Format int
	// ShardFanout is 0 for v1, 1 for unsharded v2, and the shard count for
	// sharded v2 (the pool's fanout for pooled runs).
	ShardFanout int
	// Pooled reports whether the run's chunks live in a shared chunk pool
	// (the manifest's pool-reference record names it).
	Pooled bool
	// Recorded reports whether the directory holds a committed run (a
	// manifest exists). False for fresh or unrelated directories, which a
	// plain open would happily initialize as an empty v2 store.
	Recorded bool
}

// Sharded reports whether the layout splits the pack by hash prefix.
func (l Layout) Sharded() bool { return l.ShardFanout > 1 }

// String renders the layout for listings ("v1", "v2", "v2-sharded/16",
// "v2-pooled/16").
func (l Layout) String() string {
	switch {
	case l.Format == FormatV1:
		return "v1"
	case l.Pooled:
		return fmt.Sprintf("v2-pooled/%d", l.ShardFanout)
	case l.Sharded():
		return fmt.Sprintf("v2-sharded/%d", l.ShardFanout)
	default:
		return "v2"
	}
}

// readShardDirsFile returns the SHARDS file's entries as persisted (not
// resolved); nil when the file is absent. The single parser behind both
// ShardRoots and the open path, so confinement checks and actual opens can
// never disagree about what the file says.
func readShardDirsFile(dir string) ([]string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, shardDirsFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read shard dirs: %w", err)
	}
	var entries []string
	for _, ln := range strings.Split(string(raw), "\n") {
		if ln = strings.TrimSpace(ln); ln != "" {
			entries = append(entries, ln)
		}
	}
	return entries, nil
}

// resolveShardRoot resolves one SHARDS entry against the run directory.
func resolveShardRoot(dir, entry string) string {
	if !filepath.IsAbs(entry) {
		return filepath.Join(dir, entry)
	}
	return entry
}

// ShardRoots returns the extra backend root directories a plain open of dir
// would use (the persisted SHARDS list, relative entries resolved against
// dir); empty for unsharded and v1 stores. Registration paths that confine
// run directories use it to confine the shard roots too.
func ShardRoots(dir string) ([]string, error) {
	entries, err := readShardDirsFile(dir)
	if err != nil {
		return nil, err
	}
	roots := make([]string, len(entries))
	for i, e := range entries {
		roots[i] = resolveShardRoot(dir, e)
	}
	return roots, nil
}

// DetectLayout inspects a run directory's FORMAT marker (and, absent one,
// its manifest) and reports the layout a plain open would use, without
// opening the store. Unknown markers surface ErrUnknownFormat; registration
// paths use this to reject bad directories before any query touches them.
func DetectLayout(dir string) (Layout, error) {
	if st, err := os.Stat(dir); err != nil {
		return Layout{}, fmt.Errorf("store: detect layout: %w", err)
	} else if !st.IsDir() {
		return Layout{}, fmt.Errorf("store: detect layout: %s is not a directory", dir)
	}
	l, _, err := detectDir(dir)
	return l, err
}

// detectDir reads a directory's FORMAT marker (falling back on manifest
// presence) and reports the detected layout and the parsed marker (zero when
// absent) — the shared core of DetectLayout and Store.resolveLayout.
func detectDir(dir string) (Layout, markerInfo, error) {
	recorded := false
	if _, merr := os.Stat(filepath.Join(dir, manifestFile)); merr == nil {
		recorded = true
	}
	raw, err := os.ReadFile(filepath.Join(dir, formatFile))
	switch {
	case err == nil:
		m, perr := parseFormatMarker(raw)
		if perr != nil {
			// An unknown marker means a newer (or corrupted) layout whose
			// manifest records this build would misparse as a torn tail and
			// truncate away — refuse rather than destroy.
			return Layout{}, markerInfo{}, &UnknownFormatError{Dir: dir, Marker: strings.TrimSpace(string(raw))}
		}
		return Layout{Format: m.format, ShardFanout: m.fanout, Pooled: m.pooled, Recorded: recorded}, m, nil
	case errors.Is(err, os.ErrNotExist):
		if recorded {
			return Layout{Format: FormatV1, Recorded: true}, markerInfo{}, nil // pre-FORMAT-marker run
		}
		return Layout{Format: FormatV2, ShardFanout: 1}, markerInfo{}, nil // fresh directory
	default:
		return Layout{}, markerInfo{}, fmt.Errorf("store: read format marker: %w", err)
	}
}

// markerInfo is the parsed FORMAT marker.
type markerInfo struct {
	format int
	fanout int
	pooled bool
	gc     bool
	lz4    bool
}

// parseFormatMarker decodes a FORMAT file. The grammar is
// "2[ pool][ shards=N][ gc][ lz4]" in that order: "2" (unsharded v2),
// "2 shards=N" (hash-prefix sharded at N, a power of two in [2, 256]),
// "2 pool shards=N" (chunks live in a shared pool at fanout N ≥ 1), with a
// trailing "gc" on stores whose chunk records name compacted pack
// generations and "lz4" on stores holding LZ4-style frames — flags older
// builds cannot honor, so they refuse.
func parseFormatMarker(raw []byte) (markerInfo, error) {
	marker := strings.TrimSpace(string(raw))
	fields := strings.Fields(marker)
	bad := func() (markerInfo, error) {
		return markerInfo{}, fmt.Errorf("unknown format marker %q", marker)
	}
	if len(fields) == 0 || fields[0] != "2" {
		return bad()
	}
	m := markerInfo{format: FormatV2, fanout: 1}
	rest := fields[1:]
	if len(rest) > 0 && rest[0] == "pool" {
		m.pooled = true
		rest = rest[1:]
	}
	if len(rest) > 0 && strings.HasPrefix(rest[0], "shards=") {
		n, perr := strconv.Atoi(strings.TrimPrefix(rest[0], "shards="))
		min := 2
		if m.pooled {
			min = 1 // a pool at fanout 1 is legal (single pack, still shared)
		}
		if perr != nil || n < min || n > maxShardFanout || (n > 1 && n&(n-1) != 0) {
			return bad()
		}
		m.fanout = n
		rest = rest[1:]
	} else if m.pooled {
		return bad() // pooled markers always carry the fanout
	}
	if len(rest) > 0 && rest[0] == "gc" {
		m.gc = true
		rest = rest[1:]
	}
	if len(rest) > 0 && rest[0] == "lz4" {
		m.lz4 = true
		rest = rest[1:]
	}
	if len(rest) > 0 {
		return bad()
	}
	return m, nil
}

func formatMarker(fanout int, pooled, gc, lz4 bool) []byte {
	var b strings.Builder
	b.WriteString("2")
	if pooled {
		fmt.Fprintf(&b, " pool shards=%d", fanout)
	} else if fanout > 1 {
		fmt.Fprintf(&b, " shards=%d", fanout)
	}
	if gc {
		b.WriteString(" gc")
	}
	if lz4 {
		b.WriteString(" lz4")
	}
	b.WriteString("\n")
	return []byte(b.String())
}

// resolveLayout resolves the store's format, shard fanout, and pool
// attachment from the FORMAT marker, the options, and (for unmarked
// directories) the presence of a manifest. The marker itself is written
// later (writeMarker), after a pool attachment has fixed the fanout.
func (s *Store) resolveLayout(o Options) error {
	l, m, err := detectDir(s.dir)
	if err != nil {
		return err
	}
	s.format = l.Format
	s.recorded = l.Recorded
	if l.Format == FormatV1 {
		// v1 is read-compat only: nothing writes that encoding any more, so
		// a legacy run opens read-only however it was asked for.
		if o.ShardFanout > 1 || o.Pool != "" {
			return fmt.Errorf("store: %s is a legacy v1 run (read-only): it cannot be sharded or attached to a chunk pool", s.dir)
		}
		s.readOnly = true
		return nil
	}
	fanout, pooled := l.ShardFanout, l.Pooled
	s.gcMarked = m.gc
	s.lz4Marked = m.lz4
	// A requested fanout may only disagree with a directory that has no
	// committed state (a fresh one takes it): opening a sharded manifest as
	// unsharded would misplace every chunk.
	if o.ShardFanout != 0 && !pooled && o.ShardFanout != fanout {
		if l.Recorded {
			return fmt.Errorf("store: cannot reshard %s to fanout %d (recorded at fanout %d)", s.dir, o.ShardFanout, fanout)
		}
		fanout = o.ShardFanout
	}
	// Pool attachment: only fresh directories can attach — moving a
	// recorded run's chunks into (or out of) a pool would strand every
	// committed chunk record.
	if o.Pool != "" {
		if l.Recorded && !pooled {
			return fmt.Errorf("store: cannot attach recorded run %s to pool %s (recorded with a private pack)", s.dir, o.Pool)
		}
		pooled = true
	}
	s.fanout = fanout
	s.pooled = pooled
	return nil
}

// writeMarker persists the FORMAT marker for writable v2 stores, only when
// absent or different, and via write-then-rename: rewriting it in place on
// every open would leave a crash window in which a torn marker bricks an
// otherwise intact run behind the UnknownFormatError refusal.
func (s *Store) writeMarker() error {
	if s.readOnly {
		return nil
	}
	want := formatMarker(s.fanout, s.pooled, s.gcMarked, s.lz4Marked)
	if cur, err := os.ReadFile(s.formatPath()); err != nil || !bytes.Equal(cur, want) {
		if err := writeFileAtomic(s.formatPath(), want); err != nil {
			return fmt.Errorf("store: write format marker: %w", err)
		}
	}
	return nil
}

// initBackend selects the pack backend: an explicit one from the options,
// or a local-directory backend over the run directory plus any extra shard
// roots (from the options for new stores, from the SHARDS file for
// reopens).
func (s *Store) initBackend(o Options) error {
	if o.Backend != nil {
		s.backend = o.Backend
		return nil
	}
	persisted, err := readShardDirsFile(s.dir)
	if err != nil {
		return err
	}
	extra := o.ShardDirs
	if len(extra) == 0 && !o.PinShardDirs {
		extra = persisted
	} else {
		// Pack placement is a function of the root list (order included), so
		// a recorded store's roots are immutable: silently adopting a
		// different list would relocate every lookup away from the real
		// packs — and rewriting SHARDS would make even plain opens stay
		// broken. Refuse, like a conflicting shard fanout. Comparison is on
		// resolved roots, so callers may pin the roots a registration-time
		// ShardRoots reported and a later SHARDS rewrite fails the open
		// instead of silently redirecting reads.
		resolve := func(entries []string) []string {
			out := make([]string, len(entries))
			for i, e := range entries {
				out[i] = resolveShardRoot(s.dir, e)
			}
			return out
		}
		same := slices.Equal(resolve(extra), resolve(persisted))
		if s.recorded && !same {
			return fmt.Errorf("store: cannot relocate shard packs of %s (recorded with shard dirs %q, got %q)",
				s.dir, persisted, extra)
		}
		if !s.readOnly && !same {
			// Persist the extra roots so later plain opens find the packs.
			if err := writeFileAtomic(s.shardDirsPath(), []byte(strings.Join(extra, "\n")+"\n")); err != nil {
				return fmt.Errorf("store: write shard dirs: %w", err)
			}
		}
	}
	roots := []string{s.dir}
	for _, d := range extra {
		roots = append(roots, resolveShardRoot(s.dir, d))
	}
	if s.readOnly {
		s.backend = &DirBackend{roots: roots}
		return nil
	}
	b, err := NewDirBackend(roots...)
	if err != nil {
		return err
	}
	s.backend = b
	return nil
}

// resolvePoolPath resolves a pool reference against the run directory
// (relative references keep run families relocatable as a unit).
func resolvePoolPath(dir, entry string) string {
	if !filepath.IsAbs(entry) {
		return filepath.Join(dir, entry)
	}
	return entry
}

// attachPool connects a pooled store to its shared chunk pool: the recorded
// pool-reference record names it for reopens; fresh directories take it
// from Options.Pool.
func (s *Store) attachPool(o Options) error {
	recordedRef := ""
	if s.recorded {
		ref, _, err := peekPoolRef(s.dir)
		if err != nil {
			return err
		}
		recordedRef = ref
	}
	var root string
	switch {
	case recordedRef != "":
		root = resolvePoolPath(s.dir, recordedRef)
		s.poolRef = recordedRef
		if o.Pool != "" || o.PinPool {
			// Pinning compares resolved roots, so callers may pin the root a
			// registration-time PoolRef reported and a later manifest rewrite
			// fails the open instead of silently redirecting reads. Option
			// paths are cwd-relative, recorded references run-dir-relative.
			rec, err := resolvePoolRoot(root)
			if err != nil {
				return err
			}
			var want string
			if o.Pool != "" {
				if want, err = resolvePoolRoot(o.Pool); err != nil {
					return err
				}
			}
			if want != rec {
				return fmt.Errorf("store: cannot repoint %s to pool %q (recorded against %q)", s.dir, o.Pool, recordedRef)
			}
		}
	case o.Pool != "":
		root = o.Pool // cwd-relative; openSharedPool canonicalizes
	default:
		return fmt.Errorf("store: %s is marked pooled but its manifest carries no pool reference (pass Options.Pool)", s.dir)
	}
	// On recorded pooled runs the marker's fanout is the pool's; a
	// conflicting explicit request is refused by openSharedPool.
	want := o.ShardFanout
	if want == 0 && s.recorded {
		want = s.fanout
	}
	p, err := openSharedPool(root, want, s.readOnly)
	if err != nil {
		return err
	}
	s.pool = p
	s.fanout = p.fanout
	s.poolRoot = p.root
	return nil
}

// commitPoolAttachment makes a writable pooled open durable: the manifest's
// leading pool-reference record plus the pool-side LEASE entry.
func (s *Store) commitPoolAttachment() error {
	if !s.sawPRec {
		// Prefer a run-dir-relative reference so a project tree (runs +
		// POOL) can relocate as a unit; fall back to the canonical absolute
		// root when no relative path exists.
		ref := s.poolRoot
		if absDir, err := filepath.Abs(s.dir); err == nil {
			if resolved, rerr := filepath.EvalSymlinks(absDir); rerr == nil {
				absDir = resolved
			}
			if rel, rerr := filepath.Rel(absDir, s.poolRoot); rerr == nil {
				ref = rel
			}
		}
		s.mu.Lock()
		err := s.appendManifestLocked(frameTagged(recPool, encodePoolRef(ref, s.fanout)))
		if err == nil {
			s.sawPRec = true
			s.poolRef = ref
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return s.pool.writeLease(s.dir)
}

// peekPoolRef reads the pool reference off a pooled run's manifest without
// replaying it: the pool-reference record is always the manifest's first
// record.
func peekPoolRef(dir string) (ref string, fanout int, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return "", 0, nil
	}
	if err != nil {
		return "", 0, fmt.Errorf("store: read manifest: %w", err)
	}
	payload, _, err := codec.Unframe(raw)
	if err != nil {
		// A torn first record (crash during the attachment append) reads as
		// "no reference yet": writable opens truncate the tail and re-append
		// from Options.Pool.
		return "", 0, nil
	}
	if len(payload) == 0 || payload[0] != recPool {
		return "", 0, fmt.Errorf("%w: pooled run %s: manifest does not start with a pool-reference record", codec.ErrCorrupt, dir)
	}
	return decodePoolRef(payload[1:])
}

// PoolRef reports the shared chunk pool a run directory is attached to: the
// resolved pool root and ok=true for pooled runs, ok=false otherwise.
// Registration paths use it to validate and pin pool roots.
func PoolRef(dir string) (root string, ok bool, err error) {
	l, _, err := detectDir(dir)
	if err != nil {
		return "", false, err
	}
	if !l.Pooled {
		return "", false, nil
	}
	ref, _, err := peekPoolRef(dir)
	if err != nil {
		return "", false, err
	}
	if ref == "" {
		return "", false, fmt.Errorf("store: %s is marked pooled but has no manifest", dir)
	}
	// Canonicalize so callers grouping runs by pool root compare equal
	// strings regardless of how each run recorded the reference.
	root, err = resolvePoolRoot(resolvePoolPath(dir, ref))
	if err != nil {
		return "", false, err
	}
	return root, true, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ShardFanout returns the chunk-pack shard count: 0 for v1 stores, 1 for
// the unsharded v2 layout, the fanout for sharded and pooled stores.
func (s *Store) ShardFanout() int {
	if s.format != FormatV2 {
		return 0
	}
	return s.pool.Fanout()
}

// Pooled reports whether the run's chunks live in a shared pool.
func (s *Store) Pooled() bool { return s.pooled }

// PoolRoot returns the resolved root of the attached shared pool ("" for
// private-pack stores).
func (s *Store) PoolRoot() string { return s.poolRoot }

// PoolStats returns the attached pool's pool-wide storage accounting;
// ok is false for stores without a shared pool. (For per-run accounting see
// Dedup; a pooled run's stored-bytes counters cover only chunks this store
// instance published.)
func (s *Store) PoolStats() (PoolStats, bool) {
	if !s.pooled {
		return PoolStats{}, false
	}
	return s.pool.Stats(), true
}

// Layout returns the store's detected layout.
func (s *Store) Layout() Layout {
	s.mu.Lock()
	recorded := len(s.metas) > 0
	s.mu.Unlock()
	return Layout{Format: s.format, ShardFanout: s.ShardFanout(), Pooled: s.pooled, Recorded: recorded}
}

func (s *Store) formatPath() string    { return filepath.Join(s.dir, formatFile) }
func (s *Store) manifestPath() string  { return filepath.Join(s.dir, manifestFile) }
func (s *Store) shardDirsPath() string { return filepath.Join(s.dir, shardDirsFile) }

func (s *Store) segmentPath(seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-%08d.bin", seq))
}

func (s *Store) replayManifest() error {
	raw, err := os.ReadFile(s.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read manifest: %w", err)
	}
	off := 0
	validated := 0
	for off < len(raw) {
		payload, consumed, err := codec.Unframe(raw[off:])
		if err != nil {
			// Torn tail: truncate the manifest back to the last good record.
			break
		}
		if !s.applyRecord(payload) {
			break
		}
		off += consumed
		validated = off
	}
	if validated < len(raw) && !s.readOnly {
		if err := os.Truncate(s.manifestPath(), int64(validated)); err != nil {
			return fmt.Errorf("store: truncate torn manifest: %w", err)
		}
	}
	return nil
}

// applyRecord replays one manifest record payload into the in-memory state,
// returning false when the record is undecodable (treated as a torn tail).
// It runs single-threaded at open, before the store is shared.
func (s *Store) applyRecord(payload []byte) bool {
	body := payload
	tag := byte(recMeta)
	if s.format == FormatV2 {
		if len(payload) == 0 {
			return false
		}
		tag = payload[0]
		body = payload[1:]
	}
	switch tag {
	case recChunk:
		hash, loc, err := decodeChunkRecord(body)
		if err != nil {
			return false
		}
		if s.pooled {
			// Pooled manifests carry no chunk records (they live in the pool
			// INDEX); tolerate and ignore rather than truncate.
			return true
		}
		// Validation against the pack's real length happens after the full
		// replay (ChunkPool.finishOpen), once the active generation is known.
		s.pool.adopt(hash, loc)
	case recPool:
		ref, fanout, err := decodePoolRef(body)
		if err != nil {
			return false
		}
		// The reference was already resolved by attachPool's peek; replay
		// just confirms its presence (and sanity) so reopen skips re-adding.
		if s.pooled && ref != "" && fanout == s.fanout {
			s.sawPRec = true
		}
	case recMeta:
		m, err := decodeMeta(body)
		if err != nil {
			return false
		}
		// A manifest record only counts if its segment survived intact.
		if _, statErr := os.Stat(s.segmentPath(m.Seq)); statErr == nil {
			s.commitLocked(m)
		}
		if m.Seq >= s.nextSeq {
			s.nextSeq = m.Seq + 1
		}
	default:
		return false
	}
	return true
}

// commitLocked installs a meta into the index and accumulates dedup stats.
func (s *Store) commitLocked(m *Meta) {
	s.index[m.Key] = m
	s.metas = append(s.metas, m)
	if m.Format == FormatV2 {
		s.dedup.LogicalBytes += m.Size
	}
}

func encodeMeta(m *Meta) []byte {
	w := codec.NewWriter()
	w.String(m.Key.LoopID)
	w.Int(m.Key.Exec)
	w.Int(m.Seq)
	w.Int(int(m.Size))
	w.Int(0) // gzSize: a slot older builds filled; ignored on read
	w.Int(int(m.MaterNs))
	w.Int(int(m.SnapNs))
	w.Int(int(m.ComputNs))
	// Trailing fields added with format v2; v1 decoders never read this far.
	w.Int(m.Format)
	w.Int(int(m.StoredBytes))
	return w.Bytes()
}

func decodeMeta(b []byte) (*Meta, error) {
	r := codec.NewReader(b)
	m := &Meta{}
	var err error
	if m.Key.LoopID, err = r.String(); err != nil {
		return nil, err
	}
	var ignored int64 // the gzSize slot older builds filled
	fields := []*int64{nil, &m.Size, &ignored, &m.MaterNs, &m.SnapNs, &m.ComputNs}
	if m.Key.Exec, err = r.Int(); err != nil {
		return nil, err
	}
	if m.Seq, err = r.Int(); err != nil {
		return nil, err
	}
	for _, f := range fields[1:] {
		v, err := r.Int()
		if err != nil {
			return nil, err
		}
		*f = int64(v)
	}
	// Records written before format v2 end here.
	m.Format = FormatV1
	m.StoredBytes = m.Size
	if r.Remaining() > 0 {
		if m.Format, err = r.Int(); err != nil {
			return nil, err
		}
		sb, err := r.Int()
		if err != nil {
			return nil, err
		}
		m.StoredBytes = int64(sb)
	}
	return m, nil
}

func encodeChunkRecord(hash ckptfmt.Hash, loc chunkLoc) []byte {
	w := codec.NewWriter()
	w.RawBytes(hash[:])
	w.Int(int(loc.Off))
	w.Int(loc.EncLen)
	w.Int(loc.RawLen)
	w.Uvarint(uint64(loc.Style))
	// The pack generation is a trailing optional field: generation 0 is
	// omitted, keeping never-compacted manifests byte-identical to the
	// pre-pool encoding. Stores with generation records carry the "gc"
	// FORMAT flag so pre-GC builds refuse instead of reading the wrong pack.
	if loc.Gen > 0 {
		w.Uvarint(uint64(loc.Gen))
	}
	return w.Bytes()
}

// encodePoolRef encodes a pool-reference record: the pool root (relative
// references resolve against the run directory) and the pool's fanout.
func encodePoolRef(ref string, fanout int) []byte {
	w := codec.NewWriter()
	w.String(ref)
	w.Int(fanout)
	return w.Bytes()
}

func decodePoolRef(b []byte) (ref string, fanout int, err error) {
	r := codec.NewReader(b)
	if ref, err = r.String(); err != nil {
		return "", 0, err
	}
	if fanout, err = r.Int(); err != nil {
		return "", 0, err
	}
	return ref, fanout, nil
}

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
	loc.Off = int64(off)
	loc.Style = byte(style)
	if r.Remaining() > 0 {
		gen, err := r.Uvarint()
		if err != nil {
			return hash, loc, err
		}
		loc.Gen = int(gen)
	}
	return hash, loc, nil
}

// frameTagged wraps a record body with its type tag and CRC frame — the one
// encoding shared by v2 manifest records and pool INDEX records.
func frameTagged(tag byte, body []byte) []byte {
	payload := make([]byte, 0, len(body)+1)
	payload = append(payload, tag)
	payload = append(payload, body...)
	return codec.Frame(payload)
}

// Put durably stores payload for key and commits it to the manifest.
// snapNs and serNs are the observed snapshot and serialization times for
// this checkpoint; Put measures its own write time and records
// MaterNs = snapNs + serNs + writeNs, the full materialization cost used by
// adaptive checkpointing (paper Table 2's M_i). computNs is the loop
// execution time being memoized (C_i).
//
// The payload is stored as a single opaque section — chunked, content-addressed,
// and deduplicated like any other checkpoint, but with no per-entry structure. PutSections is the structured (and more parallel)
// write path.
func (s *Store) Put(key Key, payload []byte, snapNs, serNs, computNs int64) (*Meta, error) {
	if s.readOnly {
		return nil, ErrReadOnly
	}
	return s.putV2(key, []Section{{Data: payload}}, nil, true, snapNs, serNs, computNs)
}

// PutSections durably stores a checkpoint as named sections. Sections are
// chunked, frames for previously unseen chunks are encoded in parallel and
// appended to their hash shards' packs (concurrently across shards), and the
// segment directory plus manifest records commit the checkpoint. PutSections is safe to call from several
// goroutines at once: shards serialize their own appends and the manifest
// commit is atomic per checkpoint. The sections' Data is only read, and only
// until PutSections returns — nothing of it stays referenced from the store,
// so the caller may overwrite the buffers with its next checkpoint. Every
// chunk is hashed, every time: the store remembers nothing about a []Section
// between puts. See Put for the timing parameters.
func (s *Store) PutSections(key Key, secs []Section, snapNs, serNs, computNs int64) (*Meta, error) {
	return s.PutSectionsKnown(key, secs, nil, snapNs, serNs, computNs)
}

// PutSectionsKnown is PutSections for the caller that owns its section
// buffers from put to put and is their only writer: known[i] belongs to
// secs[i]. A chunk whose hash is on offer (KnownChunks.Clean) is not hashed
// again; everything after the hash — dedup probe, frame, directory, manifest —
// is what PutSections does, so the bytes on disk are the same. On return
// known[i].Hashes holds the hash of every chunk of secs[i] as just stored and
// no claim is left standing: an offer is good for one put, and only its writer
// can renew it. A failed put forgets the hashes too. A nil known is
// PutSections.
func (s *Store) PutSectionsKnown(key Key, secs []Section, known []KnownChunks, snapNs, serNs, computNs int64) (m *Meta, err error) {
	defer func() {
		if err != nil {
			clear(known)
		}
	}()
	if s.readOnly {
		return nil, ErrReadOnly
	}
	if known != nil && len(known) != len(secs) {
		return nil, fmt.Errorf("store: %d sections put with known chunks of %d", len(secs), len(known))
	}
	return s.putV2(key, secs, known, false, snapNs, serNs, computNs)
}

// putHook is nil outside tests and race builds (VerifyOffers in export_test.go, race.go).
// putV2 shows it every chunk with the hash it is about to store the chunk
// under and whether that hash was offered by the caller or just computed; an
// error fails the put.
var putHook func(chunk []byte, h ckptfmt.Hash, offered bool) error

// verifyOffered is the putHook that takes no offer on trust.
func verifyOffered(chunk []byte, h ckptfmt.Hash, offered bool) error {
	if !offered {
		return nil
	}
	if got := ckptfmt.HashChunk(chunk); got != h {
		return fmt.Errorf("store: hash %s offered for a %d-byte chunk that hashes to %s", h, len(chunk), got)
	}
	return nil
}

// putV2 is the one write path: every new checkpoint is format v2. A section
// byte is touched three times: hashed once — unless its chunk came with a hash
// its writer vouches for (PutSectionsKnown), the only way a chunk skips
// HashChunk — the hash probing the dedup index and, for a fresh chunk, being
// the one its raw frame carries; and copied once into the staging span of its
// shard's pack append (appendFrames), together with the CRC pass over that
// copy. putV2 never decides a hash is reusable: it takes offers and hands
// every chunk's hash back, and a []Section put twice is hashed in full twice.
// Chunks and frames alias secs[i].Data throughout; every alias is dropped by
// the time putV2 returns.
func (s *Store) putV2(key Key, secs []Section, known []KnownChunks, opaque bool, snapNs, serNs, computNs int64) (*Meta, error) {
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	s.mu.Unlock()

	w0 := time.Now()

	// Chunk every section and hash, in parallel, every chunk that did not come
	// with its hash; the directory is fully determined by content before any
	// byte hits disk.
	dir := ckptfmt.Directory{Opaque: opaque, Sections: make([]ckptfmt.SectionRef, len(secs))}
	var flat [][]byte
	var hashes []ckptfmt.Hash
	var offered []bool // hashes[i] came with flat[i]
	var logical int64
	for i, sec := range secs {
		chunks := codec.SplitChunks(sec.Data, ckptfmt.DefaultChunkSize)
		dir.Sections[i] = ckptfmt.SectionRef{Name: sec.Name, Chunks: make([]ckptfmt.ChunkRef, len(chunks))}
		for j, c := range chunks {
			h, ok := offer(known, i, j)
			flat = append(flat, c)
			hashes = append(hashes, h)
			offered = append(offered, ok)
		}
		logical += int64(len(sec.Data))
	}
	ckptfmt.ParallelDo(len(flat), func(i int) {
		if !offered[i] {
			hashes[i] = ckptfmt.HashChunk(flat[i])
		}
	})
	for i := 0; putHook != nil && i < len(flat); i++ {
		if err := putHook(flat[i], hashes[i], offered[i]); err != nil {
			return nil, err
		}
	}
	n := 0
	for i := range dir.Sections {
		chunks := dir.Sections[i].Chunks
		for j := range chunks {
			chunks[j] = ckptfmt.ChunkRef{RawLen: len(flat[n+j]), Hash: hashes[n+j]}
		}
		if known != nil {
			known[i] = KnownChunks{Hashes: append(known[i].Hashes[:0], hashes[n:n+len(chunks)]...)}
		}
		n += len(chunks)
	}

	// The pool's GC fence: holding the read side from fresh-chunk filtering
	// through the manifest commit means a compaction pass can never reclaim
	// a chunk this checkpoint deduplicated against — the segment directory
	// below is on disk (and thus visible to GC's mark phase) before the
	// fence releases.
	p := s.pool
	p.gcMu.RLock()
	defer p.gcMu.RUnlock()

	// Select chunks the pool has not stored yet (deduplicating within this
	// checkpoint too), probing each shard's index under its own lock. A
	// concurrent put racing on the same fresh chunk stores it twice — benign
	// pack bloat, since locations publish only with the durable commit and
	// the first committed record wins at replay.
	newIdx := p.filterFresh(hashes)
	obs.C(obs.MStoreChunkDedupHits).Add(int64(len(flat) - len(newIdx)))
	// Raw frames for the fresh chunks only, each carrying the hash settled
	// above: a chunk's bytes are hashed at most once per put, whether it
	// dedups or not.
	frames := make([]ckptfmt.Frame, len(newIdx))
	for i, j := range newIdx {
		frames[i] = ckptfmt.BuildHashed(flat[j], hashes[j])
	}

	// Segment file: the CRC-framed directory. Written before the manifest
	// record so a crash never commits a directory-less checkpoint — and
	// before the pack appends, so GC's mark phase (which scans segment
	// files) always sees a materializing checkpoint's chunk references.
	if err := s.writeSegment(seq, codec.Frame(ckptfmt.EncodeDirectory(&dir))); err != nil {
		return nil, err
	}

	// Fan the fresh frames out across their hash shards (concurrently); for
	// shared pools this also durably appends the chunk records to the pool
	// INDEX and publishes them to sibling runs.
	a0 := time.Now()
	locs, err := p.appendFrames(frames)
	if err != nil {
		return nil, err
	}
	obs.H(obs.MStoreShardAppendSeconds).ObserveNs(time.Since(a0).Nanoseconds())
	obs.C(obs.MStoreChunksWritten).Add(int64(len(frames)))

	// Commit under the store lock: chunk records (private pools only — a
	// shared pool's records live in its INDEX), then the meta record — the
	// manifest never references bytes that aren't on disk. Private-pool
	// chunk locations publish to the shard indexes only now, so concurrent
	// puts never dedup against a chunk whose manifest record could still be
	// lost to a crash.
	s.mu.Lock()
	defer s.mu.Unlock()
	var record []byte
	var stored int64
	for i := range frames {
		stored += int64(locs[i].EncLen)
		s.dedup.ChunksStored++
		s.dedup.StoredRawBytes += int64(locs[i].RawLen)
		s.dedup.StoredEncBytes += int64(locs[i].EncLen)
		if !p.shared {
			record = append(record, frameTagged(recChunk, encodeChunkRecord(frames[i].Hash, locs[i]))...)
		}
	}
	s.dedup.ChunkRefs += int64(len(flat))
	obs.C(obs.MStoreChunkBytesWritten).Add(stored)
	writeNs := time.Since(w0).Nanoseconds()
	m := &Meta{
		Key: key, Seq: seq, Size: logical,
		MaterNs: snapNs + serNs + writeNs, SnapNs: snapNs, ComputNs: computNs,
		Format: FormatV2, StoredBytes: stored,
	}
	record = append(record, frameTagged(recMeta, encodeMeta(m))...)
	if err := s.appendManifestLocked(record); err != nil {
		return nil, err
	}
	if !p.shared {
		p.publish(frames, locs)
	}
	s.commitLocked(m)
	return m, nil
}

// writeFileAtomic commits data to path via write-then-rename, so readers
// (and existence-based skip checks) never observe a torn file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort: the write's or the rename's error is the one to report
	}
	return err
}

// writeSegment commits framed bytes to segment seq via write-then-rename.
func (s *Store) writeSegment(seq int, framed []byte) error {
	if err := writeFileAtomic(s.segmentPath(seq), framed); err != nil {
		return fmt.Errorf("store: write segment: %w", err)
	}
	return nil
}

func (s *Store) appendManifestLocked(record []byte) error {
	f, err := os.OpenFile(s.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open manifest: %w", err)
	}
	if _, err := f.Write(record); err != nil {
		f.Close()
		return fmt.Errorf("store: append manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close manifest: %w", err)
	}
	return nil
}

// Get returns the payload of the latest committed checkpoint for key. For
// format v2 checkpoints the payload is reassembled from its frames (decoded
// in parallel) into the exact byte stream Put or the bundle encoder
// originally produced, so callers are format-agnostic.
func (s *Store) Get(key Key) ([]byte, error) {
	c, err := s.Resolve(key)
	if err != nil {
		return nil, err
	}
	m, dir := c.m, c.dir
	if m.Format != FormatV2 {
		raw, err := os.ReadFile(s.segmentPath(m.Seq))
		if err != nil {
			if s.readOnly && errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("%w: segment %d for %s", ErrStalePack, m.Seq, key)
			}
			return nil, fmt.Errorf("store: read segment %d: %w", m.Seq, err)
		}
		payload, _, err := codec.Unframe(raw)
		if err != nil {
			return nil, fmt.Errorf("store: segment %d: %w", m.Seq, err)
		}
		return payload, nil
	}
	secs, err := c.ReadInto(nil, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	if dir.Opaque {
		if len(secs) == 1 {
			return secs[0].Data, nil
		}
		var out []byte
		for _, sec := range secs {
			out = append(out, sec.Data...)
		}
		return out, nil
	}
	// Reassemble the v1 bundle encoding: count, then (name, payload) pairs —
	// byte-identical to what the bundle encoder originally produced.
	w := codec.NewWriter()
	w.Uvarint(uint64(len(secs)))
	for _, sec := range secs {
		w.String(sec.Name)
		w.RawAppend(sec.Data)
	}
	return w.Bytes(), nil
}

// GetSections returns the named sections of a format-v2 checkpoint, decoded
// in parallel. ok is false when the checkpoint is stored in format v1 or as
// an opaque blob; callers fall back to Get + whole-payload decoding.
//
// When have is non-nil, sections whose content identity it reports as
// already held are returned with nil Data (Hash and RawLen still set) and
// their chunks are never read — the disk, CRC, and reassembly cost of
// repeated content (frozen layers restored epoch after epoch) drops to a
// directory read.
func (s *Store) GetSections(key Key, have func(ckptfmt.Hash) bool) (secs []Section, ok bool, err error) {
	return s.GetSectionsObserved(key, have, nil)
}

// GetSectionsObserved is GetSections with per-tier fetch attribution: when fs
// is non-nil, every chunk frame the read touches (and every frame a
// payload-cache hit skips) is accounted to its fetch tier in fs. A nil fs is
// exactly GetSections — the hot path pays no observation cost.
func (s *Store) GetSectionsObserved(key Key, have func(ckptfmt.Hash) bool, fs *FetchStats) (secs []Section, ok bool, err error) {
	c, err := s.Resolve(key)
	if err != nil {
		return nil, false, err
	}
	if !c.Sectioned() {
		return nil, false, nil
	}
	secs, err = c.ReadInto(nil, have, fs, nil)
	if err != nil {
		return nil, false, err
	}
	return secs, true, nil
}

// Checkpoint is a committed checkpoint resolved for reading: its metadata
// and, for format v2, its decoded segment directory. Resolving costs one small
// segment read; ReadInto then costs what the caller asks of it, as often as it
// asks.
type Checkpoint struct {
	s   *Store
	m   *Meta
	dir *ckptfmt.Directory
}

// Sectioned reports whether the checkpoint is stored as named sections;
// format-v1 and opaque checkpoints are not, and are read whole with Get.
func (c *Checkpoint) Sectioned() bool { return c.m.Format == FormatV2 && !c.dir.Opaque }

// Carries reports whether the checkpoint is sectioned and has a section of
// the given name. (What an unsectioned checkpoint carries is known only by
// reading it whole.)
func (c *Checkpoint) Carries(name string) bool {
	return c.Sectioned() && slices.ContainsFunc(c.dir.Sections, func(s ckptfmt.SectionRef) bool { return s.Name == name })
}

// Section returns the named section's content identity and logical length,
// computed from the segment directory alone as ReadInto does before it reads
// anything: no pack byte is read, and nothing is fetched or counted. ok is
// false when the checkpoint has no such section or is not sectioned.
func (c *Checkpoint) Section(name string) (s Section, ok bool) {
	if !c.Sectioned() {
		return Section{}, false
	}
	i := slices.IndexFunc(c.dir.Sections, func(s ckptfmt.SectionRef) bool { return s.Name == name })
	if i < 0 {
		return Section{}, false
	}
	ds := &c.dir.Sections[i]
	return Section{Name: name, Hash: contentHash(ds), RawLen: ds.RawLen()}, true
}

// contentHash is a section's content identity: the hash of its chunk hashes.
func contentHash(ds *ckptfmt.SectionRef) ckptfmt.Hash {
	hs := make([]ckptfmt.Hash, len(ds.Chunks))
	for j, ref := range ds.Chunks {
		hs[j] = ref.Hash
	}
	return ckptfmt.HashOfHashes(hs)
}

// Resolve looks key up and, for v2 checkpoints, reads and decodes its
// segment directory.
func (s *Store) Resolve(key Key) (*Checkpoint, error) {
	s.mu.Lock()
	m, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if m.Format != FormatV2 {
		return &Checkpoint{s: s, m: m}, nil
	}
	raw, err := os.ReadFile(s.segmentPath(m.Seq))
	if err != nil {
		// A read-only open's index says this segment exists; a writer in
		// another process superseding the key and sweeping the old segment
		// (GC's segment sweep has no grace period) is the only way it can be
		// gone. The index is stale, not corrupt — reopening resolves the
		// successor checkpoint.
		if s.readOnly && errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: segment %d for %s", ErrStalePack, m.Seq, key)
		}
		return nil, fmt.Errorf("store: read segment %d: %w", m.Seq, err)
	}
	payload, _, err := codec.Unframe(raw)
	if err != nil {
		return nil, fmt.Errorf("store: segment %d: %w", m.Seq, err)
	}
	dir, err := ckptfmt.DecodeDirectory(payload)
	if err != nil {
		return nil, fmt.Errorf("store: segment %d directory: %w", m.Seq, err)
	}
	return &Checkpoint{s: s, m: m, dir: dir}, nil
}

// ReadInto materializes sections of a v2 checkpoint: chunk frames are
// fetched and decoded by the pool's one read pipeline (see fetch.go) — runs
// of neighbouring frames read concurrently across shards, each run decoded
// the moment its bytes land. The result has one entry per section, in the
// checkpoint's order.
//
// Two callbacks, both optional, keep sections on disk. A section whose name
// want declines is not the caller's business this time: nothing about it is
// resolved, fetched or counted, and its entry is bare-named. A wanted
// section whose content identity have claims is a payload-cache hit: it
// comes back with nil Data (Hash and RawLen set), its chunks are never read
// — the disk, CRC, and reassembly cost of repeated content (frozen layers
// restored epoch after epoch) drops to the directory read — and the
// attribution records the logical bytes that skip saved.
//
// Where a loaded section's bytes land is the caller's to say, and every
// byte lands once: the kernel read puts a large raw frame's payload there
// directly, and anything staged (small or compressed records, other
// backends' spans, lent extents) is decoded there straight out of transient
// arena spans. into, when non-nil, is asked for each section about to load;
// pieces it returns must tile exactly rawLen bytes of memory the caller owns
// and nothing else touches until ReadInto returns (a section laid over the
// live tensors it restores, see value.Layout). The section is read into
// them, in order, and comes back with nil Data. Where into is nil or returns
// nil the section lands in a freshly allocated Data, the caller's to retain.
// Every wanted section's destination is written even when the call fails, so
// a failed read may leave pieces holding anything.
//
// Both callbacks are invoked without any store lock held, and each shard's
// lock is taken only briefly to resolve chunk locations: concurrent readers
// from many server goroutines must not serialize on each other's cache
// probes.
func (c *Checkpoint) ReadInto(want func(name string) bool, have func(ckptfmt.Hash) bool, fs *FetchStats, into func(name string, rawLen int) [][]byte) ([]Section, error) {
	dir, p := c.dir, c.s.pool
	secs := make([]Section, len(dir.Sections))
	// Phase 1, lock-free: compute each wanted section's content identity and
	// ask the caller which of them it already holds.
	var load []int
	for i := range dir.Sections {
		ds := &dir.Sections[i]
		if want != nil && !want(ds.Name) {
			secs[i].Name = ds.Name
			continue
		}
		secs[i] = Section{Name: ds.Name, Hash: contentHash(ds), RawLen: ds.RawLen()}
		if have != nil && have(secs[i].Hash) {
			p.countFetch(tierCache, int64(secs[i].RawLen), int64(len(ds.Chunks)), fs)
			continue
		}
		load = append(load, i)
	}
	if len(load) == 0 {
		return secs, nil
	}
	// Phase 2: lay each section's destination out over its chunks, then
	// resolve chunk locations from the pool's two-level dedup index,
	// locking each involved shard exactly once.
	nchunks := 0
	for _, i := range load {
		nchunks += len(dir.Sections[i].Chunks)
	}
	jobs := make([]chunkJob, 0, nchunks)
	byShard := map[int][]int{} // shard -> indices into jobs
	for _, i := range load {
		ds := &dir.Sections[i]
		var pieces [][]byte
		if into != nil {
			pieces = into(ds.Name, secs[i].RawLen)
		}
		if pieces == nil {
			secs[i].Data = make([]byte, secs[i].RawLen)
			pieces = [][]byte{secs[i].Data}
		}
		dsts, err := cutPieces(pieces, ds)
		if err != nil {
			return nil, err
		}
		for k, ref := range ds.Chunks {
			si := p.shardOf(ref.Hash)
			byShard[si] = append(byShard[si], len(jobs))
			jobs = append(jobs, chunkJob{ref: ref, dst: dsts[k]})
		}
	}
	if err := p.resolve(jobs, byShard, c.m.Seq); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return secs, nil
	}
	// Phase 3: fetch and decode every frame into its destination.
	if err := p.fetch(jobs, byShard, fs); err != nil {
		return nil, err
	}
	return secs, nil
}

// cutPieces cuts a section's destination pieces at its chunk boundaries:
// the k-th result is the pieces, in order, that chunk k's raw bytes land
// in. Empty pieces are dropped. The pieces must tile exactly the section.
func cutPieces(pieces [][]byte, ds *ckptfmt.SectionRef) ([][][]byte, error) {
	total := 0
	for _, pc := range pieces {
		total += len(pc)
	}
	if total != ds.RawLen() {
		return nil, fmt.Errorf("store: section %q is %d bytes, its destination %d", ds.Name, ds.RawLen(), total)
	}
	// Each chunk boundary splits at most one piece in two.
	flat := make([][]byte, 0, len(pieces)+len(ds.Chunks))
	out := make([][][]byte, len(ds.Chunks))
	var cur []byte
	for k, ref := range ds.Chunks {
		start := len(flat)
		for need := ref.RawLen; need > 0; {
			for len(cur) == 0 {
				cur, pieces = pieces[0], pieces[1:]
			}
			n := min(need, len(cur))
			flat = append(flat, cur[:n:n])
			cur, need = cur[n:], need-n
		}
		out[k] = flat[start:len(flat):len(flat)]
	}
	return out, nil
}

// Has reports whether a committed checkpoint exists for key.
func (s *Store) Has(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Lookup returns the metadata for key if committed. The returned Meta is a
// copy the caller may keep or modify without touching the store's record.
func (s *Store) Lookup(key Key) (*Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.index[key]
	if !ok {
		return nil, false
	}
	cp := *m
	return &cp, true
}

// Metas returns copies of all committed checkpoints' metadata in commit
// order.
func (s *Store) Metas() []*Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Meta, len(s.metas))
	for i, m := range s.metas {
		cp := *m
		out[i] = &cp
	}
	return out
}

// Dedup returns a copy of the run's chunk-dedup accounting. Only format v2
// checkpoints contribute.
func (s *Store) Dedup() DedupStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dedup
}

// ExecsFor returns the sorted execution indices with committed checkpoints
// for the loop; replay's partitioner aligns weak-initialization segment
// boundaries to these.
func (s *Store) ExecsFor(loopID string) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for k := range s.index {
		if k.LoopID == loopID {
			out = append(out, k.Exec)
		}
	}
	sort.Ints(out)
	return out
}

// TotalSize returns the uncompressed byte total of all committed
// checkpoints.
func (s *Store) TotalSize() int64 {
	var total int64
	for _, m := range s.Metas() {
		total += m.Size
	}
	return total
}

// GC reclaims space from superseded materializations: segment files that
// are no longer the latest checkpoint for their key are deleted, and —
// private-pack stores — chunks referenced only by those superseded checkpoints are compacted out of the packs (GCWith for the
// knobs and full accounting). It returns the number of segments removed.
//
// Compaction is safe under concurrent readers: packs are never rewritten in
// place. Survivors move to a new pack generation, the manifest's chunk
// records are atomically rewritten to the new locations, and the replaced
// generation stays on disk as a grace-period tombstone (GCOptions.
// PackRetention) so a reader that resolved locations before the swap —
// including a concurrent OpenReadOnly store — keeps reading valid bytes. A
// later GC pass deletes expired generations.
//
// Pooled runs GC only their segments here; their chunks are shared with
// sibling runs and are reclaimed by GCPool, which consults every lease.
func (s *Store) GC() (int, error) {
	res, err := s.GCWith(GCOptions{})
	return res.Segments, err
}

// GCWith is GC with explicit options and full reclamation accounting.
func (s *Store) GCWith(o GCOptions) (GCResult, error) {
	var res GCResult
	if s.readOnly {
		return res, ErrReadOnly
	}
	if s.pooled {
		// Pooled runs GC only their segments here (chunks are shared;
		// GCPool reclaims them, so SkipChunks changes nothing) — but the
		// sweep always runs under the pool's GC fence: a segment deleted
		// mid-put would hide its chunk references from a concurrent GCPool
		// mark.
		s.pool.gcMu.Lock()
		defer s.pool.gcMu.Unlock()
		n, err := s.sweepSegments()
		res.Segments = n
		return res, err
	}
	if o.SkipChunks {
		// Chunk-skipping private GC: just the segment sweep. With no chunk
		// mark downstream, sweeping a racing put's segment costs at most that
		// one checkpoint's readability, never pack bytes.
		n, err := s.sweepSegments()
		res.Segments = n
		return res, err
	}

	// Private v2: the segment sweep AND the chunk mark run inside the
	// pool's GC fence (the mark callback executes under gcMu). Puts hold
	// the fence's read side from before their segment write to after their
	// manifest commit, so under the write lock every on-disk segment is
	// either committed (and its meta live or superseded in the index) or an
	// orphan of a failed put — never a mid-flight checkpoint the sweep
	// could vanish before the mark counts its chunk references.
	mark := func() (map[ckptfmt.Hash]bool, error) {
		n, err := s.sweepSegments()
		if err != nil {
			return nil, err
		}
		res.Segments = n
		liveChunks := map[ckptfmt.Hash]bool{}
		if err := collectLiveChunks(s.dir, liveChunks); err != nil {
			return nil, fmt.Errorf("store: gc: %w", err)
		}
		obs.C(obs.MStoreGCMarkedChunks).Add(int64(len(liveChunks)))
		return liveChunks, nil
	}
	cres, err := s.pool.gc(mark, o, s.persistCompaction)
	res.DeadChunks = cres.DeadChunks
	res.ReclaimedBytes = cres.ReclaimedBytes
	res.CompactedShards = cres.CompactedShards
	res.RetiredPacks = cres.RetiredPacks
	res.DeletedPacks = cres.DeletedPacks
	if err != nil {
		return res, err
	}
	if cres.DeadChunks > 0 {
		s.mu.Lock()
		st := s.pool.Stats()
		s.dedup.ChunksStored = st.Chunks
		s.dedup.StoredRawBytes = st.StoredRawBytes
		s.dedup.StoredEncBytes = st.StoredEncBytes
		s.mu.Unlock()
	}
	recordGCMetrics(res)
	return res, nil
}

// recordGCMetrics folds one GC pass's accounting into the registry.
func recordGCMetrics(res GCResult) {
	obs.C(obs.MStoreGCPasses).Inc()
	obs.C(obs.MStoreGCDeadChunks).Add(int64(res.DeadChunks))
	obs.C(obs.MStoreGCRewrittenShards).Add(int64(res.CompactedShards))
	obs.C(obs.MStoreGCTombstonedPacks).Add(int64(res.RetiredPacks))
	obs.C(obs.MStoreGCDeletedPacks).Add(int64(res.DeletedPacks))
}

// sweepSegments deletes segment files that are no longer the latest
// checkpoint for their key, returning the number removed. The caller
// provides the concurrency fence (see GCWith); the seq horizon additionally
// spares segments allocated after the index snapshot on the unfenced paths.
func (s *Store) sweepSegments() (int, error) {
	s.mu.Lock()
	live := map[int]bool{}
	for _, m := range s.index {
		live[m.Seq] = true
	}
	seqHorizon := s.nextSeq
	var kept []*Meta
	for _, m := range s.metas {
		if live[m.Seq] {
			kept = append(kept, m)
		}
	}
	s.metas = kept
	s.mu.Unlock()

	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("store: gc: %w", err)
	}
	removed := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".bin") {
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(name, "ckpt-%d.bin", &seq); err != nil {
			continue
		}
		if !live[seq] && seq < seqHorizon {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return removed, fmt.Errorf("store: gc remove: %w", err)
			}
			os.Remove(filepath.Join(s.dir, name+".gz")) // an older build's gzip twin
			removed++
		}
	}
	return removed, nil
}

// persistCompaction is the private-pool compaction commit: the FORMAT
// marker gains the "gc" flag (pre-GC builds must refuse before the
// manifest starts naming pack generations they would resolve against the
// wrong object), then the manifest is atomically rewritten — the surviving
// chunk records at their new locations, then the live meta records.
func (s *Store) persistCompaction(recs []poolChunkRec) error {
	if !s.gcMarked {
		s.gcMarked = true
		if err := s.writeMarker(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []byte
	for _, cr := range recs {
		buf = append(buf, frameTagged(recChunk, encodeChunkRecord(cr.hash, cr.loc))...)
	}
	for _, m := range s.metas {
		buf = append(buf, frameTagged(recMeta, encodeMeta(m))...)
	}
	if err := writeFileAtomic(s.manifestPath(), buf); err != nil {
		return fmt.Errorf("store: rewrite manifest: %w", err)
	}
	return nil
}
