// Package store implements the on-disk checkpoint store backing Flor record
// and replay: a manifest that commits each checkpoint in one record, over a
// run-agnostic ChunkPool layer (pool.go) owning the content-addressed chunk
// pack, the dedup index its frames make, its INDEX snapshot, and refcounted
// GC/compaction of superseded chunks. A private store is a pool of one
// rooted at the run directory; a shared pool at a project-level root is
// attached by many runs, which then deduplicate chunks against each other
// (fine-tuning families re-checkpointing one frozen backbone store it once).
// docs/FORMATS.md specifies every byte.
//
// # Run directory
//
//	<dir>/FORMAT      format marker
//	<dir>/MANIFEST    append-only, CRC-framed records: 'M' commits a
//	                  checkpoint and carries its directory (package
//	                  ckptfmt: its sections and their chunk hashes); 'P',
//	                  first in a pooled run, names the pool
//	<dir>/CHUNKS      a private pack of raw chunk frames, the log of its
//	                  chunks (CHUNKS.g<n> after GC compaction rewrote it)
//	<dir>/INDEX       a private pack's snapshot (pool.go; a pooled run's
//	                  is its pool's)
//	<dir>/PACKGC      retired pack generations awaiting expiry
//
// Every put, private or pooled, commits in one order: its frames in one pack
// append, then its meta record in one MANIFEST append. A crash at any point
// leaves a prefix-consistent run: open replays the MANIFEST and scans the
// pack past its snapshot, checking every CRC, and a torn tail (a
// flipped byte too) ends a log — write-ahead-log discipline for a redo-only
// workload (paper §7). The next writer cuts a torn pack tail; whole frames
// no checkpoint names are garbage the next GC reclaims. A run leaves the
// machine as these files (remote.UploadRun).
//
// # Layouts
//
// A store has one of two layouts, and neither is a choice: format v2 over a
// private pack (marker "2 dirs packlog") or, with Options.Pool, a run of a
// shared pool, one pack log too (marker "2 pool shards=1 dirs packlog", pool
// marker "pool2 shards=1"). A writable open writes the marker once, into a
// fresh directory (writeMarker); puts and GC never touch it. Older builds
// refuse both: their GC would reclaim every frame the snapshot does not
// cover, and the build before this one would look for 16 hash-prefix packs.
//
// Those two are all an open reads: every layout an older build left fails
// every open, read-only included, with ErrLegacyLayout, touching no byte.
// Such a run — the "2 dirs index", "pool1" and 16-pack "pool2 shards=16"
// layouts included — is migrated, not served: core.Migrate (florctl
// migrate) reads it once through ReadLegacy (legacy.go) into a fresh store.
// Unknown or corrupt markers surface ErrUnknownFormat rather than risk
// misparsing a newer layout.
//
// # Reads and concurrency
//
// Replay resolves a checkpoint (Resolve, an index lookup: every directory
// was decoded once, at open or put) and reads only the sections its
// statements touch through Checkpoint.ReadInto, the one read entry point,
// into buffers the caller laid out or fresh ones; every restore runs one
// pipeline (fetch.go), whatever the backend. Writers of a pool — puts, GC,
// lease changes, in any number of stores and processes — are ordered by its
// commit lock (pool.go); readers take none.
package store

import (
	"bytes"
	"errors"
	"fmt"
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

// FormatV2 is the checkpoint encoding every put writes: frame-based and
// deduplicated (package ckptfmt).
const FormatV2 = 2

// Record tags of a MANIFEST and an INDEX snapshot.
const (
	recMeta = 'M'
	// recChunk locates a chunk in its pack: an INDEX record.
	recChunk = 'C'
	// recShard is the INDEX record of the pack, before the chunk records.
	recShard = 'S'
	// recPool is the pool-reference record: the first record of a pooled
	// run's manifest, naming the shared chunk pool the run's chunks live in.
	recPool = 'P'
)

// Control-plane file names inside a run directory.
const (
	formatFile   = "FORMAT"
	manifestFile = "MANIFEST"
	packFile     = "CHUNKS"
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
	Seq      int   // commit sequence number
	Size     int64 // uncompressed payload size in bytes
	MaterNs  int64 // observed materialization time (serialize+write), ns
	SnapNs   int64 // observed snapshot (training-thread) time, ns
	ComputNs int64 // observed loop computation time, ns
	Format   int   // checkpoint format: FormatV2 (ReadLegacy also yields older ones)
	// StoredBytes is the number of pack bytes this checkpoint added (encoded
	// size of its previously unseen chunks). Dedup hits make it smaller than
	// Size.
	StoredBytes int64
}

// entry is a committed checkpoint as the index holds it: its meta record
// and its directory, decoded once when the record was replayed or written.
// Directories are immutable, so this is the index, not a cache. dirErr is
// why a directory could not be read; Resolve returns it.
type entry struct {
	Meta
	dir    *ckptfmt.Directory
	dirErr error
	gzSize int64 // the slot older builds filled, carried so a record re-encodes as read
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
	// Hash is the section's content identity on read paths (zero on writes).
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
// Chunk bytes live in the store's ChunkPool. A plain v2 store runs on a pool
// of one over the run's own backend, rooted at the run directory; a pooled
// store attaches to a shared pool named by its manifest's pool-reference
// record, where sibling runs of the same project dedup against each other.
type Store struct {
	dir      string
	readOnly bool
	manifest recordLog // appends hold mu

	// pool is the chunk layer. poolRef is, for a run of a shared pool, the
	// path its manifest's pool-reference record holds ("" until that record
	// is written).
	pool    *ChunkPool
	poolRef string

	mu      sync.Mutex
	nextSeq int
	index   map[Key]*entry // latest committed checkpoint per key
	metas   []*entry       // commit order
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

// ErrLegacyLayout is returned by every open of a store or pool in a layout
// an older build left (see Layouts in the package comment), and by GCPool
// over a pool with a leased run in one. The refusal touches nothing;
// florctl migrate copies the run into a fresh store. It is an ErrReadOnly.
var ErrLegacyLayout = fmt.Errorf("%w: legacy layout", ErrReadOnly)

// legacyLayout is the refusal of an open of dir, which is what.
func legacyLayout(dir, what string) error {
	return fmt.Errorf("%w: %s is %s, a layout this build does not open; `florctl migrate <src> <dst> [pool]` copies the run into a fresh store", ErrLegacyLayout, dir, what)
}

// Options configures OpenWith. The zero value reproduces Open: auto-detect
// the layout, local packs, read-write.
type Options struct {
	// Backend overrides pack storage entirely. The control plane (FORMAT,
	// MANIFEST, INDEX) stays in the run directory regardless.
	Backend Backend
	// Pool attaches the run to a shared chunk pool at this root (created if
	// absent; relative paths resolve against the
	// process working directory, while the manifest records a
	// run-dir-relative reference so a project tree relocates as a unit). The
	// run's chunks are published to and read from the pool, deduplicated
	// against every sibling run attached to it; a pool-reference record in
	// the manifest plus a LEASE entry under the pool root make the
	// attachment durable. Only fresh directories can attach; a recorded
	// private-pack run cannot be relocated into a pool (nor a pooled run out
	// of one), and no open attaches to a pool an older build made
	// (ErrLegacyLayout). Reopens need no Pool option
	// — the manifest record names the pool.
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
// the checkpoint index, with every checkpoint's directory decoded, and the
// dedup chunk index. Torn or corrupt manifest tails are truncated away. A
// directory that does not decode stays in the index with its error, which
// Resolve returns. New stores are created at format v2.
func Open(dir string) (*Store, error) {
	return OpenWith(dir, Options{})
}

// OpenReadOnly opens an existing recorded run for shared read-only use — the
// serving daemon's open path. It touches nothing on disk: the FORMAT marker
// is not (re)written, a torn manifest tail is skipped rather than truncated,
// and every write operation (PutSections, GC) fails with ErrReadOnly. The
// returned store is safe for concurrent Resolve and ReadInto from many
// goroutines.
func OpenReadOnly(dir string) (*Store, error) {
	return OpenWith(dir, Options{ReadOnly: true})
}

// OpenWith opens (or, unless o.ReadOnly, creates) a store at dir under the
// given options; Open and OpenReadOnly are thin wrappers. A store in any
// layout but the two this build writes fails with ErrLegacyLayout.
func OpenWith(dir string, o Options) (*Store, error) {
	s := &Store{dir: dir, readOnly: o.ReadOnly, index: map[Key]*entry{}}
	s.manifest = recordLog{path: filepath.Join(dir, manifestFile)}
	// Any layout but the two this build writes stops here, and a read-only
	// open must not mint an empty store out of a typo'd path: the directory
	// has to exist already (DetectLayout). Only fresh directories attach to
	// a pool: moving a recorded run's chunks into (or out of) one would
	// strand every committed chunk record.
	detect := detectDir
	if o.ReadOnly {
		detect = DetectLayout
	}
	l, err := detect(dir)
	if err != nil {
		return nil, err
	}
	if o.Pool != "" && l.Recorded && !l.Pooled {
		return nil, fmt.Errorf("store: cannot attach recorded run %s to pool %s (recorded with a private pack)", dir, o.Pool)
	}
	var recs []manifestRecord // up to a torn tail, which a writable open cuts once it refused nothing
	good, torn, err := scanLog(s.manifest.path, decodeManifestRecord, func(rec manifestRecord) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if slices.ContainsFunc(recs, dirless) {
		return nil, legacyLayout(dir, "a store whose manifest holds segment-file checkpoints")
	}
	if l.Pooled || o.Pool != "" {
		err = s.attachPool(o, recs)
	} else {
		err = s.openPrivatePool(o)
	}
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		s.applyRecord(rec)
	}
	s.adoptPoolStats()
	if s.readOnly {
		return s, nil
	}
	if err := s.pool.refuseDropped(); err != nil {
		return nil, err
	}
	// Every refusal is behind us: only now may a writable open create the
	// run directory (detectDir reads a missing one as fresh).
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	if torn {
		if err := os.Truncate(s.manifest.path, good); err != nil {
			return nil, fmt.Errorf("store: truncate torn manifest: %w", err)
		}
	}
	if err := s.writeMarker(); err != nil {
		return nil, err
	}
	if s.pool.shared {
		if err := s.commitPoolAttachment(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ReadOnly reports whether the store rejects writes: it was opened read-only.
func (s *Store) ReadOnly() bool { return s.readOnly }

// Layout describes a run directory's on-disk store layout, detected without
// replaying its manifest.
type Layout struct {
	// Pooled reports whether the run's chunks live in a shared chunk pool
	// (the manifest's pool-reference record names it).
	Pooled bool
	// Recorded reports whether the directory holds a committed run (a
	// manifest exists). False for fresh or unrelated directories, which a
	// plain open would happily initialize as an empty v2 store.
	Recorded bool
}

// String renders the layout for listings ("v2", "v2-pooled").
func (l Layout) String() string {
	if l.Pooled {
		return "v2-pooled"
	}
	return "v2"
}

// DetectLayout inspects a run directory's FORMAT marker (and, absent one,
// its manifest) and reports the layout a plain open would use, without
// opening the store. An older build's layout surfaces ErrLegacyLayout and
// an unknown marker ErrUnknownFormat; registration paths use this to reject
// bad directories before any query touches them.
func DetectLayout(dir string) (Layout, error) {
	if st, err := os.Stat(dir); err != nil {
		return Layout{}, fmt.Errorf("store: detect layout: %w", err)
	} else if !st.IsDir() {
		return Layout{}, fmt.Errorf("store: detect layout: %s is not a directory", dir)
	}
	return detectDir(dir)
}

// detectDir reports a directory's layout from its FORMAT marker and whether
// it holds a manifest — the shared core of DetectLayout and OpenWith. A
// recorded run without a marker (format v1) and a list of extra pack roots
// are ErrLegacyLayout.
func detectDir(dir string) (Layout, error) {
	recorded := false
	if _, merr := os.Stat(filepath.Join(dir, manifestFile)); merr == nil {
		recorded = true
	}
	raw, err := os.ReadFile(filepath.Join(dir, formatFile))
	var l Layout
	switch {
	case err == nil:
		if l, err = parseFormatMarker(dir, raw); err != nil {
			return Layout{}, err
		}
		l.Recorded = recorded
	case errors.Is(err, os.ErrNotExist):
		if recorded {
			return Layout{}, legacyLayout(dir, "a format-v1 run") // pre-FORMAT-marker run
		}
		l = Layout{} // fresh directory
	default:
		return Layout{}, fmt.Errorf("store: read format marker: %w", err)
	}
	if extra, err := shardRoots(dir); err != nil || len(extra) > 0 {
		if err == nil {
			err = legacyLayout(dir, "a store spread over extra pack roots")
		}
		return Layout{}, err
	}
	return l, nil
}

// parseFormatMarker classifies the FORMAT marker raw of dir: one of the two
// this build writes, whitespace aside; another in the grammar older builds
// wrote (ErrLegacyLayout); or an unknown one (ErrUnknownFormat), whose
// manifest this build would misparse as a torn tail and truncate away.
func parseFormatMarker(dir string, raw []byte) (Layout, error) {
	marker := strings.Join(strings.Fields(string(raw)), " ")
	switch marker + "\n" {
	case markerPrivate:
		return Layout{}, nil
	case markerPooled:
		return Layout{Pooled: true}, nil
	}
	if _, ok := parseLegacyMarker(raw); ok {
		return Layout{}, legacyLayout(dir, fmt.Sprintf("a store marked %q", marker))
	}
	return Layout{}, &UnknownFormatError{Dir: dir, Marker: strings.TrimSpace(string(raw))}
}

// The two FORMAT markers this build writes: a private pack, and a run of a
// shared pool, whose one pack the manifest's pool-reference record names.
const (
	markerPrivate = "2 dirs packlog\n"
	markerPooled  = "2 pool shards=1 dirs packlog\n"
)

// writeMarker settles the FORMAT marker of a writable store, once, at open:
// markerPrivate or markerPooled. Puts and GC never touch it, so a
// checkpoint's commit is its pack and manifest appends. It writes
// only when the marker is absent or different, and via write-then-rename:
// rewriting it in place on every open would leave a crash window in which a
// torn marker bricks an otherwise intact run behind the UnknownFormatError
// refusal.
func (s *Store) writeMarker() error {
	want := []byte(markerPrivate)
	if s.pool.shared {
		want = []byte(markerPooled)
	}
	if cur, err := os.ReadFile(s.formatPath()); err != nil || !bytes.Equal(cur, want) {
		if err := writeFileAtomic(s.formatPath(), want); err != nil {
			return fmt.Errorf("store: write format marker: %w", err)
		}
	}
	return nil
}

// openPrivatePool opens the run's pool of one, rooted at the run directory,
// its snapshot in the run's INDEX and its packs behind the backend the
// options name or in the run directory.
func (s *Store) openPrivatePool(o Options) error {
	if o.PinPool && o.Pool != "" {
		return fmt.Errorf("store: %s is not attached to a pool (pinned to %s)", s.dir, o.Pool)
	}
	backend := o.Backend
	if backend == nil {
		backend = DirBackendAt(s.dir)
	}
	s.pool = &ChunkPool{root: s.dir, backend: backend}
	return s.pool.open()
}

// resolveRunPath resolves a path a run directory records — its pool
// reference — against the directory (relative paths keep run families
// relocatable as a unit).
func resolveRunPath(dir, entry string) string {
	if !filepath.IsAbs(entry) {
		return filepath.Join(dir, entry)
	}
	return entry
}

// attachPool connects a pooled store to its shared chunk pool. A recorded
// run's pool is named by the pool-reference record that leads its manifest
// records recs, at fanout 1; a fresh directory (or one whose
// first record was torn) takes it from Options.Pool.
func (s *Store) attachPool(o Options, recs []manifestRecord) error {
	if o.Backend != nil {
		return fmt.Errorf("store: pooled stores place all packs in the pool (Backend not applicable)")
	}
	var root string
	switch {
	case len(recs) > 0:
		ref := recs[0]
		if ref.tag != recPool || ref.ref == "" || ref.fanout != 1 {
			return fmt.Errorf("%w: pooled run %s: manifest does not start with a pool-reference record at fanout 1", codec.ErrCorrupt, s.dir)
		}
		root = resolveRunPath(s.dir, ref.ref)
		s.poolRef = ref.ref
		if o.Pool != "" || o.PinPool {
			// Pinning compares resolved roots, so callers may pin the root a
			// registration-time PoolRef reported and a later manifest rewrite
			// fails the open instead of silently redirecting reads. Option
			// paths are cwd-relative, recorded references run-dir-relative.
			rec, err := canonicalPath(root)
			if err != nil {
				return err
			}
			var want string
			if o.Pool != "" {
				if want, err = canonicalPath(o.Pool); err != nil {
					return err
				}
			}
			if want != rec {
				return fmt.Errorf("store: cannot repoint %s to pool %q (recorded against %q)", s.dir, o.Pool, ref.ref)
			}
		}
	case o.Pool != "":
		root = o.Pool // cwd-relative; openSharedPool canonicalizes
	default:
		return fmt.Errorf("store: %s is marked pooled but its manifest carries no pool reference (pass Options.Pool)", s.dir)
	}
	p, err := openSharedPool(root, s.readOnly)
	if err != nil {
		return err
	}
	s.pool = p
	return nil
}

// commitPoolAttachment makes a writable pooled open durable: the manifest's
// leading pool-reference record plus the pool-side LEASE entry, the refcount
// that keeps this run's chunks live under GCPool.
func (s *Store) commitPoolAttachment() error {
	if s.poolRef == "" {
		// Prefer a run-dir-relative reference so a project tree (runs +
		// POOL) can relocate as a unit; fall back to the canonical absolute
		// root when no relative path exists.
		ref := s.pool.root
		if absDir, err := canonicalPath(s.dir); err == nil {
			if rel, rerr := filepath.Rel(absDir, s.pool.root); rerr == nil {
				ref = rel
			}
		}
		s.mu.Lock()
		err := s.manifest.append(frameTagged(recPool, encodePoolRef(ref, 1)))
		if err == nil {
			s.poolRef = ref
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	unlock, err := s.pool.lock()
	if err != nil {
		return err
	}
	defer unlock()
	return s.pool.writeLease(s.dir)
}

// PoolRef reports the shared chunk pool a run directory is attached to: the
// resolved pool root and ok=true for pooled runs, ok=false otherwise.
// Registration paths use it to validate and pin pool roots.
func PoolRef(dir string) (root string, ok bool, err error) {
	l, err := detectDir(dir)
	if err != nil {
		return "", false, err
	}
	if !l.Pooled {
		return "", false, nil
	}
	// The pool-reference record leads the manifest, so only it is decoded.
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return "", false, fmt.Errorf("store: read manifest: %w", err)
	}
	rec, _, derr := decodeManifestRecord(raw)
	if derr == nil && rec.tag != recPool {
		return "", false, fmt.Errorf("%w: pooled run %s: manifest does not start with a pool-reference record", codec.ErrCorrupt, dir)
	}
	if derr != nil || rec.ref == "" {
		return "", false, fmt.Errorf("store: %s is marked pooled but has no manifest", dir)
	}
	// Canonicalize so callers grouping runs by pool root compare equal
	// strings regardless of how each run recorded the reference.
	root, err = canonicalPath(resolveRunPath(dir, rec.ref))
	if err != nil {
		return "", false, err
	}
	return root, true, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Pooled reports whether the run's chunks live in a shared pool.
func (s *Store) Pooled() bool { return s.pool.shared }

// PoolRoot returns the resolved root of the attached shared pool ("" for
// private-pack stores).
func (s *Store) PoolRoot() string {
	if !s.pool.shared {
		return ""
	}
	return s.pool.root
}

// PoolStats returns the attached pool's pool-wide storage accounting as this
// store last read the pool's files (at open, and a writable one at each
// put); ok is false for stores without a shared pool, and leaseErr is why
// the pool's leases could not be counted (ChunkPool.Stats). (For per-run
// accounting see Dedup: only chunks this store instance published.)
func (s *Store) PoolStats() (st PoolStats, ok bool, leaseErr error) {
	if !s.pool.shared {
		return PoolStats{}, false, nil
	}
	st, leaseErr = s.pool.Stats()
	return st, true, leaseErr
}

func (s *Store) formatPath() string { return filepath.Join(s.dir, formatFile) }

// scanLog hands each record of the log at path (a MANIFEST or an INDEX),
// decoded by decode, to apply, up to a torn tail: the first record that
// does not decode, at byte good when torn. A missing log is empty; an error
// of apply ends the scan.
func scanLog(path string, decode func([]byte) (manifestRecord, int, error), apply func(manifestRecord) error) (good int64, torn bool, err error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("store: read %s: %w", filepath.Base(path), err)
	}
	off := 0
	for off < len(raw) {
		rec, n, err := decode(raw[off:])
		if err != nil {
			break
		}
		if err := apply(rec); err != nil {
			return int64(off), false, err
		}
		off += n
	}
	return int64(off), off < len(raw), nil
}

// dirless reports whether rec is a meta record without a directory: an
// older build's, whose checkpoint is in a segment file (legacy.go).
func dirless(rec manifestRecord) bool {
	return rec.tag == recMeta && rec.e.dir == nil && rec.e.dirErr == nil
}

// applyRecord replays one decoded manifest record into the in-memory state:
// a meta record. Chunk records are the pool's (ChunkPool.open), and the
// pool-reference record attachPool's. It runs single-threaded at open,
// before the store is shared.
func (s *Store) applyRecord(rec manifestRecord) {
	if rec.tag != recMeta {
		return
	}
	if rec.e.Seq >= s.nextSeq {
		s.nextSeq = rec.e.Seq + 1
	}
	s.commitLocked(rec.e)
}

// commitLocked installs an entry into the index and accumulates dedup stats.
func (s *Store) commitLocked(e *entry) {
	s.index[e.Key] = e
	s.metas = append(s.metas, e)
	s.dedup.LogicalBytes += e.Size
}

// manifestRecord is one decoded manifest (or pool INDEX) record; tag says
// which of the other fields hold it.
type manifestRecord struct {
	tag    byte
	e      *entry       // recMeta
	hash   ckptfmt.Hash // recChunk
	loc    chunkLoc
	ref    string // recPool
	fanout int
	shard  shardRecord // recShard
}

// decodeManifestRecord unframes and decodes the tagged MANIFEST or INDEX
// record at the head of b and reports the bytes it took. Any error is a torn
// tail, and whatever decodes re-encodes to exactly those bytes. A meta
// record's directory is no part of that verdict: one that does not decode
// rides along as the entry's dirErr, so that a CRC-valid record is never
// taken for a tail.
func decodeManifestRecord(b []byte) (rec manifestRecord, n int, err error) {
	payload, n, err := codec.Unframe(b)
	if err != nil {
		return rec, 0, err
	}
	if len(payload) == 0 {
		return rec, 0, fmt.Errorf("%w: empty manifest record", codec.ErrCorrupt)
	}
	rec.tag = payload[0]
	body := payload[1:]
	switch rec.tag {
	case recMeta:
		rec.e, err = decodeMeta(body)
	case recChunk:
		rec.hash, rec.loc, err = decodeChunkRecord(body)
	case recPool:
		rec.ref, rec.fanout, err = decodePoolRef(body)
	case recShard:
		rec.shard, err = decodeShardRecord(body)
	default:
		err = fmt.Errorf("%w: manifest record tag 0x%02x", codec.ErrCorrupt, rec.tag)
	}
	return rec, n, err
}

func encodeMeta(e *entry) []byte {
	w := codec.NewWriter()
	w.String(e.Key.LoopID)
	w.Int(e.Key.Exec)
	w.Int(e.Seq)
	w.Int64(e.Size)
	w.Int64(e.gzSize) // a slot older builds filled; 0 in new records, ignored on read
	w.Int64(e.MaterNs)
	w.Int64(e.SnapNs)
	w.Int64(e.ComputNs)
	w.Int(e.Format)
	w.Int64(e.StoredBytes)
	// The directory closes the record; records without one are an older
	// build's (legacy.go).
	if e.dir != nil {
		w.RawAppend(ckptfmt.EncodeDirectory(e.dir))
	}
	return w.Bytes()
}

// decodeMeta decodes a meta record body: its fields, then whatever follows
// them is the checkpoint's directory, encoded exactly as
// ckptfmt.EncodeDirectory would. An older build's record carries none
// (legacy.go): its dir and dirErr are both nil.
func decodeMeta(b []byte) (*entry, error) {
	r := codec.NewReader(b)
	e, err := decodeMetaHead(r)
	if err == nil {
		err = e.decodeFormat(r)
	}
	if err != nil {
		return nil, err
	}
	if rest := b[len(b)-r.Remaining():]; len(rest) > 0 {
		d, err := ckptfmt.DecodeDirectory(rest)
		if err == nil && !bytes.Equal(ckptfmt.EncodeDirectory(d), rest) {
			err = fmt.Errorf("%w: bytes past its end", codec.ErrCorrupt)
		}
		if err != nil {
			e.dirErr = fmt.Errorf("store: %s directory: %w", e.Key, err)
		} else {
			e.dir = d
		}
	}
	return e, nil
}

// decodeMetaHead decodes the fields a meta record starts with: its key,
// sequence number, size and timings.
func decodeMetaHead(r *codec.Reader) (*entry, error) {
	e := &entry{}
	var err error
	if e.Key.LoopID, err = r.String(); err == nil {
		e.Key.Exec, err = r.Int() // Exec and Seq are ints: a value past a 32-bit build's int fails there
	}
	if err == nil {
		e.Seq, err = r.Int()
	}
	if err == nil {
		err = readInts(r, &e.Size, &e.gzSize, &e.MaterNs, &e.SnapNs, &e.ComputNs)
	}
	return e, err
}

// decodeFormat decodes the format fields that follow a meta record's head.
func (e *entry) decodeFormat(r *codec.Reader) error {
	var err error
	if e.Format, err = r.Int(); err == nil {
		err = readInts(r, &e.StoredBytes)
	}
	return err
}

// readInts reads one varint into each of fs, as an int64: sizes and
// nanoseconds, which a 32-bit build's int cannot hold.
func readInts(r *codec.Reader, fs ...*int64) error {
	for _, f := range fs {
		v, err := r.Int64()
		if err != nil {
			return err
		}
		*f = v
	}
	return nil
}

// encodePoolRef encodes a pool-reference record: the pool root (relative
// references resolve against the run directory) and the pool's fanout, 1 in
// every pool this build writes (older builds' pools had 4 or 16 packs).
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
	if r.Remaining() > 0 {
		return "", 0, fmt.Errorf("%w: %d bytes past a pool record", codec.ErrCorrupt, r.Remaining())
	}
	return ref, fanout, nil
}

// frameTagged wraps a record body with its type tag and CRC frame — the one
// encoding shared by v2 manifest records and pool INDEX records.
func frameTagged(tag byte, body []byte) []byte {
	payload := make([]byte, 0, len(body)+1)
	payload = append(payload, tag)
	payload = append(payload, body...)
	return codec.Frame(payload)
}

// PutSections durably stores a checkpoint as named sections. Sections are
// chunked and hashed in parallel, frames for previously unseen chunks are
// appended to the pack in one append, and one manifest append commits the
// checkpoint. It is safe to call from
// several goroutines, stores and processes at once: the pool's commit lock
// orders their commits. The sections' Data is only read, and only until
// PutSections returns — nothing of it stays referenced from the store, so
// the caller may overwrite the buffers with its next checkpoint. Every chunk is hashed, every time: the
// store remembers nothing about a []Section between puts.
//
// snapNs and serNs are the observed snapshot and serialization times for
// this checkpoint; the put measures its own write time and records
// MaterNs = snapNs + serNs + writeNs, the full materialization cost used by
// adaptive checkpointing (paper Table 2's M_i). computNs is the loop
// execution time being memoized (C_i).
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
	return s.putV2(key, secs, known, snapNs, serNs, computNs)
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
// the one its raw frame carries; and copied once into the staging span of the
// pack append (appendFrames), together with the CRC pass over that copy.
// putV2 never decides a hash is reusable: it takes offers and hands every
// chunk's hash back, and a []Section put twice is hashed in full twice.
// Chunks and frames alias secs[i].Data throughout; every alias is dropped by
// the time putV2 returns.
func (s *Store) putV2(key Key, secs []Section, known []KnownChunks, snapNs, serNs, computNs int64) (*Meta, error) {
	w0 := time.Now()

	// Chunk every section and hash, in parallel, every chunk that did not come
	// with its hash; the directory is fully determined by content before any
	// byte hits disk.
	dir := ckptfmt.Directory{Sections: make([]ckptfmt.SectionRef, len(secs))}
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

	// The commit lock, from the dedup probe through the manifest append: no
	// GC pass marks while a chunk this put deduplicated against is unpinned.
	p := s.pool
	unlock, err := p.lock()
	if err != nil {
		return nil, err
	}
	defer unlock()

	// Select chunks the pool has not stored yet (deduplicating within this
	// checkpoint too).
	newIdx := p.filterFresh(hashes)
	obs.C(obs.MStoreChunkDedupHits).Add(int64(len(flat) - len(newIdx)))
	// Raw frames for the fresh chunks only, each carrying the hash settled
	// above: a chunk's bytes are hashed at most once per put, whether it
	// dedups or not.
	frames := make([]ckptfmt.Frame, len(newIdx))
	for i, j := range newIdx {
		frames[i] = ckptfmt.BuildHashed(flat[j], hashes[j])
	}

	// Commit in the one order: the fresh frames go to the pack, which
	// publishes them to the dedup index, and only then does the meta record
	// carrying the directory go to the manifest — it never references bytes
	// that aren't on disk.
	a0 := time.Now()
	recs, err := p.appendFrames(frames)
	if err != nil {
		return nil, err
	}
	obs.H(obs.MStoreShardAppendSeconds).ObserveNs(time.Since(a0).Nanoseconds())
	obs.C(obs.MStoreChunksWritten).Add(int64(len(frames)))

	s.mu.Lock()
	defer s.mu.Unlock()
	var stored int64
	for _, cr := range recs {
		stored += int64(cr.loc.EncLen)
		s.dedup.ChunksStored++
		s.dedup.StoredRawBytes += int64(cr.loc.RawLen)
		s.dedup.StoredEncBytes += int64(cr.loc.EncLen)
	}
	s.dedup.ChunkRefs += int64(len(flat))
	obs.C(obs.MStoreChunkBytesWritten).Add(stored)
	writeNs := time.Since(w0).Nanoseconds()
	e := &entry{Meta: Meta{
		Key: key, Seq: s.nextSeq, Size: logical,
		MaterNs: snapNs + serNs + writeNs, SnapNs: snapNs, ComputNs: computNs,
		Format: FormatV2, StoredBytes: stored,
	}, dir: &dir}
	if err := s.manifest.append(frameTagged(recMeta, encodeMeta(e))); err != nil {
		return nil, err
	}
	s.nextSeq++
	s.commitLocked(e)
	m := e.Meta
	return &m, nil
}

// writeFileAtomic commits data to path via write-then-rename, so readers
// (and existence-based skip checks) never observe a torn file.
func writeFileAtomic(path string, data []byte) error {
	return writeFileVia(path+".tmp", path, data)
}

// writeFileVia is writeFileAtomic with the scratch copy named tmp.
func writeFileVia(tmp, path string, data []byte) error {
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort: the write's or the rename's error is the one to report
	}
	return err
}

// recordLog is an append-only log of CRC-framed records: a run's MANIFEST.
// An append lands whole or not at all. A write that fails part-way is cut
// back to the log's length before it, since a torn record would end the log
// at replay and take every later commit with it; if even the cut fails, the
// log is latched broken and refuses every later append. Callers serialize
// appends.
type recordLog struct {
	path   string
	broken error
}

// writeLog writes a record into an open log file. Tests substitute one that
// fails part-way through.
var writeLog = (*os.File).Write

// append appends rec to the log.
func (l *recordLog) append(rec []byte) error {
	name := filepath.Base(l.path)
	if l.broken != nil {
		return fmt.Errorf("store: %s unusable after a failed append: %w", name, l.broken)
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", name, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err == nil {
		if _, err = writeLog(f, rec); err != nil && f.Truncate(st.Size()) != nil {
			l.broken = err
		}
	}
	if err != nil {
		return fmt.Errorf("store: append %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", name, err)
	}
	return nil
}

// GetSectionsObserved is Resolve + ReadInto(nil, have, fs, nil): every
// section of key's checkpoint, in fresh buffers. ok is always true. It stays
// only for the benchmark module's store row (cmd/florperf), and goes once
// that row reads through Resolve.
func (s *Store) GetSectionsObserved(key Key, have func(ckptfmt.Hash) bool, fs *FetchStats) (secs []Section, ok bool, err error) {
	c, err := s.Resolve(key)
	if err == nil {
		secs, err = c.ReadInto(nil, have, fs, nil)
	}
	return secs, err == nil, err
}

// Checkpoint is a committed checkpoint resolved for reading: its metadata
// and its directory. Resolving costs an index lookup; ReadInto then costs
// what the caller asks of it, as often as it asks.
type Checkpoint struct {
	s *Store
	e *entry
}

// Carries reports whether the checkpoint has a section of the given name.
func (c *Checkpoint) Carries(name string) bool {
	return slices.ContainsFunc(c.e.dir.Sections, func(s ckptfmt.SectionRef) bool { return s.Name == name })
}

// Section returns the named section's content identity and logical length,
// computed from the directory alone as ReadInto does before it reads
// anything: no pack byte is read, and nothing is fetched or counted. ok is
// false when the checkpoint has no such section.
func (c *Checkpoint) Section(name string) (s Section, ok bool) {
	i := slices.IndexFunc(c.e.dir.Sections, func(s ckptfmt.SectionRef) bool { return s.Name == name })
	if i < 0 {
		return Section{}, false
	}
	ds := &c.e.dir.Sections[i]
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

// Resolve looks key up in the index: a map lookup under the store lock, with
// no file I/O, since every directory was decoded when its record was
// replayed or written. A checkpoint whose directory could not be read
// fails here, with the error that read met.
func (s *Store) Resolve(key Key) (*Checkpoint, error) {
	s.mu.Lock()
	e, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if e.dirErr != nil {
		return nil, e.dirErr
	}
	return &Checkpoint{s: s, e: e}, nil
}

// ReadInto materializes sections of a checkpoint: chunk frames are fetched
// and decoded by the pool's one read pipeline (see fetch.go) — runs of
// neighbouring frames read concurrently, each run decoded the moment its
// bytes land. The result has one entry per section, in the
// checkpoint's order.
//
// Two callbacks, both optional, keep sections on disk. A section whose name
// want declines is not the caller's business this time: nothing about it is
// resolved, fetched or counted, and its entry is bare-named. A wanted
// section whose content identity have claims is a payload-cache hit: it
// comes back with nil Data (Hash and RawLen set), its chunks are never read
// — the disk, CRC, and reassembly cost of repeated content (frozen layers
// restored epoch after epoch) drops to the index lookup — and the
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
// Both callbacks are invoked without any store lock held, and the pool's
// index lock is taken only briefly to resolve chunk locations: concurrent
// readers from many server goroutines must not serialize on each other's
// cache probes.
func (c *Checkpoint) ReadInto(want func(name string) bool, have func(ckptfmt.Hash) bool, fs *FetchStats, into func(name string, rawLen int) [][]byte) ([]Section, error) {
	dir, p := c.e.dir, c.s.pool
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
	// Phase 2: lay each section's destination out over its chunks.
	nchunks := 0
	for _, i := range load {
		nchunks += len(dir.Sections[i].Chunks)
	}
	jobs := make([]chunkJob, 0, nchunks)
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
			jobs = append(jobs, chunkJob{ref: ref, dst: dsts[k]})
		}
	}
	// Phase 3: resolve every chunk's location in the pool's dedup index,
	// under one hold of its lock, and fill every destination with its
	// chunk's bytes.
	if err := p.resolve(jobs, c.e.Key); err != nil {
		return nil, err
	}
	if err := p.fetch(jobs, fs); err != nil {
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
	e, ok := s.index[key]
	if !ok {
		return nil, false
	}
	cp := e.Meta
	return &cp, true
}

// Metas returns copies of all committed checkpoints' metadata in commit
// order.
func (s *Store) Metas() []*Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Meta, len(s.metas))
	for i, e := range s.metas {
		cp := e.Meta
		out[i] = &cp
	}
	return out
}

// Dedup returns a copy of the run's chunk-dedup accounting.
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

// GC reclaims space from superseded materializations: the manifest is
// rewritten from the live index, without the meta records of checkpoints no
// longer the latest for their key, and — private stores — chunks referenced
// only by those superseded checkpoints are compacted out of the packs
// (GCWith for the knobs and full accounting). It returns the number of
// superseded checkpoints dropped.
//
// Compaction never rewrites a pack in place (see GC and the grace period in
// pool.go): a reader that resolved locations before it keeps reading valid
// bytes for GCOptions.PackRetention.
//
// Pooled runs only rewrite their manifest here; their chunks are shared
// with sibling runs and are reclaimed by GCPool, which consults every lease.
func (s *Store) GC() (int, error) {
	res, err := s.GCWith(GCOptions{})
	return res.Superseded, err
}

// GCWith is GC with explicit options and full reclamation accounting. It
// rewrites the manifest, then collects a private store's pool of one exactly
// as GCPool collects a shared pool: the mark reads the rewritten manifest.
func (s *Store) GCWith(o GCOptions) (GCResult, error) {
	if s.readOnly {
		return GCResult{}, ErrReadOnly
	}
	// Under the commit lock, the index the manifest rewrite drops records
	// from, and the manifest the mark reads, hold no checkpoint mid-flight.
	p := s.pool
	unlock, err := p.lock()
	if err != nil {
		return GCResult{}, err
	}
	defer unlock()
	live, err := s.liveEntries()
	if err != nil {
		return GCResult{}, err
	}
	superseded, err := s.rewriteManifest(live)
	if err != nil || p.shared {
		return GCResult{Superseded: superseded}, err
	}
	res, err := p.gc(o)
	res.Superseded = superseded
	if err != nil {
		return res, err
	}
	s.mu.Lock()
	s.adoptPoolStats()
	s.mu.Unlock()
	recordGCMetrics(res)
	return res, nil
}

// WriteIndex replaces the pool's INDEX with a snapshot of every chunk its
// packs hold, under the commit lock, so that the next open reads the
// snapshot instead of scanning the packs. A recording calls it once, after
// its last put (core.Record, core.Migrate); a put never does.
func (s *Store) WriteIndex() error {
	if s.readOnly {
		return ErrReadOnly
	}
	unlock, err := s.pool.lock()
	if err != nil {
		return err
	}
	defer unlock()
	_, err = s.pool.persistIndex(nil)
	return err
}

// adoptPoolStats takes a pool of one's stored-chunk accounting over as the
// run's: every chunk it holds is the run's. A shared pool's chunks are no
// one run's, so a pooled run counts only the chunks it publishes (putV2).
// The caller holds s.mu or has the store to itself.
func (s *Store) adoptPoolStats() {
	if s.pool.shared {
		return
	}
	st, _ := s.pool.Stats() // a pool of one has no leases
	s.dedup.ChunksStored, s.dedup.StoredRawBytes, s.dedup.StoredEncBytes = st.Chunks, st.StoredRawBytes, st.StoredEncBytes
}

// recordGCMetrics folds one GC pass's accounting into the registry.
func recordGCMetrics(res GCResult) {
	obs.C(obs.MStoreGCPasses).Inc()
	obs.C(obs.MStoreGCDeadChunks).Add(int64(res.DeadChunks))
	obs.C(obs.MStoreGCRewrittenShards).Add(int64(res.CompactedShards))
	obs.C(obs.MStoreGCTombstonedPacks).Add(int64(res.RetiredPacks))
	obs.C(obs.MStoreGCDeletedPacks).Add(int64(res.DeletedPacks))
}

// liveEntries returns each key's latest checkpoint, in commit order. It
// fails closed on one whose directory could not be read: GC's mark would
// count no chunk references for it, and a manifest rewrite would have no
// directory to carry.
func (s *Store) liveEntries() ([]*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var live []*entry
	for _, e := range s.metas {
		if s.index[e.Key] != e {
			continue
		}
		if e.dirErr != nil {
			return nil, fmt.Errorf("store: gc: checkpoint %s: %w", e.Key, e.dirErr)
		}
		live = append(live, e)
	}
	return live, nil
}

// rewriteManifest is GC's manifest commit. The manifest is atomically
// rewritten from the live index: the pool-reference record first on pooled
// runs, then the live meta records, each with its directory. It returns how
// many superseded checkpoints the rewrite dropped. The caller holds the
// commit lock.
func (s *Store) rewriteManifest(live []*entry) (int, error) {
	var buf []byte
	if s.pool.shared {
		buf = frameTagged(recPool, encodePoolRef(s.poolRef, 1))
	}
	for _, e := range live {
		buf = append(buf, frameTagged(recMeta, encodeMeta(e))...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeFileAtomic(s.manifest.path, buf); err != nil {
		return 0, fmt.Errorf("store: rewrite manifest: %w", err)
	}
	dropped := len(s.metas) - len(live)
	s.metas = live
	return dropped, nil
}
