package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Backend abstracts where a store's chunk-pack bytes live. The sharded
// checkpoint store addresses every pack through this interface, so shard
// packs can be spread across directories (and, later, devices or S3-style
// object stores) without the read or write paths knowing.
//
// The contract is shaped by what an append-only pack needs and by what
// ranged remote stores can offer:
//
//   - Objects are named by flat string keys ("CHUNKS", "CHUNKS-03",
//     "CHUNKS-03.gz"); the backend owns the mapping from name to location.
//   - Append is the only mutation the hot write path uses. The store
//     serializes appends per object (per-shard append locks), so backends
//     need not make concurrent appends to the same object atomic — but
//     appends to different objects run concurrently.
//   - Open returns a ranged reader (io.ReaderAt): replay reads frames by
//     (offset, length) from the run's manifest, which maps directly onto a
//     ranged GET against a remote object.
//   - Create streams a wholesale object replacement (commit on Close, Abort
//     to discard); only cold-path artifacts (spooled .gz objects) use it.
//
// All methods must be safe for concurrent use on distinct names.
type Backend interface {
	// Size returns the object's current length in bytes, 0 (not an error)
	// when the object does not exist.
	Size(name string) (int64, error)
	// Append appends p to the named object, creating it if needed.
	Append(name string, p []byte) error
	// Open returns a ranged reader over the named object. It fails if the
	// object does not exist.
	Open(name string) (BackendReader, error)
	// Create returns a streaming writer that atomically replaces the named
	// object on Close: spooling compresses whole packs through it without
	// buffering the compressed object in memory. Abort discards the
	// in-progress write, leaving any existing object untouched.
	Create(name string) (BackendWriter, error)
	// Remove deletes the named object; removing an absent object is not an
	// error. Only GC's grace-period pack retirement uses it — the hot paths
	// never delete.
	Remove(name string) error
}

// BackendReader is a ranged read handle on one backend object.
type BackendReader interface {
	io.ReaderAt
	io.Closer
}

// TieredBackend is an optional Backend capability implemented by backends
// whose reads travel a network (S3-style object stores), possibly through a
// local read-through cache tier. It is what makes speculative prefetch worth
// starting (Store.NewPrefetcher); the restore path itself never consults it
// — how a run is read follows from the opened reader's own capabilities.
type TieredBackend interface {
	// RemoteReads reports whether reads are served by a remote object store.
	RemoteReads() bool
}

// TieredReader is an optional BackendReader capability: ReadAtTier is ReadAt
// plus per-read tier attribution, reporting how many of the returned bytes
// were served by a local cache tier, fetched from the remote store by this
// read, or shared from another reader's concurrent in-flight fetch of the
// same blocks (the singleflight tier). Reads through readers without the
// capability count as ranged.
type TieredReader interface {
	ReadAtTier(p []byte, off int64) (n int, cached, fetched, shared int64, err error)
}

// WarmReader is an optional BackendReader capability for speculative
// readahead: WarmAt makes the blocks covering [off, off+n) resident in the
// reader's cache tier without materializing them into a caller buffer — the
// whole point of warming is that nobody reads the bytes yet, so the copy a
// ReadAt would pay is pure waste. It returns how many bytes it fetched
// remotely (already-resident blocks cost nothing). The prefetcher falls back
// to plain ReadAt into a scratch buffer when the capability is absent.
type WarmReader interface {
	WarmAt(off, n int64) (fetched int64, err error)
}

// BackendWriter is a streaming write handle on one backend object: Close
// commits the object atomically; Abort abandons the write, leaving any
// previously committed object intact. A failed write must be Aborted, not
// Closed — Close after a partial write would commit a truncated object
// over a valid one.
type BackendWriter interface {
	io.Writer
	io.Closer
	Abort()
}

// DirBackend stores objects as plain files spread over one or more root
// directories. With a single root it reproduces the classic run-directory
// layout; with several, shard packs fan out across the roots (one device or
// mount per root), so concurrent shard appends and reads hit independent
// directories.
type DirBackend struct {
	roots []string
}

// NewDirBackend returns a backend over the given root directories, creating
// any that do not exist. At least one root is required.
func NewDirBackend(roots ...string) (*DirBackend, error) {
	if len(roots) == 0 {
		return nil, errors.New("store: dir backend needs at least one root")
	}
	for _, r := range roots {
		if err := os.MkdirAll(r, 0o755); err != nil {
			return nil, fmt.Errorf("store: dir backend root: %w", err)
		}
	}
	return &DirBackend{roots: append([]string(nil), roots...)}, nil
}

// Roots returns the backend's root directories.
func (b *DirBackend) Roots() []string { return append([]string(nil), b.roots...) }

// path maps an object name to its file. Placement hashes the name with any
// ".gz" suffix trimmed, so a spooled object always lands next to the pack it
// was spooled from.
func (b *DirBackend) path(name string) string {
	if len(b.roots) == 1 {
		return filepath.Join(b.roots[0], name)
	}
	h := fnv.New32a()
	h.Write([]byte(strings.TrimSuffix(name, ".gz")))
	return filepath.Join(b.roots[int(h.Sum32())%len(b.roots)], name)
}

// Size implements Backend.
func (b *DirBackend) Size(name string) (int64, error) {
	st, err := os.Stat(b.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: stat %s: %w", name, err)
	}
	return st.Size(), nil
}

// Append implements Backend.
func (b *DirBackend) Append(name string, p []byte) error {
	f, err := os.OpenFile(b.path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", name, err)
	}
	if _, err := f.Write(p); err != nil {
		f.Close()
		return fmt.Errorf("store: append %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", name, err)
	}
	return nil
}

// Open implements Backend.
func (b *DirBackend) Open(name string) (BackendReader, error) {
	f, err := os.Open(b.path(name))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", name, err)
	}
	return f, nil
}

// Create implements Backend: a streaming writer into a temp sibling,
// renamed over the object on Close, so readers never observe a half-written
// mix of old and new content.
func (b *DirBackend) Create(name string) (BackendWriter, error) {
	path := b.path(name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("store: create %s: %w", name, err)
	}
	return &renameOnClose{f: f, tmp: tmp, path: path, name: name}, nil
}

// Remove implements Backend.
func (b *DirBackend) Remove(name string) error {
	err := os.Remove(b.path(name))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: remove %s: %w", name, err)
	}
	return nil
}

type renameOnClose struct {
	f    *os.File
	tmp  string
	path string
	name string
}

func (w *renameOnClose) Write(p []byte) (int, error) { return w.f.Write(p) }

func (w *renameOnClose) Close() error {
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("store: close %s: %w", w.name, err)
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("store: commit %s: %w", w.name, err)
	}
	return nil
}

func (w *renameOnClose) Abort() {
	w.f.Close()
	os.Remove(w.tmp)
}
