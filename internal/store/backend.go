package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Backend abstracts where a store's chunk-pack bytes live. The checkpoint
// store addresses every pack through this interface, so packs can live in
// local directories or an S3-style object store (remote.ObjectBackend)
// without the read path knowing. Only local backends are written: a run
// reaches an object store whole, through remote.UploadRun, and a remote
// backend serves read-only opens — its Append, Truncate, Create and Remove
// fail with ErrReadOnly.
//
// The contract is shaped by what an append-only pack needs and by what
// ranged remote stores can offer:
//
//   - Objects are named by flat string keys ("CHUNKS", "CHUNKS.g2"); the
//     backend owns the mapping from name to location.
//   - Append is the only mutation the hot write path uses. The store
//     serializes appends (the pool's commit lock), so backends
//     need not make concurrent appends to the same object atomic.
//   - Open returns a ranged reader (io.ReaderAt): replay reads frames by
//     (offset, length) from the run's manifest, which maps directly onto a
//     ranged GET against a remote object.
//   - Create streams a wholesale object replacement (commit on Close, Abort
//     to discard); GC compaction writes each new pack generation through it.
//
// All methods must be safe for concurrent use on distinct names.
type Backend interface {
	// Size returns the object's current length in bytes, 0 (not an error)
	// when the object does not exist. A put appends at the offset it
	// returns, so a written backend's Size must count every byte appended.
	Size(name string) (int64, error)
	// Append appends p to the named object, creating it if needed.
	Append(name string, p []byte) error
	// Truncate cuts the named object to size bytes: a writer cuts a torn
	// pack tail, bytes that form no whole frame, before it appends.
	Truncate(name string, size int64) error
	// Open returns a ranged reader over the named object. It fails if the
	// object does not exist.
	Open(name string) (BackendReader, error)
	// Create returns a streaming writer that atomically replaces the named
	// object on Close: compaction writes the pack's survivors into the next
	// pack generation through it, chunk by chunk. Abort discards the
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

// ExtentReader is an optional BackendReader capability of readers whose
// bytes already sit in memory once fetched (remote objects): ReadExtent
// returns exactly bytes [off, off+n) as a slice the reader lends — resident
// in a cache tier and possibly shared with other readers, so the caller only
// reads it — a release the caller calls once it no longer reads the slice
// (the lent span goes back to ckptfmt.Shared when its last holder lets go),
// and the fetch tier that served them. On error there is nothing to release.
// The restore path decodes straight out of the slice, copying every payload
// into its destination; readers without the capability are read with ReadAt
// into an arena span and count as ranged.
type ExtentReader interface {
	ReadExtent(off, n int64) (data []byte, release func(), tier ExtentTier, err error)
}

// ExtentTier is where an ExtentReader found an extent.
type ExtentTier int

const (
	ExtentRemote       ExtentTier = tierRemote       // this read's own ranged GET
	ExtentCacheTier    ExtentTier = tierCacheTier    // resident in a local cache tier
	ExtentSingleflight ExtentTier = tierSingleflight // another reader's in-flight GET of the same extent
)

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

// DirBackend stores objects as plain files in one directory: a private
// store's run directory, or a shared pool's root.
type DirBackend struct {
	root string
}

// DirBackendAt returns the backend a store opened at dir keeps its packs in:
// plain files in dir, which must exist.
func DirBackendAt(dir string) *DirBackend { return &DirBackend{root: dir} }

// path maps an object name to its file.
func (b *DirBackend) path(name string) string { return filepath.Join(b.root, name) }

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

// Truncate implements Backend.
func (b *DirBackend) Truncate(name string, size int64) error { return os.Truncate(b.path(name), size) }

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
