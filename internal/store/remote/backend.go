package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/cachetier"
)

// ObjectBackend adapts an ObjectStore to store.Backend, so a run's chunk
// packs can live in a shared remote pool while the control plane (FORMAT,
// MANIFEST, segments) stays in a local run directory. Its readers expose no
// file descriptor, so the restore path reads each coalesced run as one
// ranged GET, several in flight, and attributes the bytes to the "remote",
// "cache-tier" and "singleflight" fetch tiers (store.TieredReader).
//
// Reads go through an optional cachetier.Cache; pack appends and wholesale
// replacements invalidate the touched object's cached blocks (correctness
// never depends on that — cache keys are versioned by object length — it
// just frees dead space promptly).
//
// Append is a read-modify-write full PUT: correct under the store's
// per-shard append serialization, but O(object) per call. Remote-backed
// stores are meant to be written locally and uploaded by spool pass
// (UploadRun), then served read-only; Append exists so the Backend contract
// holds, not as a hot write path.
type ObjectBackend struct {
	store  ObjectStore
	prefix string
	cache  *cachetier.Cache
}

// Compile-time checks: ObjectBackend is a store.Backend whose readers
// attribute their bytes to fetch tiers.
var (
	_ store.Backend      = (*ObjectBackend)(nil)
	_ store.TieredReader = (*objReader)(nil)
)

// NewObjectBackend returns a backend whose objects live under prefix in st
// (pack object name "CHUNKS-03" maps to key "<prefix>/CHUNKS-03"). cache may
// be nil: reads then always go remote.
func NewObjectBackend(st ObjectStore, prefix string, cache *cachetier.Cache) *ObjectBackend {
	return &ObjectBackend{store: st, prefix: prefix, cache: cache}
}

// Cache returns the backend's cache tier (nil when uncached).
func (b *ObjectBackend) Cache() *cachetier.Cache { return b.cache }

func (b *ObjectBackend) key(name string) string {
	if b.prefix == "" {
		return name
	}
	return b.prefix + "/" + name
}

// Size implements store.Backend (absent objects are 0, not an error).
func (b *ObjectBackend) Size(name string) (int64, error) {
	n, err := b.store.Size(b.key(name))
	if errors.Is(err, ErrNotFound) {
		return 0, nil
	}
	return n, err
}

// Append implements store.Backend as a read-modify-write whole-object PUT.
// The store serializes appends per object, so the read and the put cannot
// interleave with another append to the same object.
func (b *ObjectBackend) Append(name string, p []byte) error {
	key := b.key(name)
	cur, err := b.store.Get(key)
	if errors.Is(err, ErrNotFound) {
		cur = nil
	} else if err != nil {
		return fmt.Errorf("remote: append %s: %w", name, err)
	}
	if err := b.store.Put(key, append(cur, p...)); err != nil {
		return fmt.Errorf("remote: append %s: %w", name, err)
	}
	if b.cache != nil {
		b.cache.Invalidate(key)
	}
	return nil
}

// Open implements store.Backend. The returned reader snapshots the object's
// length at open (matching how a local file handle keeps serving the bytes
// it had), and implements store.TieredReader for cached/remote attribution.
func (b *ObjectBackend) Open(name string) (store.BackendReader, error) {
	key := b.key(name)
	size, err := b.store.Size(key)
	if err != nil {
		// ErrNotFound wraps os.ErrNotExist, which the store's stale-pack
		// detection relies on; keep the chain intact.
		return nil, fmt.Errorf("remote: open %s: %w", name, err)
	}
	return &objReader{b: b, key: key, size: size}, nil
}

// objReader is a ranged read handle on one remote object at a fixed length.
type objReader struct {
	b    *ObjectBackend
	key  string
	size int64
}

// ReadAt implements io.ReaderAt.
func (r *objReader) ReadAt(p []byte, off int64) (int, error) {
	n, _, _, _, err := r.ReadAtTier(p, off)
	return n, err
}

// ReadAtTier implements store.TieredReader: ReadAt plus how many of the
// returned bytes were cache-tier hits, remote fetches this read initiated,
// or bytes shared from another reader's in-flight fetch (singleflight).
func (r *objReader) ReadAtTier(p []byte, off int64) (n int, cached, fetched, shared int64, err error) {
	if off < 0 || off >= r.size {
		if off == r.size {
			return 0, 0, 0, 0, io.EOF
		}
		return 0, 0, 0, 0, fmt.Errorf("remote: read %s at %d: out of range [0,%d)", r.key, off, r.size)
	}
	want := p
	var short bool
	if off+int64(len(p)) > r.size {
		want = p[:r.size-off]
		short = true
	}
	if r.b.cache != nil {
		cached, fetched, shared, err = r.b.cache.ReadThrough(r.key, r.size, off, want, func(bOff, bLen int64) ([]byte, error) {
			return r.b.store.GetRange(r.key, bOff, bLen)
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
	} else {
		data, gerr := r.b.store.GetRange(r.key, off, int64(len(want)))
		if gerr != nil {
			return 0, 0, 0, 0, gerr
		}
		copy(want, data)
		fetched = int64(len(want))
	}
	if short {
		return len(want), cached, fetched, shared, io.EOF
	}
	return len(want), cached, fetched, shared, nil
}

// Close implements io.Closer.
func (r *objReader) Close() error { return nil }

// Create implements store.Backend: writes buffer locally and commit as one
// atomic PUT on Close — the remote either has the old object or the new one.
func (b *ObjectBackend) Create(name string) (store.BackendWriter, error) {
	return &putOnClose{b: b, key: b.key(name), name: name}, nil
}

type putOnClose struct {
	b       *ObjectBackend
	key     string
	name    string
	buf     bytes.Buffer
	aborted bool
}

func (w *putOnClose) Write(p []byte) (int, error) {
	if w.aborted {
		return 0, fmt.Errorf("remote: write %s: writer aborted", w.name)
	}
	return w.buf.Write(p)
}

func (w *putOnClose) Close() error {
	if w.aborted {
		return nil
	}
	if err := w.b.store.Put(w.key, w.buf.Bytes()); err != nil {
		return fmt.Errorf("remote: commit %s: %w", w.name, err)
	}
	if w.b.cache != nil {
		w.b.cache.Invalidate(w.key)
	}
	return nil
}

func (w *putOnClose) Abort() {
	w.aborted = true
	w.buf.Reset()
}

// Remove implements store.Backend.
func (b *ObjectBackend) Remove(name string) error {
	key := b.key(name)
	if err := b.store.Delete(key); err != nil {
		return fmt.Errorf("remote: remove %s: %w", name, err)
	}
	if b.cache != nil {
		b.cache.Invalidate(key)
	}
	return nil
}
