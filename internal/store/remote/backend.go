package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/cachetier"
)

// ObjectBackend adapts an ObjectStore to store.Backend, so a run's chunk
// packs can live in a shared remote pool while the control plane (FORMAT,
// MANIFEST, segments) stays in a local run directory. Its readers lend
// extents (store.ExtentReader): the restore path asks for each planned frame
// run's exact byte range, several in flight, and decodes it where it lies —
// a cache-tier extent, another reader's shared fetch, or the arena span of
// one ranged GET — counting the run to the "cache-tier", "singleflight" or
// "remote" fetch tier, and releases it when the decode is done.
//
// Reads go through an optional cachetier.Cache, which keeps those extents;
// pack appends and wholesale replacements invalidate the touched object's
// cached extents (correctness never depends on that — cache keys are
// versioned by object length — it just frees dead space promptly).
//
// Append is a read-modify-write full PUT: correct under the store's
// per-shard append serialization, but O(object) per call. Remote-backed
// stores are meant to be written locally and uploaded (UploadRun), then
// served read-only; Append exists so the Backend contract
// holds, not as a hot write path.
type ObjectBackend struct {
	store  ObjectStore
	prefix string
	cache  *cachetier.Cache
}

// Compile-time checks: ObjectBackend is a store.Backend whose readers lend
// extents.
var (
	_ store.Backend      = (*ObjectBackend)(nil)
	_ store.ExtentReader = (*objReader)(nil)
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
// it had), and implements store.ExtentReader.
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

// ReadAt implements io.ReaderAt: a copy of the extent ReadExtent lends.
func (r *objReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= r.size {
		if off == r.size {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("remote: read %s at %d: out of range [0,%d)", r.key, off, r.size)
	}
	n := min(int64(len(p)), r.size-off)
	data, release, _, err := r.ReadExtent(off, n)
	if err != nil {
		return 0, err
	}
	copy(p, data)
	release()
	if n < int64(len(p)) {
		return int(n), io.EOF
	}
	return int(n), nil
}

// extentTier maps where the cache tier found an extent to the fetch tier it
// counts to.
var extentTier = [...]store.ExtentTier{
	cachetier.Fetched: store.ExtentRemote,
	cachetier.Hit:     store.ExtentCacheTier,
	cachetier.Shared:  store.ExtentSingleflight,
}

// ReadExtent implements store.ExtentReader: exactly one ranged GET per
// missing extent, whose buffer is handed over (and, behind a cache tier,
// admitted) without a copy. Without a cache tier the caller is the GET
// buffer's only holder and release puts it back in ckptfmt.Shared; behind
// one, release drops the caller's reference on the cache tier's lease. A
// range beyond the length the reader was opened at is a short object,
// reported as io.ErrUnexpectedEOF.
func (r *objReader) ReadExtent(off, n int64) ([]byte, func(), store.ExtentTier, error) {
	if off < 0 || n < 0 || off+n > r.size {
		return nil, nil, 0, fmt.Errorf("remote: read %s [%d,%d) of %d bytes: %w", r.key, off, off+n, r.size, io.ErrUnexpectedEOF)
	}
	get := func(off, n int64) ([]byte, error) { return r.b.store.GetRange(r.key, off, n) }
	if r.b.cache == nil {
		data, err := get(off, n)
		if err != nil {
			return nil, nil, 0, err
		}
		return data, func() { ckptfmt.Shared.Put(data) }, store.ExtentRemote, nil
	}
	data, release, src, err := r.b.cache.ReadExtent(r.key, r.size, off, n, get)
	return data, release, extentTier[src], err
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
