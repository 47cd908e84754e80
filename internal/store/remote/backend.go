package remote

import (
	"errors"
	"fmt"
	"io"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/cachetier"
)

// ObjectBackend adapts an ObjectStore to store.Backend for reading a run
// whose chunk packs live in a shared remote pool, while its control plane
// (FORMAT, MANIFEST) sits in a local run directory. A run reaches the pool
// one way only: it is recorded locally and shipped whole by UploadRun. This
// backend only reads; its write methods fail with store.ErrReadOnly and touch
// no object.
//
// Its readers lend extents (store.ExtentReader): the restore path asks for
// each planned frame run's exact byte range, several in flight, and decodes
// it where it lies — a cache-tier extent, another reader's shared fetch, or
// the arena span of one ranged GET — counting the run to the "cache-tier",
// "singleflight" or "remote" fetch tier, and releases it when the decode is
// done. Reads go through an optional cachetier.Cache, which keeps those
// extents in memory.
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
	if off < 0 || n < 0 || n > r.size-off {
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

// Append, Truncate, Create and Remove implement store.Backend: the pool is
// written only by UploadRun.
func (b *ObjectBackend) Append(name string, _ []byte) error { return b.readOnly("append", name) }
func (b *ObjectBackend) Truncate(name string, _ int64) error {
	return b.readOnly("truncate", name)
}
func (b *ObjectBackend) Create(name string) (store.BackendWriter, error) {
	return nil, b.readOnly("create", name)
}
func (b *ObjectBackend) Remove(name string) error { return b.readOnly("remove", name) }

func (b *ObjectBackend) readOnly(op, name string) error {
	return fmt.Errorf("remote: %s %s: %w", op, name, store.ErrReadOnly)
}
