// Package remote implements the S3-shaped object backend the store.Backend
// interface was designed for: run checkpoints live in a shared object store
// as whole-object uploads (UploadRun; the object is the atomic unit), and
// replay restores them with parallel ranged GETs through an in-memory
// read-through chunk cache (internal/store/cachetier). UploadRun is the only
// writer of run objects; the store.Backend over a pool (ObjectBackend) only
// reads. The package speaks a
// minimal object API — GET, ranged GET, PUT, LIST, DELETE — deliberately
// the lowest common denominator of S3-compatible stores; the two bundled
// implementations (filesystem-rooted FSStore and in-memory MemStore) keep
// everything testable without a network.
//
// Every remote call is assumed to be able to fail transiently: Retry wraps
// any ObjectStore with bounded attempts, per-attempt timeouts, and
// exponential backoff, and the fault-injection battery in
// internal/store/faultbackend exercises exactly those paths. Cross-process
// writer coordination uses lease objects on the remote root (lease.go) so
// two daemons cannot race an upload to the same prefix.
package remote

import (
	"fmt"
	"os"
)

// ErrNotFound is returned for operations on absent objects. It wraps
// os.ErrNotExist so store-layer callers that probe with
// errors.Is(err, os.ErrNotExist) (the stale-pack detection path) see remote
// absence exactly like a missing local file.
var ErrNotFound = fmt.Errorf("remote: object not found: %w", os.ErrNotExist)

// ObjectStore is the minimal object-storage contract the backend needs. Keys
// are flat slash-separated strings ("runs/imgn/packs/CHUNKS-03.g2"); there
// are no directories, only prefixes. Implementations must be safe for
// concurrent use.
type ObjectStore interface {
	// Size returns the object's length in bytes; ErrNotFound when absent.
	Size(key string) (int64, error)
	// Get returns the whole object.
	Get(key string) ([]byte, error)
	// GetRange returns exactly n bytes of the object starting at off. The
	// slice is the caller's, who may hand it to ckptfmt.Shared once nothing
	// reads it: the cache tier admits it and the restore path decodes out of
	// it without a copy, and its last holder returns it to the arena, so an
	// implementation may neither keep nor reuse it. The bundled stores read
	// into an arena span. A negative off or n, or a range past the object's
	// end, is an error.
	GetRange(key string, off, n int64) ([]byte, error)
	// Put atomically replaces the object with data: a reader sees either the
	// previous object or the new one, never a mix.
	Put(key string, data []byte) error
	// List returns the keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Delete removes the object; deleting an absent object is not an error.
	Delete(key string) error
}
