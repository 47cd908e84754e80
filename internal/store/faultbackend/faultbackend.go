// Package faultbackend wraps the store's storage interfaces — the remote
// ObjectStore API and store.Backend itself — with deterministic, seed-driven
// fault injection: errors on every Nth read, short reads, latency spikes,
// and torn PUTs. The remote backend's fault-matrix battery is built on it,
// and it is exported (not an internal test helper) so future fleet tests can
// reuse the same fault classes against real daemons.
//
// Determinism is the point: every fault class fires on a fixed schedule —
// operation counters are per-class and atomic, and the seed shifts each
// class's phase — so a failing run replays identically from its seed, under
// -race, with no clock or randomness in the schedule itself.
package faultbackend

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/remote"
)

// ErrInjected marks every injected fault; test assertions and retry loops
// recognize it with errors.Is.
var ErrInjected = errors.New("faultbackend: injected fault")

// Config selects which fault classes fire and how often. A zero Nth disables
// its class; Nth = 1 fires on every operation. Seed rotates each class's
// phase (which of the first N operations faults), so different seeds
// exercise different interleavings on the same schedule density.
type Config struct {
	Seed int64
	// ReadErrNth errors every Nth read operation (Get/GetRange/ReadAt).
	ReadErrNth int
	// ShortReadNth truncates every Nth ranged read instead of erroring.
	ShortReadNth int
	// LatencyNth sleeps Latency on every Nth operation (any kind) — the
	// class that exercises per-attempt timeouts.
	LatencyNth int
	Latency    time.Duration
	// TornPutNth makes every Nth Put persist only a prefix of the object
	// and then report failure — the crash-mid-upload case atomic PUTs must
	// make unobservable to readers.
	TornPutNth int
}

// counters tracks per-class operation counts.
type counters struct {
	reads atomic.Int64
	puts  atomic.Int64
	ops   atomic.Int64
}

// injected counts how many faults have fired (all classes).
type injected struct {
	n atomic.Int64
}

// fire reports whether this operation (the count-th of its class) faults
// under schedule nth with the given seed.
func fire(count int64, nth int, seed int64) bool {
	if nth <= 0 {
		return false
	}
	phase := seed % int64(nth)
	if phase < 0 {
		phase += int64(nth)
	}
	return count%int64(nth) == phase
}

// Object wraps a remote.ObjectStore with fault injection.
type Object struct {
	inner remote.ObjectStore
	cfg   Config
	c     counters
	inj   injected
}

// WrapObject returns st with cfg's fault classes layered on top.
func WrapObject(st remote.ObjectStore, cfg Config) *Object {
	return &Object{inner: st, cfg: cfg}
}

// Injected returns how many faults have fired so far — tests assert it is
// non-zero so a "passing" battery cannot silently test nothing.
func (o *Object) Injected() int64 { return o.inj.n.Load() }

func (o *Object) latency() {
	if fire(o.c.ops.Add(1)-1, o.cfg.LatencyNth, o.cfg.Seed) && o.cfg.Latency > 0 {
		o.inj.n.Add(1)
		time.Sleep(o.cfg.Latency)
	}
}

// Size implements remote.ObjectStore (never faulted: sizing is metadata).
func (o *Object) Size(key string) (int64, error) {
	o.latency()
	return o.inner.Size(key)
}

// Get implements remote.ObjectStore.
func (o *Object) Get(key string) ([]byte, error) {
	o.latency()
	if fire(o.c.reads.Add(1)-1, o.cfg.ReadErrNth, o.cfg.Seed) {
		o.inj.n.Add(1)
		return nil, fmt.Errorf("%w: get %s", ErrInjected, key)
	}
	return o.inner.Get(key)
}

// GetRange implements remote.ObjectStore, subject to read errors and short
// reads.
func (o *Object) GetRange(key string, off, n int64) ([]byte, error) {
	o.latency()
	count := o.c.reads.Add(1) - 1
	if fire(count, o.cfg.ReadErrNth, o.cfg.Seed) {
		o.inj.n.Add(1)
		return nil, fmt.Errorf("%w: get range %s [%d,%d)", ErrInjected, key, off, off+n)
	}
	data, err := o.inner.GetRange(key, off, n)
	if err == nil && len(data) > 1 && fire(count, o.cfg.ShortReadNth, o.cfg.Seed+1) {
		o.inj.n.Add(1)
		cut := 1 + abs64(o.cfg.Seed+count)%3 // deterministic 1..3 byte truncation
		if cut > int64(len(data))-1 {
			cut = int64(len(data)) - 1
		}
		return data[:int64(len(data))-cut], nil
	}
	return data, err
}

// Put implements remote.ObjectStore, subject to torn PUTs: the fault writes
// a prefix of the object through and reports failure, modeling a writer
// that died mid-upload against a store without atomic PUT.
func (o *Object) Put(key string, data []byte) error {
	o.latency()
	if fire(o.c.puts.Add(1)-1, o.cfg.TornPutNth, o.cfg.Seed) {
		o.inj.n.Add(1)
		if len(data) > 1 {
			o.inner.Put(key, data[:len(data)/2]) //nolint:errcheck // tearing is the point
		}
		return fmt.Errorf("%w: torn put %s", ErrInjected, key)
	}
	return o.inner.Put(key, data)
}

// List implements remote.ObjectStore.
func (o *Object) List(prefix string) ([]string, error) {
	o.latency()
	return o.inner.List(prefix)
}

// Delete implements remote.ObjectStore.
func (o *Object) Delete(key string) error {
	o.latency()
	return o.inner.Delete(key)
}

// Backend wraps a store.Backend with the read-side fault classes (errors on
// Nth ReadAt, short reads, latency). Write-side tearing is not modeled here:
// store.Backend's Create contract is already atomic-or-Abort, so the
// interesting write faults live at the object layer (torn Put above).
type Backend struct {
	store.Backend // Truncate passes straight through
	cfg           Config
	c             counters
	inj           injected
}

// WrapBackend returns b with cfg's read-fault classes layered on top.
func WrapBackend(b store.Backend, cfg Config) *Backend {
	return &Backend{Backend: b, cfg: cfg}
}

// Injected returns how many faults have fired so far.
func (b *Backend) Injected() int64 { return b.inj.n.Load() }

func (b *Backend) latency() {
	if fire(b.c.ops.Add(1)-1, b.cfg.LatencyNth, b.cfg.Seed) && b.cfg.Latency > 0 {
		b.inj.n.Add(1)
		time.Sleep(b.cfg.Latency)
	}
}

// Size implements store.Backend.
func (b *Backend) Size(name string) (int64, error) {
	b.latency()
	return b.Backend.Size(name)
}

// Append implements store.Backend.
func (b *Backend) Append(name string, p []byte) error {
	b.latency()
	return b.Backend.Append(name, p)
}

// Open implements store.Backend; the returned reader carries the injector.
func (b *Backend) Open(name string) (store.BackendReader, error) {
	b.latency()
	r, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultReader{b: b, name: name, inner: r}, nil
}

// Create implements store.Backend.
func (b *Backend) Create(name string) (store.BackendWriter, error) {
	b.latency()
	return b.Backend.Create(name)
}

// Remove implements store.Backend.
func (b *Backend) Remove(name string) error {
	b.latency()
	return b.Backend.Remove(name)
}

type faultReader struct {
	b     *Backend
	name  string
	inner store.BackendReader
}

// ReadAt implements io.ReaderAt with injected errors and short reads.
func (r *faultReader) ReadAt(p []byte, off int64) (int, error) {
	r.b.latency()
	count := r.b.c.reads.Add(1) - 1
	if fire(count, r.b.cfg.ReadErrNth, r.b.cfg.Seed) {
		r.b.inj.n.Add(1)
		return 0, fmt.Errorf("%w: read %s at %d", ErrInjected, r.name, off)
	}
	n, err := r.inner.ReadAt(p, off)
	if err == nil && n > 1 && fire(count, r.b.cfg.ShortReadNth, r.b.cfg.Seed+1) {
		r.b.inj.n.Add(1)
		short := n - 1 - int(abs64(r.b.cfg.Seed+count)%3)
		if short < 1 {
			short = 1
		}
		return short, fmt.Errorf("%w: short read %s at %d: %d of %d bytes", ErrInjected, r.name, off, short, n)
	}
	return n, err
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Close implements io.Closer.
func (r *faultReader) Close() error { return r.inner.Close() }
