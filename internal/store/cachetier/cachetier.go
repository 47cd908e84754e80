// Package cachetier implements the local read-through chunk cache that sits
// between a remote object backend and the checkpoint store's restore path.
// Remote pack reads land here extent by extent — an extent is exactly the
// byte range of one frame run a restore planned: a hit is served from local
// disk (or memory), a miss fetches the extent from the remote store and —
// subject to size-bounded admission control — keeps it for the next restore.
// The cache is what makes a stateless serving daemon cheap to re-point at a
// shared remote pool: the first restore of a run pays remote ranged-GET
// latency once, every later restore streams from the cache tier.
//
// Entries are keyed by (object, object length, offset, length). Pack objects
// are append-only and generations are immutable once written, so versioning
// the key by the object's length at read time makes stale hits structurally
// impossible: an appended-to object reads under a new length and simply
// re-fetches, while the old version's extents age out via LRU.
package cachetier

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"flor.dev/flor/internal/obs"
)

// DefaultBlockSize is the fixed block granularity the cache read at before
// it kept extents. Nothing in the cache uses it; it stays exported because
// the benchmark still estimates evicted bytes as evictions × this constant,
// until that row reads Stats.EvictedBytes.
const DefaultBlockSize = 1 << 20

// extentKey identifies one cached extent: the object, the object length the
// extent was read under (the version), and the extent's byte range.
type extentKey struct {
	obj    string
	ver    int64
	off, n int64
}

// entry is one resident extent. Exactly one of data/path is set: data for
// memory-backed caches, path for disk-backed ones.
type entry struct {
	key  extentKey
	data []byte
	path string
	// LRU intrusive list, most recent at head.
	prev, next *entry
}

// flight is one in-progress remote fetch of an extent. Concurrent readers of
// the same extent key join the flight instead of issuing their own GET: the
// leader fetches, everyone waits on done, and the waiters' bytes are
// attributed to the singleflight tier.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// Source says where ReadExtent found an extent's bytes.
type Source int

const (
	Fetched Source = iota // this caller's own remote fetch
	Hit                   // resident in the cache
	Shared                // another reader's in-flight fetch of the same extent
)

// Cache is a size-bounded read-through extent cache. Safe for concurrent use.
type Cache struct {
	dir      string // "" = memory-backed extents
	maxBytes int64

	mu        sync.Mutex
	entries   map[extentKey]*entry
	flights   map[extentKey]*flight // in-progress fetches, one leader per key
	admitting map[extentKey]bool    // keys reserved by an in-progress admit
	head      *entry                // most recently used
	tail      *entry                // least recently used
	bytes     int64
	seq       int64 // disk-mode extent file names
	stats     Stats

	mHitBytes          *obs.Counter
	mMissBytes         *obs.Counter
	mSingleflightBytes *obs.Counter
	mEvictions         *obs.Counter
	mBytes             *obs.Gauge
	mEntries           *obs.Gauge
}

// Stats is a point-in-time snapshot of the cache's accounting. Hit, miss and
// singleflight byte counts sum to the bytes served.
type Stats struct {
	Hits              int64 `json:"hits"`               // extent lookups served locally
	Misses            int64 `json:"misses"`             // extent lookups that went remote
	Singleflights     int64 `json:"singleflights"`      // extent lookups that joined another reader's fetch
	HitBytes          int64 `json:"hit_bytes"`          // bytes served locally
	MissBytes         int64 `json:"miss_bytes"`         // bytes fetched remotely
	SingleflightBytes int64 `json:"singleflight_bytes"` // bytes served by a shared in-flight fetch
	Admitted          int64 `json:"admitted"`           // extents admitted to the cache
	Rejected          int64 `json:"rejected"`           // extents denied admission (too large)
	Evictions         int64 `json:"evictions"`          // extents evicted to make room
	EvictedBytes      int64 `json:"evicted_bytes"`      // bytes of the evicted extents
	Bytes             int64 `json:"bytes"`              // resident extent bytes
	Entries           int64 `json:"entries"`            // resident extents
	MaxBytes          int64 `json:"max_bytes"`          // admission budget
}

// New returns a cache bounded to maxBytes. With a non-empty dir, extents are
// kept as files under it (the directory is created and any previous contents
// cleared — a cache directory holds nothing durable); with an empty dir,
// extents live in memory. maxBytes <= 0 disables caching entirely: every read
// passes through to the remote fetch.
func New(dir string, maxBytes int64) (*Cache, error) {
	if dir != "" {
		// A cache directory is disposable by definition; clearing it on open
		// keeps stale extents from a previous process out of the accounting.
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("cachetier: clear cache dir: %w", err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cachetier: cache dir: %w", err)
		}
	}
	return &Cache{
		dir:                dir,
		maxBytes:           maxBytes,
		entries:            map[extentKey]*entry{},
		flights:            map[extentKey]*flight{},
		admitting:          map[extentKey]bool{},
		mHitBytes:          obs.C(obs.MCacheTierHitBytes),
		mMissBytes:         obs.C(obs.MCacheTierMissBytes),
		mSingleflightBytes: obs.C(obs.MCacheTierSingleflightBytes),
		mEvictions:         obs.C(obs.MCacheTierEvictions),
		mBytes:             obs.G(obs.MCacheTierBytes),
		mEntries:           obs.G(obs.MCacheTierEntries),
	}, nil
}

// MaxBytes returns the admission budget.
func (c *Cache) MaxBytes() int64 { return c.maxBytes }

// ReadExtent returns bytes [off, off+n) of object obj, whose committed length
// is size (the version key), and where they came from. The slice is
// read-only and may be shared with other readers: a hit returns the resident
// extent itself, which is never written after admission. A miss runs
// fetch(off, n) — which must return exactly n bytes of the object at off, in
// a freshly allocated slice the cache may retain (every remote GET
// materializes a new buffer, so admission adopts it instead of copying) —
// and admits the result when it fits the budget. Concurrent readers of the
// same missing extent are deduped: one leader runs fetch, the rest wait on
// its result.
func (c *Cache) ReadExtent(obj string, size, off, n int64, fetch func(off, n int64) ([]byte, error)) ([]byte, Source, error) {
	if off < 0 || n < 0 || off+n > size {
		return nil, 0, fmt.Errorf("cachetier: read [%d,%d) of %s beyond object length %d", off, off+n, obj, size)
	}
	key := extentKey{obj: obj, ver: size, off: off, n: n}
	if data, ok := c.lookup(key); ok {
		c.note(&c.stats.Hits, &c.stats.HitBytes, n)
		c.mHitBytes.Add(n)
		return data, Hit, nil
	}
	data, joined, err := c.fetchExtent(key, fetch)
	switch {
	case err != nil:
		return nil, 0, err
	case joined:
		c.note(&c.stats.Singleflights, &c.stats.SingleflightBytes, n)
		c.mSingleflightBytes.Add(n)
		return data, Shared, nil
	}
	c.note(&c.stats.Misses, &c.stats.MissBytes, n)
	c.mMissBytes.Add(n)
	return data, Fetched, nil
}

// fetchExtent resolves a cache miss. The first reader of a missing key
// becomes the flight leader: it runs fetch, publishes the result to every
// waiter, and admits the extent. Later readers join the flight and report
// joined=true. A waiter whose leader failed falls back to its own fetch
// rather than inheriting the error — the leader may have hit a transient
// fault the retry layer already burned its attempts on.
func (c *Cache) fetchExtent(key extentKey, fetch func(off, n int64) ([]byte, error)) (data []byte, joined bool, err error) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err == nil {
			return f.data, true, nil
		}
	} else {
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		data, err = c.runFetch(key, fetch)
		f.data, f.err = data, err
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		return data, false, err
	}
	// Leader failed; fetch independently (no flight: racing fallbacks are
	// rare and re-registering here could strand waiters behind another
	// failure chain).
	data, err = c.runFetch(key, fetch)
	return data, false, err
}

// runFetch performs the remote fetch for one extent, validates its length,
// and admits it on success.
func (c *Cache) runFetch(key extentKey, fetch func(off, n int64) ([]byte, error)) ([]byte, error) {
	data, err := fetch(key.off, key.n)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != key.n {
		return nil, fmt.Errorf("cachetier: fetch of %s [%d,%d) returned %d bytes", key.obj, key.off, key.off+key.n, len(data))
	}
	c.admit(key, data)
	return data, nil
}

// lookup returns the extent's bytes on a hit, touching its LRU position. In
// disk mode the file read runs outside the lock; an extent evicted between
// lookup and read degrades to a miss.
func (c *Cache) lookup(key extentKey) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.touch(e)
	data, path := e.data, e.path
	c.mu.Unlock()
	if data != nil {
		return data, true
	}
	raw, err := os.ReadFile(path)
	if err != nil || int64(len(raw)) != key.n {
		// Evicted (or truncated) between lookup and read: treat as a miss.
		return nil, false
	}
	return raw, true
}

// admit inserts a fetched extent, evicting least-recently-used extents until
// it fits. Extents larger than the whole budget are rejected (read-through
// still served them); a zero-or-negative budget rejects everything.
//
// Admission is idempotent per key: the key and its budget are reserved under
// the lock before the (out-of-lock) disk write, so a racing admit of the same
// extent — two readers whose flight leader failed, each fetching on its own —
// bails out before writing anything and the budget never counts the extent
// twice, even transiently. Memory mode adopts the fetched slice outright.
func (c *Cache) admit(key extentKey, data []byte) {
	n := key.n
	c.mu.Lock()
	if n > c.maxBytes {
		c.stats.Rejected++
		c.mu.Unlock()
		return
	}
	if _, dup := c.entries[key]; dup || c.admitting[key] {
		c.mu.Unlock()
		return
	}
	for c.bytes+n > c.maxBytes && c.tail != nil {
		c.evictLocked(c.tail)
	}
	if c.bytes+n > c.maxBytes { // the rest is reserved by in-progress disk admits
		c.stats.Rejected++
		c.mu.Unlock()
		return
	}
	c.bytes += n
	if c.dir == "" {
		c.insertLocked(&entry{key: key, data: data})
		c.mu.Unlock()
		return
	}
	c.admitting[key] = true
	c.seq++
	path := filepath.Join(c.dir, fmt.Sprintf("e-%d", c.seq))
	c.mu.Unlock()

	werr := os.WriteFile(path, data, 0o644)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.admitting, key)
	if werr != nil {
		// Cache disk full etc.: release the reservation, stay a pass-through.
		c.bytes -= n
		c.mBytes.Set(c.bytes)
		return
	}
	c.insertLocked(&entry{key: key, path: path})
}

func (c *Cache) insertLocked(e *entry) {
	c.entries[e.key] = e
	c.pushFront(e)
	c.stats.Admitted++
	c.mBytes.Set(c.bytes)
	c.mEntries.Set(int64(len(c.entries)))
}

// Invalidate drops every resident extent of obj (all versions), freeing their
// budget. Remote object replacement and deletion call it; correctness does
// not depend on it (keys are length-versioned), it just frees dead space.
func (c *Cache) Invalidate(obj string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		if key.obj == obj {
			c.evictLocked(e)
		}
	}
}

// Stats returns a snapshot of the cache's accounting.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Bytes = c.bytes
	st.Entries = int64(len(c.entries))
	st.MaxBytes = c.maxBytes
	return st
}

func (c *Cache) note(count, bytes *int64, n int64) {
	c.mu.Lock()
	*count++
	*bytes += n
	c.mu.Unlock()
}

func (c *Cache) evictLocked(e *entry) {
	delete(c.entries, e.key)
	c.unlink(e)
	c.bytes -= e.key.n
	c.stats.Evictions++
	c.stats.EvictedBytes += e.key.n
	c.mEvictions.Inc()
	c.mBytes.Set(c.bytes)
	c.mEntries.Set(int64(len(c.entries)))
	if e.path != "" {
		os.Remove(e.path)
	}
}

func (c *Cache) touch(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
