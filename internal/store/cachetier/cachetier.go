// Package cachetier implements the local read-through chunk cache that sits
// between a remote object backend and the checkpoint store's restore path.
// Remote pack reads land here extent by extent — an extent is exactly the
// byte range of one frame run a restore planned: a hit is served from
// memory, a miss fetches the extent from the remote store and — subject to
// size-bounded admission control — keeps it for the next restore.
// The cache is what makes a stateless serving daemon cheap to re-point at a
// shared remote pool: the first restore of a run pays remote ranged-GET
// latency once, every later restore streams from the cache tier.
//
// Entries are keyed by (object, object length, offset, length). Pack objects
// are append-only and generations are immutable once written, so versioning
// the key by the object's length at read time makes stale hits structurally
// impossible: an appended-to object reads under a new length and simply
// re-fetches, while the old version's extents age out via LRU.
//
// The tier is a performance cache and is never persisted: extents live in
// memory only, and a process starts with an empty tier.
//
// A fetched extent is a counted lease on a ckptfmt.Shared span: the cache
// holds one reference while the extent is resident, and every reader it was
// handed to — the flight leader, each reader that joined the flight, each
// hit — holds one until it calls the release ReadExtent returned.
// Whichever holder lets go last puts the span back in the arena, so remote
// reads recycle their buffers the way local reads recycle their scratch, and
// an extent evicted under a reader stays intact until that reader is done.
package cachetier

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/obs"
)

// put returns a buffer to the arena once its last holder lets go; tests
// observe it.
var put = ckptfmt.Shared.Put

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

// lease is one extent buffer and the count of its holders. Every increment
// happens under Cache.mu while another holder is known to keep the count
// above zero (the resident entry, or the leader of a registered flight); the
// holder whose release takes it to zero puts the buffer.
type lease struct {
	data []byte
	refs atomic.Int32
}

func newLease(data []byte) *lease {
	l := &lease{data: data}
	l.refs.Store(1)
	return l
}

func (l *lease) release() {
	if l.refs.Add(-1) == 0 && l.data != nil {
		put(l.data)
	}
}

// entry is one resident extent: the entry holds one of ext's references,
// and cost is what it holds against the budget, its buffer's capacity.
type entry struct {
	key  extentKey
	ext  *lease
	cost int64
	// LRU intrusive list, most recent at head.
	prev, next *entry
}

// flight is one in-progress remote fetch of an extent. Concurrent readers of
// the same extent key join the flight instead of issuing their own GET: the
// leader fetches, everyone waits on done, and the waiters' bytes are
// attributed to the singleflight tier. ext counts the leader and every
// joiner from the moment it joins; its data is set before done closes.
type flight struct {
	done chan struct{}
	ext  *lease
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
	maxBytes int64

	mu      sync.Mutex
	entries map[extentKey]*entry
	flights map[extentKey]*flight // in-progress fetches, one leader per key
	head    *entry                // most recently used
	tail    *entry                // least recently used
	bytes   int64
	stats   Stats

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
	Bytes             int64 `json:"bytes"`              // bytes resident extents hold (their buffers' capacity)
	Entries           int64 `json:"entries"`            // resident extents
	MaxBytes          int64 `json:"max_bytes"`          // admission budget
}

// New returns an in-memory cache bounded to maxBytes. maxBytes <= 0
// disables caching entirely: every read passes through to the remote fetch.
// dir must be empty: the tier keeps no files. The parameter stays only
// because the benchmark module calls New("", …); the next change to the
// benchmark drops it.
func New(dir string, maxBytes int64) (*Cache, error) {
	if dir != "" {
		return nil, errors.New("cachetier: extents are kept in memory only; dir must be empty")
	}
	return &Cache{
		maxBytes:           maxBytes,
		entries:            map[extentKey]*entry{},
		flights:            map[extentKey]*flight{},
		mHitBytes:          obs.C(obs.MCacheTierHitBytes),
		mMissBytes:         obs.C(obs.MCacheTierMissBytes),
		mSingleflightBytes: obs.C(obs.MCacheTierSingleflightBytes),
		mEvictions:         obs.C(obs.MCacheTierEvictions),
		mBytes:             obs.G(obs.MCacheTierBytes),
		mEntries:           obs.G(obs.MCacheTierEntries),
	}, nil
}

// ReadExtent returns bytes [off, off+n) of object obj, whose committed length
// is size (the version key), a release the caller must call once it no
// longer reads them, and where they came from. The slice is read-only and
// may be shared with other readers: a hit returns the resident extent
// itself, which is never written while anyone holds it. A miss runs
// fetch(off, n) — which must return exactly n bytes of the object at off, in
// a slice that becomes the cache's (a remote GET reads into a
// ckptfmt.Shared span, so admission adopts it instead of copying unless the
// span is over twice the extent, and its last holder puts it back) — and
// admits the result when it fits the budget.
// Concurrent readers of the same missing extent are deduped: one leader runs
// fetch, the rest wait on its result. On error there is nothing to release.
func (c *Cache) ReadExtent(obj string, size, off, n int64, fetch func(off, n int64) ([]byte, error)) (data []byte, release func(), src Source, err error) {
	if off < 0 || n < 0 || n > size-off {
		return nil, nil, 0, fmt.Errorf("cachetier: read [%d,%d) of %s beyond object length %d", off, off+n, obj, size)
	}
	key := extentKey{obj: obj, ver: size, off: off, n: n}
	if ext := c.lookup(key); ext != nil {
		c.note(&c.stats.Hits, &c.stats.HitBytes, n)
		c.mHitBytes.Add(n)
		return ext.data, ext.release, Hit, nil
	}
	ext, joined, err := c.fetchExtent(key, fetch)
	switch {
	case err != nil:
		return nil, nil, 0, err
	case joined:
		c.note(&c.stats.Singleflights, &c.stats.SingleflightBytes, n)
		c.mSingleflightBytes.Add(n)
		return ext.data, ext.release, Shared, nil
	}
	c.note(&c.stats.Misses, &c.stats.MissBytes, n)
	c.mMissBytes.Add(n)
	return ext.data, ext.release, Fetched, nil
}

// fetchExtent resolves a cache miss. The first reader of a missing key
// becomes the flight leader: it runs fetch, publishes the result to every
// waiter, and admits the extent. Later readers join the flight — taking
// their reference under the lock, while the leader's keeps the lease alive —
// and report joined=true. A waiter whose leader failed drops its reference
// and falls back to its own fetch rather than inheriting the error — the
// leader may have hit a transient fault the retry layer already burned its
// attempts on.
func (c *Cache) fetchExtent(key extentKey, fetch func(off, n int64) ([]byte, error)) (ext *lease, joined bool, err error) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		f.ext.refs.Add(1)
		c.mu.Unlock()
		<-f.done
		if f.err == nil {
			return f.ext, true, nil
		}
		f.ext.release()
	} else {
		f := &flight{done: make(chan struct{}), ext: newLease(nil)}
		c.flights[key] = f
		c.mu.Unlock()
		f.err = c.runFetch(key, f.ext, fetch)
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		if f.err != nil {
			f.ext.release()
			return nil, false, f.err
		}
		return f.ext, false, nil
	}
	// Leader failed; fetch independently (no flight: racing fallbacks are
	// rare and re-registering here could strand waiters behind another
	// failure chain).
	ext = newLease(nil)
	if err := c.runFetch(key, ext, fetch); err != nil {
		ext.release()
		return nil, false, err
	}
	return ext, false, nil
}

// runFetch performs the remote fetch for one extent into ext, whose
// reference the caller holds throughout, validates its length, and admits it
// on success. A buffer of the wrong length is nobody else's: it goes
// straight back.
func (c *Cache) runFetch(key extentKey, ext *lease, fetch func(off, n int64) ([]byte, error)) error {
	data, err := fetch(key.off, key.n)
	if err != nil {
		return err
	}
	if int64(len(data)) != key.n {
		put(data)
		return fmt.Errorf("cachetier: fetch of %s [%d,%d) returned %d bytes", key.obj, key.off, key.off+key.n, len(data))
	}
	ext.data = data
	c.admit(key, ext)
	return nil
}

// lookup returns a held lease on the resident extent on a hit, touching
// its LRU position.
func (c *Cache) lookup(key extentKey) *lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.touch(e)
	e.ext.refs.Add(1)
	return e.ext
}

// admit inserts a fetched extent, evicting least-recently-used extents until
// it fits. Extents larger than the whole budget are rejected (read-through
// still served them); a zero-or-negative budget rejects everything.
//
// The budget bounds what the entries keep alive, so an entry is charged its
// buffer's capacity, not the extent's length. A fetched span can be an arena
// buffer a far larger read pooled; one whose capacity is over twice the
// extent is not adopted — the entry keeps an exact copy, and the span goes
// back to the arena with its last reader.
//
// Admission is idempotent per key: two readers whose flight leader failed,
// each fetching on its own, admit the extent once. The entry takes a
// reference of its own on the lease it keeps.
func (c *Cache) admit(key extentKey, ext *lease) {
	n, cost := key.n, key.n
	var exact []byte
	if n <= c.maxBytes {
		if cost = int64(cap(ext.data)); cost > 2*n {
			exact, cost = make([]byte, n), n
			copy(exact, ext.data)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.maxBytes {
		c.stats.Rejected++
		return
	}
	if _, dup := c.entries[key]; dup {
		return
	}
	for c.bytes+cost > c.maxBytes {
		c.evictLocked(c.tail)
	}
	held := ext
	if exact != nil {
		held = newLease(exact)
	} else {
		ext.refs.Add(1)
	}
	c.bytes += cost
	e := &entry{key: key, ext: held, cost: cost}
	c.entries[key] = e
	c.pushFront(e)
	c.stats.Admitted++
	c.mBytes.Set(c.bytes)
	c.mEntries.Set(int64(len(c.entries)))
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
	c.bytes -= e.cost
	c.stats.Evictions++
	c.stats.EvictedBytes += e.key.n
	c.mEvictions.Inc()
	c.mBytes.Set(c.bytes)
	c.mEntries.Set(int64(len(c.entries)))
	e.ext.release()
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
