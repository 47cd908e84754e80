// Package cachetier implements the local read-through chunk cache that sits
// between a remote object backend and the checkpoint store's restore path.
// Remote pack reads land here block by block: a hit is served from local
// disk (or memory), a miss fetches the block from the remote store and —
// subject to size-bounded admission control — keeps it for the next restore.
// The cache is what makes a stateless serving daemon cheap to re-point at a
// shared remote pool: the first restore of a run pays remote ranged-GET
// latency once, every later restore streams from the cache tier.
//
// Entries are keyed by (object, object length, block index). Pack objects
// are append-only and generations are immutable once written, so versioning
// the key by the object's length at read time makes stale hits structurally
// impossible: an appended-to object reads under a new length and simply
// re-fetches its tail, while the old version's blocks age out via LRU.
package cachetier

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"flor.dev/flor/internal/obs"
)

// DefaultBlockSize is the cache's block granularity: large enough that one
// block amortizes a remote round-trip, small enough that sparse restores do
// not drag whole packs into the cache.
const DefaultBlockSize = 1 << 20

// blockKey identifies one cached block: the object, the object length the
// block was read under (the version), and the block index.
type blockKey struct {
	obj string
	ver int64
	idx int64
}

// entry is one resident block. Exactly one of data/path is set: data for
// memory-backed caches, path for disk-backed ones.
type entry struct {
	key  blockKey
	size int64
	data []byte
	path string
	// LRU intrusive list, most recent at head.
	prev, next *entry
}

// flight is one in-progress remote fetch of a block. Concurrent readers of
// the same versioned key join the flight instead of issuing their own GET:
// the leader fetches, everyone waits on done, and the waiters' bytes are
// attributed to the singleflight tier.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// Cache is a size-bounded read-through block cache. Safe for concurrent use.
type Cache struct {
	dir       string // "" = memory-backed blocks
	maxBytes  int64
	blockSize int64

	mu        sync.Mutex
	entries   map[blockKey]*entry
	flights   map[blockKey]*flight // in-progress fetches, one leader per key
	admitting map[blockKey]bool    // keys reserved by an in-progress admit
	head      *entry               // most recently used
	tail      *entry               // least recently used
	bytes     int64
	seq       int64 // disk-mode block file names
	stats     Stats

	mHitBytes          *obs.Counter
	mMissBytes         *obs.Counter
	mSingleflightBytes *obs.Counter
	mEvictions         *obs.Counter
	mBytes             *obs.Gauge
	mEntries           *obs.Gauge
}

// Stats is a point-in-time snapshot of the cache's accounting. Hit, miss and
// singleflight byte counts attribute the byte ranges callers asked for (so
// they sum to the bytes served), not whole blocks.
type Stats struct {
	Hits              int64 `json:"hits"`               // block lookups served locally
	Misses            int64 `json:"misses"`             // block lookups that went remote
	Singleflights     int64 `json:"singleflights"`      // block lookups that joined another reader's fetch
	HitBytes          int64 `json:"hit_bytes"`          // requested bytes served locally
	MissBytes         int64 `json:"miss_bytes"`         // requested bytes fetched remotely
	SingleflightBytes int64 `json:"singleflight_bytes"` // requested bytes served by a shared in-flight fetch
	Admitted          int64 `json:"admitted"`           // blocks admitted to the cache
	Rejected          int64 `json:"rejected"`           // blocks denied admission (too large)
	Evictions         int64 `json:"evictions"`          // blocks evicted to make room
	Bytes             int64 `json:"bytes"`              // resident block bytes
	Entries           int64 `json:"entries"`            // resident blocks
	MaxBytes          int64 `json:"max_bytes"`          // admission budget
}

// New returns a cache bounded to maxBytes. With a non-empty dir, blocks are
// kept as files under it (the directory is created and any previous contents
// cleared — a cache directory holds nothing durable); with an empty dir,
// blocks live in memory. maxBytes <= 0 disables caching entirely: every read
// passes through to the remote fetch.
func New(dir string, maxBytes int64) (*Cache, error) {
	return NewWithBlockSize(dir, maxBytes, DefaultBlockSize)
}

// NewWithBlockSize is New with an explicit block granularity (tests shrink
// it to exercise multi-block reads cheaply).
func NewWithBlockSize(dir string, maxBytes, blockSize int64) (*Cache, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("cachetier: block size %d: want > 0", blockSize)
	}
	if dir != "" {
		// A cache directory is disposable by definition; clearing it on open
		// keeps stale blocks from a previous process out of the accounting.
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
		blockSize:          blockSize,
		entries:            map[blockKey]*entry{},
		flights:            map[blockKey]*flight{},
		admitting:          map[blockKey]bool{},
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

// BlockSize returns the cache's block granularity.
func (c *Cache) BlockSize() int64 { return c.blockSize }

// ReadThrough fills p with bytes [off, off+len(p)) of object obj, whose
// committed length is size (the version key; off+len(p) must not exceed it).
// Blocks already resident are copied out of the cache; missing blocks are
// fetched with fetch(blockOff, blockLen) — which must return exactly
// blockLen bytes of the object at blockOff, in a freshly allocated slice the
// cache may retain (every remote GET materializes a new buffer, so admission
// adopts it instead of paying a second copy of every fetched byte) — served
// to the caller, and admitted to the cache when they fit the budget. Concurrent readers of the
// same missing block are deduped: one leader runs fetch, the rest wait on
// its result. It returns how many of the requested bytes came from the
// cache, from this caller's own fetches, and from fetches shared with
// another in-flight reader (cached+fetched+shared == len(p) on success).
func (c *Cache) ReadThrough(obj string, size, off int64, p []byte, fetch func(off, n int64) ([]byte, error)) (cached, fetched, shared int64, err error) {
	if off < 0 || off+int64(len(p)) > size {
		return 0, 0, 0, fmt.Errorf("cachetier: read [%d,%d) of %s beyond object length %d", off, off+int64(len(p)), obj, size)
	}
	for len(p) > 0 {
		idx := off / c.blockSize
		bOff := idx * c.blockSize
		bLen := min64(c.blockSize, size-bOff)
		// The caller's slice of this block.
		within := off - bOff
		n := min64(bLen-within, int64(len(p)))

		key := blockKey{obj: obj, ver: size, idx: idx}
		if block, ok := c.lookup(key); ok {
			copy(p[:n], block[within:within+n])
			cached += n
			c.note(&c.stats.Hits, &c.stats.HitBytes, n)
			c.mHitBytes.Add(n)
		} else {
			block, joined, ferr := c.fetchBlock(key, bOff, bLen, fetch)
			if ferr != nil {
				return cached, fetched, shared, ferr
			}
			copy(p[:n], block[within:within+n])
			if joined {
				shared += n
				c.note(&c.stats.Singleflights, &c.stats.SingleflightBytes, n)
				c.mSingleflightBytes.Add(n)
			} else {
				fetched += n
				c.note(&c.stats.Misses, &c.stats.MissBytes, n)
				c.mMissBytes.Add(n)
			}
		}
		p = p[n:]
		off += n
	}
	return cached, fetched, shared, nil
}

// fetchBlock resolves a cache miss for one block. The first reader of a
// missing key becomes the flight leader: it runs fetch, publishes the result
// to every waiter, and admits the block. Later readers join the flight and
// report joined=true. A waiter whose leader failed falls back to its own
// fetch rather than inheriting the error — the leader may have hit a
// transient fault the retry layer already burned its attempts on.
func (c *Cache) fetchBlock(key blockKey, bOff, bLen int64, fetch func(off, n int64) ([]byte, error)) (block []byte, joined bool, err error) {
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
		block, err = c.runFetch(key, bOff, bLen, fetch)
		f.data, f.err = block, err
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		return block, false, err
	}
	// Leader failed; fetch independently (no flight: racing fallbacks are
	// rare and re-registering here could strand waiters behind another
	// failure chain).
	block, err = c.runFetch(key, bOff, bLen, fetch)
	return block, false, err
}

// runFetch performs the remote fetch for one block, validates its length,
// and admits it on success.
func (c *Cache) runFetch(key blockKey, bOff, bLen int64, fetch func(off, n int64) ([]byte, error)) ([]byte, error) {
	block, err := fetch(bOff, bLen)
	if err != nil {
		return nil, err
	}
	if int64(len(block)) != bLen {
		return nil, fmt.Errorf("cachetier: fetch of %s [%d,%d) returned %d bytes", key.obj, bOff, bOff+bLen, len(block))
	}
	c.admit(key, block)
	return block, nil
}

// lookup returns the block's bytes on a hit, touching its LRU position. In
// disk mode the file read runs outside the lock; a block evicted between
// lookup and read degrades to a miss.
func (c *Cache) lookup(key blockKey) ([]byte, bool) {
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
	if want := min64(c.blockSize, key.ver-key.idx*c.blockSize); err != nil || int64(len(raw)) != want {
		// Evicted (or truncated) between lookup and read: treat as a miss.
		return nil, false
	}
	return raw, true
}

// admit inserts a fetched block, evicting least-recently-used blocks until
// it fits. Blocks larger than the whole budget are rejected (read-through
// still served them); a zero-or-negative budget rejects everything.
//
// Admission is idempotent per versioned key: the key and its budget are
// reserved under the lock before the (out-of-lock) disk write, so a racing
// admit of the same block — two readers whose flight leader failed, each
// fetching on its own — bails out before writing anything and the budget
// never counts the block twice, even transiently.
func (c *Cache) admit(key blockKey, block []byte) {
	n := int64(len(block))
	// Memory mode adopts the fetched slice outright: fetch's contract is a
	// freshly allocated buffer, and blocks are immutable once admitted, so
	// copying here would only double the fetch path's per-byte CPU cost.
	c.mu.Lock()
	if n > c.maxBytes {
		c.stats.Rejected++
		c.mu.Unlock()
		return
	}
	if _, dup := c.entries[key]; dup || c.admitting[key] {
		// Already resident, or a concurrent admit holds the reservation;
		// either way this copy would only double-count the block.
		c.mu.Unlock()
		return
	}
	for c.bytes+n > c.maxBytes && c.tail != nil {
		c.evictLocked(c.tail)
	}
	if c.bytes+n > c.maxBytes {
		c.stats.Rejected++
		c.mu.Unlock()
		return
	}
	c.bytes += n
	if c.dir == "" {
		e := &entry{key: key, size: n, data: block}
		c.entries[key] = e
		c.pushFront(e)
		c.stats.Admitted++
		c.mBytes.Set(c.bytes)
		c.mEntries.Set(int64(len(c.entries)))
		c.mu.Unlock()
		return
	}
	c.admitting[key] = true
	c.seq++
	path := filepath.Join(c.dir, fmt.Sprintf("b-%d", c.seq))
	c.mu.Unlock()

	werr := os.WriteFile(path, block, 0o644)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.admitting, key)
	if werr != nil {
		// Cache disk full etc.: release the reservation, stay a pass-through.
		c.bytes -= n
		c.mBytes.Set(c.bytes)
		return
	}
	e := &entry{key: key, size: n, path: path}
	c.entries[key] = e
	c.pushFront(e)
	c.stats.Admitted++
	c.mBytes.Set(c.bytes)
	c.mEntries.Set(int64(len(c.entries)))
}

// Invalidate drops every resident block of obj (all versions), freeing their
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
	c.bytes -= e.size
	c.stats.Evictions++
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

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
