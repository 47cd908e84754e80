package serve

import (
	"container/list"
	"sort"
	"sync"
	"time"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/store"
)

// cacheEntry is one hot store: the recording opened read-only (manifest and
// dedup index replayed once) plus the cross-query decoded-payload cache.
// Entries stay valid after eviction — in-flight queries holding one simply
// finish on it; eviction only stops new queries from finding it hot.
//
// For runs attached to a shared chunk pool, cache is the *pool's* payload
// cache, shared by every sibling run of the project: content is addressed
// by hash, so a backbone decoded for one run's replay serves its whole
// fine-tuning family.
//
// parks keeps, per probe, the programs of finished queries over this entry's
// store (replay.Park), paid for from cache's budget. They belong to the
// entry: eviction closes them and returns their bytes to the budget, which
// for a pool-attached run outlives the entry, and a refreshed store starts
// with empty parks, so no query reuses a program reading a superseded store.
type cacheEntry struct {
	runID    string
	poolRoot string // "" for private-pack runs
	rec      *replay.Recording
	cache    *backmat.PayloadCache

	openedAt  time.Time // when this entry entered the LRU
	lastTouch time.Time // last hit (guarded by storeCache.mu)

	parkMu  sync.Mutex
	parks   map[string]*replay.Park // by probe name
	evicted bool
}

// park returns the entry's park for a probe, nil once the entry is evicted.
func (e *cacheEntry) park(probe string) *replay.Park {
	e.parkMu.Lock()
	defer e.parkMu.Unlock()
	if e.evicted {
		return nil
	}
	pk, ok := e.parks[probe]
	if !ok {
		if e.parks == nil {
			e.parks = map[string]*replay.Park{}
		}
		pk = replay.NewPark(e.rec, e.cache)
		e.parks[probe] = pk
	}
	return pk
}

// closeParks closes every park of an entry leaving the LRU.
func (e *cacheEntry) closeParks() {
	e.parkMu.Lock()
	defer e.parkMu.Unlock()
	e.evicted = true
	for _, pk := range e.parks {
		pk.Close()
	}
	e.parks = nil
}

// storeCache is an LRU of open stores keyed by run ID, plus the per-pool
// payload caches that outlive individual entries.
type storeCache struct {
	mu         sync.Mutex
	cap        int
	cacheBytes int64
	entries    map[string]*list.Element // value: *cacheEntry
	lru        *list.List               // front = most recent
	// opening holds one channel per run whose store is being opened right
	// now; it is closed when the open finishes, either way. Concurrent first
	// queries of a run wait on it instead of opening the run again.
	opening map[string]chan struct{}
	onEvict func(runID string)
	// poolCaches keys shared payload caches by resolved pool root. Pool
	// caches are not evicted with their runs: the pool outlives any one
	// run's LRU residency, and its decoded content stays valid (content-
	// addressed, immutable by contract).
	poolCaches map[string]*backmat.PayloadCache

	hits      int64
	misses    int64
	evictions int64

	mEvictions *obs.Counter
	mOpen      *obs.Gauge
}

func newStoreCache(capacity int, cacheBytes int64, onEvict func(string)) *storeCache {
	return &storeCache{
		cap:        capacity,
		cacheBytes: cacheBytes,
		entries:    map[string]*list.Element{},
		lru:        list.New(),
		opening:    map[string]chan struct{}{},
		onEvict:    onEvict,
		poolCaches: map[string]*backmat.PayloadCache{},
		mEvictions: obs.C(obs.MServeStoreEvictions),
		mOpen:      obs.G(obs.MServeStoreOpen),
	}
}

// get returns the entry for runID, opening the store via load on a miss
// (the caller chooses the open path: pinned local roots, or the remote
// object backend) and evicting the least recently used entry beyond
// capacity. poolRoot selects the shared payload cache ("" = private).
//
// A run is opened by one caller at a time: whoever misses first loads, and
// callers arriving meanwhile wait for it and then take the hit. A miss is
// counted per load. If the load fails its caller gets the error and the
// waiters try again, one of them as the next loader.
func (c *storeCache) get(runID, poolRoot string, load func() (*replay.Recording, error)) (*cacheEntry, bool, error) {
	c.mu.Lock()
	for {
		if el, ok := c.entries[runID]; ok {
			c.lru.MoveToFront(el)
			c.hits++
			ent := el.Value.(*cacheEntry)
			ent.lastTouch = time.Now()
			c.mu.Unlock()
			return ent, true, nil
		}
		opened, ok := c.opening[runID]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-opened
		c.mu.Lock()
	}
	opened := make(chan struct{})
	c.opening[runID] = opened
	c.misses++
	c.mu.Unlock()

	// Load outside the lock: opening a cold store replays its manifest,
	// which must not block hits on other runs.
	rec, err := load()
	var ent *cacheEntry
	if err == nil {
		now := time.Now()
		ent = &cacheEntry{
			runID: runID, poolRoot: poolRoot, rec: rec,
			cache: c.payloadCache(poolRoot), openedAt: now, lastTouch: now,
		}
	}

	c.mu.Lock()
	delete(c.opening, runID)
	close(opened)
	var evicted []*cacheEntry
	if ent != nil {
		c.entries[runID] = c.lru.PushFront(ent)
		for c.lru.Len() > c.cap {
			last := c.lru.Back()
			old := last.Value.(*cacheEntry)
			c.lru.Remove(last)
			delete(c.entries, old.runID)
			c.evictions++
			c.mEvictions.Inc()
			evicted = append(evicted, old)
		}
		c.mOpen.Set(int64(c.lru.Len()))
	}
	hook := c.onEvict
	c.mu.Unlock()
	for _, old := range evicted {
		old.closeParks()
		if hook != nil {
			hook(old.runID)
		}
	}
	return ent, false, err
}

// payloadCache returns the decoded-payload cache for a store: per-run for
// private-pack stores, shared pool-wide for pooled ones.
func (c *storeCache) payloadCache(poolRoot string) *backmat.PayloadCache {
	if poolRoot == "" {
		return backmat.NewPayloadCache(c.cacheBytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if pc, ok := c.poolCaches[poolRoot]; ok {
		return pc
	}
	pc := backmat.NewPayloadCache(c.cacheBytes)
	c.poolCaches[poolRoot] = pc
	return pc
}

// drop removes runID's entry immediately, firing the eviction hook like LRU
// eviction does. The stale-store refresh path uses it: a cached read-only
// store that resolved chunk locations before a GC retired — and, past the
// grace period, deleted — their pack generation can only recover by
// reopening, so the server drops the entry and lets the next open resolve
// the surviving generation. In-flight queries holding the old entry finish
// on it like they do after an ordinary eviction.
func (c *storeCache) drop(runID string) {
	c.mu.Lock()
	el, ok := c.entries[runID]
	if ok {
		c.lru.Remove(el)
		delete(c.entries, runID)
		c.evictions++
		c.mEvictions.Inc()
		c.mOpen.Set(int64(c.lru.Len()))
	}
	hook := c.onEvict
	c.mu.Unlock()
	if !ok {
		return
	}
	el.Value.(*cacheEntry).closeParks()
	if hook != nil {
		hook(runID)
	}
}

// clear drops every entry (graceful shutdown: stop handing out stores),
// firing the eviction hook for each like normal LRU eviction does —
// embedders track open-store resources through it.
func (c *storeCache) clear() {
	c.mu.Lock()
	var evicted []string
	for id, el := range c.entries {
		evicted = append(evicted, id)
		el.Value.(*cacheEntry).closeParks()
	}
	c.entries = map[string]*list.Element{}
	c.lru = list.New()
	c.poolCaches = map[string]*backmat.PayloadCache{}
	c.evictions += int64(len(evicted))
	c.mEvictions.Add(int64(len(evicted)))
	c.mOpen.Set(0)
	hook := c.onEvict
	c.mu.Unlock()
	if hook != nil {
		sort.Strings(evicted)
		for _, id := range evicted {
			hook(id)
		}
	}
}

// contains reports whether runID is currently cached (no LRU touch).
func (c *storeCache) contains(runID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[runID]
	return ok
}

// poolStats reports the pool-wide accounting of the most recently used
// resident store attached to the pool at root, and why its leases could not
// be read (Store.PoolStats); ok is false when none is.
func (c *storeCache) poolStats(root string) (st store.PoolStats, ok bool, leaseErr error) {
	var resident *store.Store
	c.mu.Lock()
	for el := c.lru.Front(); el != nil && resident == nil; el = el.Next() {
		if ent := el.Value.(*cacheEntry); ent.poolRoot == root {
			resident = ent.rec.Store
		}
	}
	c.mu.Unlock()
	if resident == nil {
		return store.PoolStats{}, false, nil
	}
	return resident.PoolStats()
}

// StoreResidency describes one resident store's LRU tenure.
type StoreResidency struct {
	RunID string `json:"run_id"`
	// AgeSeconds is how long the store has been resident since it was
	// opened into the LRU.
	AgeSeconds float64 `json:"age_seconds"`
	// IdleSeconds is how long since the last query touched it.
	IdleSeconds float64 `json:"idle_seconds"`
}

// CacheStats is the open-store LRU accounting.
type CacheStats struct {
	Capacity  int   `json:"capacity"`
	Open      int   `json:"open"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Residency lists resident stores most-recently-used first, with their
	// time in cache and idle time.
	Residency []StoreResidency `json:"residency,omitempty"`
}

func (c *storeCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	st := CacheStats{
		Capacity:  c.cap,
		Open:      c.lru.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		st.Residency = append(st.Residency, StoreResidency{
			RunID:       ent.runID,
			AgeSeconds:  now.Sub(ent.openedAt).Seconds(),
			IdleSeconds: now.Sub(ent.lastTouch).Seconds(),
		})
	}
	return st
}

// payloadCacheStats snapshots every live decoded-payload cache: shared pool
// caches keyed by their pool root, private per-run caches keyed by run ID.
// Each snapshot is internally consistent (taken under the cache's own lock).
func (c *storeCache) payloadCacheStats() map[string]backmat.PayloadCacheStats {
	c.mu.Lock()
	pools := make(map[string]*backmat.PayloadCache, len(c.poolCaches))
	for root, pc := range c.poolCaches {
		pools[root] = pc
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		if ent.poolRoot == "" {
			pools[ent.runID] = ent.cache
		}
	}
	c.mu.Unlock()
	if len(pools) == 0 {
		return nil
	}
	out := make(map[string]backmat.PayloadCacheStats, len(pools))
	for key, pc := range pools {
		out[key] = pc.Stats()
	}
	return out
}
