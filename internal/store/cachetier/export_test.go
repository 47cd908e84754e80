package cachetier

// SetPut routes every buffer the cache gives back through f instead of the
// arena, and returns a function restoring the arena. Callers must not run it
// concurrently with cache use.
func SetPut(f func([]byte)) (restore func()) {
	old := put
	put = f
	return func() { put = old }
}

// EvictAll evicts every resident extent through the path LRU eviction
// takes: the cache drops its references, and readers keep theirs.
func EvictAll(c *Cache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.tail != nil {
		c.evictLocked(c.tail)
	}
}
