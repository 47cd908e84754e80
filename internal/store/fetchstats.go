package store

import "sync/atomic"

// Fetch tiers. Every chunk frame a restore touches is served by exactly one
// tier, so per-tier byte counts sum to the restore's encoded volume — the
// invariant the tier-attribution spans and the flor_store_fetch_* metrics
// rely on.
const (
	tierScatter      = iota // vectored preadv straight into the destination buffer
	tierRanged              // ranged read staged through an arena span
	tierCache               // payload-cache hit: chunks never read at all
	tierRemote              // ranged GET against a remote object store
	tierCacheTier           // local chunk-cache hit in front of a remote store
	tierSingleflight        // bytes shared from another query's in-flight GET
	numTiers
)

// tierTable is the one place a tier is spelled out: its metric label value,
// its span-attribute and JSON key prefix, and its FetchSnapshot fields.
// Everything per-tier — counters, snapshots, snapshot algebra, span
// attributes — loops over it.
var tierTable = [numTiers]struct {
	label string
	key   string
	field func(*FetchSnapshot) (bytes, frames *int64)
}{
	tierScatter:      {"scatter", "scatter", func(s *FetchSnapshot) (*int64, *int64) { return &s.ScatterBytes, &s.ScatterFrames }},
	tierRanged:       {"ranged", "ranged", func(s *FetchSnapshot) (*int64, *int64) { return &s.RangedBytes, &s.RangedFrames }},
	tierCache:        {"cache", "cache", func(s *FetchSnapshot) (*int64, *int64) { return &s.CacheBytes, &s.CacheFrames }},
	tierRemote:       {"remote", "remote", func(s *FetchSnapshot) (*int64, *int64) { return &s.RemoteBytes, &s.RemoteFrames }},
	tierCacheTier:    {"cache-tier", "cache_tier", func(s *FetchSnapshot) (*int64, *int64) { return &s.CacheTierBytes, &s.CacheTierFrames }},
	tierSingleflight: {"singleflight", "singleflight", func(s *FetchSnapshot) (*int64, *int64) { return &s.SingleflightBytes, &s.SingleflightFrames }},
}

// FetchStats accumulates per-tier fetch accounting for one observer — a
// query trace, a worker — across concurrent run reads. A nil *FetchStats
// no-ops, so the fetch path threads an optional observer without branching
// at call sites. Bytes are encoded pack bytes except for the cache tier,
// which counts the logical bytes a payload-cache hit avoided reading.
type FetchStats struct {
	bytes  [numTiers]atomic.Int64
	frames [numTiers]atomic.Int64
}

// note records frames frames totalling b bytes served by tier.
func (f *FetchStats) note(tier int, b, frames int64) {
	if f == nil {
		return
	}
	f.bytes[tier].Add(b)
	f.frames[tier].Add(frames)
}

// Snapshot returns the current per-tier totals (zero for nil).
func (f *FetchStats) Snapshot() FetchSnapshot {
	var s FetchSnapshot
	if f == nil {
		return s
	}
	for t := range tierTable {
		b, n := tierTable[t].field(&s)
		*b, *n = f.bytes[t].Load(), f.frames[t].Load()
	}
	return s
}

// FetchSnapshot is a point-in-time, plain-int copy of FetchStats — the form
// that travels in spans, worker reports, and query-cost summaries.
type FetchSnapshot struct {
	// MmapBytes and MmapFrames are always 0: the memory-mapped tier is gone,
	// and the fields remain only so the /v1 wire format keeps its keys.
	MmapBytes     int64 `json:"mmap_bytes"`
	MmapFrames    int64 `json:"mmap_frames"`
	ScatterBytes  int64 `json:"scatter_bytes"`
	ScatterFrames int64 `json:"scatter_frames"`
	RangedBytes   int64 `json:"ranged_bytes"`
	RangedFrames  int64 `json:"ranged_frames"`
	CacheBytes    int64 `json:"cache_bytes"`
	CacheFrames   int64 `json:"cache_frames"`
	// Remote, cache-tier, and singleflight attribution applies to
	// remote-backed stores only: remote counts encoded bytes that had to
	// travel a ranged GET this reader initiated, cache-tier counts encoded
	// bytes a local chunk-cache hit kept off the network, and singleflight
	// counts encoded bytes satisfied by waiting on another reader's
	// concurrent GET for the same block (one fetch fed several waiters).
	RemoteBytes        int64 `json:"remote_bytes"`
	RemoteFrames       int64 `json:"remote_frames"`
	CacheTierBytes     int64 `json:"cache_tier_bytes"`
	CacheTierFrames    int64 `json:"cache_tier_frames"`
	SingleflightBytes  int64 `json:"singleflight_bytes"`
	SingleflightFrames int64 `json:"singleflight_frames"`
}

// Each calls f once per fetch tier with the tier's key — the prefix of its
// span attributes and JSON fields ("scatter", "cache_tier", …) — and counts.
func (s FetchSnapshot) Each(f func(tier string, bytes, frames int64)) {
	for t := range tierTable {
		b, n := tierTable[t].field(&s)
		f(tierTable[t].key, *b, *n)
	}
}

// Sub returns the delta s - prev (both from the same FetchStats).
func (s FetchSnapshot) Sub(prev FetchSnapshot) FetchSnapshot {
	for t := range tierTable {
		b, n := tierTable[t].field(&s)
		pb, pn := tierTable[t].field(&prev)
		*b, *n = *b-*pb, *n-*pn
	}
	return s
}

// Add returns the element-wise sum s + o.
func (s FetchSnapshot) Add(o FetchSnapshot) FetchSnapshot {
	for t := range tierTable {
		b, n := tierTable[t].field(&s)
		ob, on := tierTable[t].field(&o)
		*b, *n = *b+*ob, *n+*on
	}
	return s
}

// TotalBytes returns the snapshot's byte total across all tiers.
func (s FetchSnapshot) TotalBytes() (total int64) {
	s.Each(func(_ string, b, _ int64) { total += b })
	return total
}

// TotalFrames returns the snapshot's frame total across all tiers.
func (s FetchSnapshot) TotalFrames() (total int64) {
	s.Each(func(_ string, _, n int64) { total += n })
	return total
}
