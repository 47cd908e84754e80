package store

import (
	"sync"
	"sync/atomic"

	"flor.dev/flor/internal/obs"
)

// Package-wide prefetch accounting, mirrored into the obs counters. The
// totals sum over every Prefetcher the process ran, so the serving daemon's
// stats payload can report prefetch effectiveness without holding on to
// per-replay prefetchers.
var (
	prefetchIssued    atomic.Int64
	prefetchUsed      atomic.Int64
	prefetchWasted    atomic.Int64
	prefetchCancelled atomic.Int64
)

// PrefetchSnapshot is a point-in-time copy of the process's prefetch
// accounting. Issued counts encoded pack bytes pulled toward the cache tier
// ahead of any restore; used is the subset a restore later consumed; wasted
// is the subset no restore ever touched; cancelled counts plan bytes dropped
// before they were fetched (lease steals, shutdown).
type PrefetchSnapshot struct {
	IssuedBytes    int64 `json:"issued_bytes"`
	UsedBytes      int64 `json:"used_bytes"`
	WastedBytes    int64 `json:"wasted_bytes"`
	CancelledBytes int64 `json:"cancelled_bytes"`
}

// PrefetchTotals returns the process-wide prefetch accounting.
func PrefetchTotals() PrefetchSnapshot {
	return PrefetchSnapshot{
		IssuedBytes:    prefetchIssued.Load(),
		UsedBytes:      prefetchUsed.Load(),
		WastedBytes:    prefetchWasted.Load(),
		CancelledBytes: prefetchCancelled.Load(),
	}
}

// Hint lifecycle states.
const (
	hintQueued   = iota // waiting for a warm worker
	hintFetching        // a worker is warming its spans
	hintFetched         // warmed; waiting for a restore to claim it
)

// hintState tracks one hinted checkpoint key through the prefetch lifecycle.
type hintState struct {
	status    int
	bytes     int64 // encoded bytes warmed so far
	claimed   bool  // a restore reached the key (used once warming settles)
	cancelled bool  // the plan dropped the key (steal, shutdown)
}

// Prefetcher warms a remote-backed store's cache tier ahead of the restore
// front. Replay workers hint the checkpoint keys their lease horizon says
// they will restore next; background warm workers resolve each key's chunk
// spans and read them through the tiered backend — no decode, no section
// buffers — so the cache tier holds the blocks by the time the real restore
// asks for them (the block-level singleflight dedupes a warm racing the
// restore it serves). Hints for keys a steal took away are cancelled.
//
// A nil Prefetcher no-ops on every method, and NewPrefetcher returns nil for
// stores whose reads are local: the local path gains nothing from warming
// and must not pay even a goroutine for it.
type Prefetcher struct {
	s  *Store
	tr *obs.Trace

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Key
	state  map[Key]*hintState
	closed bool
	wg     sync.WaitGroup

	mIssued    *obs.Counter
	mUsed      *obs.Counter
	mWasted    *obs.Counter
	mCancelled *obs.Counter
}

// NewPrefetcher starts workers warm goroutines over the store's remote
// backend, emitting "prefetch" spans into tr (nil for untraced). It returns
// nil — a no-op prefetcher — when the store's backend is not remote-tiered.
// Callers must Close the prefetcher to stop the workers and settle the
// wasted-bytes accounting.
func (s *Store) NewPrefetcher(workers int, tr *obs.Trace) *Prefetcher {
	if s == nil {
		return nil
	}
	tb, ok := s.pool.backend.(TieredBackend)
	if !ok || !tb.RemoteReads() {
		return nil
	}
	if workers <= 0 {
		workers = 2
	}
	p := &Prefetcher{
		s:          s,
		tr:         tr,
		state:      map[Key]*hintState{},
		mIssued:    obs.C(obs.MStorePrefetchIssued),
		mUsed:      obs.C(obs.MStorePrefetchUsed),
		mWasted:    obs.C(obs.MStorePrefetchWasted),
		mCancelled: obs.C(obs.MStorePrefetchCancelled),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.run()
	}
	return p
}

// Hint enqueues checkpoint keys for warming. Keys already hinted (in any
// state) and keys without a committed checkpoint are ignored, so callers can
// re-hint their whole horizon every iteration without duplicating work.
func (p *Prefetcher) Hint(keys ...Key) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	added := false
	for _, k := range keys {
		if st, seen := p.state[k]; seen {
			// A steal cancelled this key and its new owner re-planned it:
			// revive the hint rather than let the stale cancellation starve
			// a span that is genuinely about to be restored.
			if st.cancelled && st.status != hintFetched {
				st.cancelled = false
			}
			continue
		}
		if !p.s.Has(k) {
			continue
		}
		p.state[k] = &hintState{status: hintQueued}
		p.queue = append(p.queue, k)
		added = true
	}
	if added {
		p.cond.Broadcast()
	}
}

// Claim tells the prefetcher the restore front reached key. A warmed hint's
// bytes count as used; a hint still queued is dropped silently (the restore
// fetches it itself — warming now would only duplicate the read); a hint
// mid-warm is marked so its bytes count as used when the warm settles.
func (p *Prefetcher) Claim(key Key) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[key]
	if !ok {
		return
	}
	switch st.status {
	case hintQueued:
		delete(p.state, key) // the queue skips keys with no state
	case hintFetching:
		st.claimed = true
	case hintFetched:
		p.mUsed.Add(st.bytes)
		prefetchUsed.Add(st.bytes)
		delete(p.state, key)
	}
}

// Cancel drops hints whose iterations the plan no longer owns (a stolen
// lease). Queued hints are sized and counted cancelled when a worker drains
// them; a hint mid-warm stops at its next span boundary and counts its
// unread remainder cancelled; warmed hints stay resident — the thief's
// restore may still hit the blocks, and Close settles them as used/wasted.
func (p *Prefetcher) Cancel(keys ...Key) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range keys {
		if st, ok := p.state[k]; ok && st.status != hintFetched {
			st.cancelled = true
		}
	}
}

// Close stops the warm workers, drains the remaining queue as cancelled
// hints, waits for every worker to exit (no goroutine outlives Close), and
// counts warmed-but-never-claimed bytes as wasted.
func (p *Prefetcher) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, st := range p.state {
		if st.status != hintFetched {
			st.cancelled = true
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	for k, st := range p.state {
		if st.status == hintFetched {
			if st.claimed {
				p.mUsed.Add(st.bytes)
				prefetchUsed.Add(st.bytes)
			} else {
				p.mWasted.Add(st.bytes)
				prefetchWasted.Add(st.bytes)
			}
		}
		delete(p.state, k)
	}
}

// Drain blocks until every hint enqueued so far has settled — warmed,
// dropped, or cancelled — the synchronous completion point for whole-run
// warming (flord's POST /v1/runs/{id}/warm). It returns immediately on a
// closed prefetcher; Close performs its own drain.
func (p *Prefetcher) Drain() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed {
		busy := len(p.queue) > 0
		if !busy {
			for _, st := range p.state {
				if st.status == hintFetching {
					busy = true
					break
				}
			}
		}
		if !busy {
			return
		}
		p.cond.Wait()
	}
}

// run is one warm worker: pop a hint, resolve its chunk spans, stream them
// through the tiered backend. Workers exit when the prefetcher closes and
// the queue (drained as cancellations) is empty.
func (p *Prefetcher) run() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		key := p.queue[0]
		p.queue = p.queue[1:]
		st, ok := p.state[key]
		if !ok || st.status != hintQueued {
			// Claimed (and dropped) or duplicated while queued. The skip can
			// empty the queue without a settle, so wake any Drain waiter.
			if len(p.queue) == 0 {
				p.cond.Broadcast()
			}
			p.mu.Unlock()
			continue
		}
		st.status = hintFetching
		cancelled := st.cancelled
		p.mu.Unlock()
		p.warm(key, st, cancelled)
	}
}

// warm resolves key's chunk locations and reads its coalesced spans through
// the backend so the cache tier admits their blocks. Sizing happens first so
// a cancelled hint still reports how many plan bytes it dropped; every
// failure is swallowed after dropping the hint — prefetch is speculation,
// and a real restore will surface any genuine fault with full context.
func (p *Prefetcher) warm(key Key, st *hintState, cancelled bool) {
	c, err := p.s.Resolve(key)
	if err != nil || !c.Sectioned() {
		p.drop(key)
		return
	}
	m, dir := c.m, c.dir
	pool := p.s.pool
	var jobs []chunkJob
	byShard := map[int][]int{}
	for i := range dir.Sections {
		for _, ref := range dir.Sections[i].Chunks {
			si := pool.shardOf(ref.Hash)
			byShard[si] = append(byShard[si], len(jobs))
			jobs = append(jobs, chunkJob{ref: ref})
		}
	}
	if len(jobs) == 0 {
		p.drop(key)
		return
	}
	if err := pool.resolve(jobs, byShard, m.Seq); err != nil {
		p.drop(key)
		return
	}
	var encTotal int64
	for i := range jobs {
		encTotal += int64(jobs[i].loc.EncLen)
	}
	if cancelled {
		p.settleCancelled(key, encTotal)
		return
	}

	// Speculation runs one read at a time per warm worker, stops at the
	// first run boundary after the hint is cancelled, and swallows failures.
	spanStart := p.tr.Now()
	issued, _ := pool.execute(jobs, byShard, 1, func() bool { return !p.hintDead(key) }, warmRun)

	p.mIssued.Add(issued)
	prefetchIssued.Add(issued)
	if p.tr != nil {
		p.tr.Add(obs.Span{Name: "prefetch", Worker: -1, StartNs: spanStart, DurNs: p.tr.Now() - spanStart,
			Attrs: map[string]int64{
				"exec":         int64(key.Exec),
				"issued_bytes": issued,
				"enc_bytes":    encTotal,
			}})
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if remainder := encTotal - issued; remainder > 0 && st.cancelled {
		p.mCancelled.Add(remainder)
		prefetchCancelled.Add(remainder)
	}
	st.bytes = issued
	st.status = hintFetched
	if st.claimed {
		p.mUsed.Add(issued)
		prefetchUsed.Add(issued)
		delete(p.state, key)
	}
	p.cond.Broadcast() // a hint settled; Drain waiters re-check
}

// hintDead reports whether key's hint was cancelled (steal, shutdown) — the
// signal to stop issuing its remaining spans.
func (p *Prefetcher) hintDead(key Key) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[key]
	return !ok || st.cancelled
}

// drop forgets a hint that cannot be warmed (missing, opaque, format v1,
// stale locations). Nothing is counted: no bytes were planned or issued.
func (p *Prefetcher) drop(key Key) {
	p.mu.Lock()
	delete(p.state, key)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// settleCancelled counts a sized, never-issued hint's plan bytes as
// cancelled and forgets it.
func (p *Prefetcher) settleCancelled(key Key, encBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mCancelled.Add(encBytes)
	prefetchCancelled.Add(encBytes)
	delete(p.state, key)
	p.cond.Broadcast()
}
