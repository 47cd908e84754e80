// Package backmat implements checkpoint materialization, including the four
// strategies compared in the paper's Figure 5.
//
// Materializing a checkpoint decomposes into three costs:
//
//	snapshot  — copying mutable state out from under the training loop
//	            (unavoidably on the training thread; the analogue of
//	            fork()'s copy-on-write page duplication)
//	serialize — encoding snapshots into bytes (≈4.3× the cost of I/O, §5.1)
//	write     — committing bytes to the checkpoint store
//
// The strategies differ in which of these block the training thread:
//
//	Baseline (cloudpickle):  snapshot + serialize + write on the caller
//	Queue (IPC-Queue):       snapshot + serialize on the caller; write behind
//	Plasma (IPC-Plasma):     capture on the caller, handed off per object;
//	                         write behind
//	Fork (the paper's):      capture on the caller, handed off per batched
//	                         bundle; write behind
//
// Fork and Plasma block the caller for nearly the same time; Fork's batching
// (one handoff per checkpoint instead of one per object) gives it the small
// edge the paper reports.
//
// Capture is snapshot and serialize fused into the one copy a checkpoint
// cannot avoid: the training thread encodes each value's live state
// (value.EncodeLive) straight into a section buffer the Materializer owns —
// one pass per tensor, no clone, nothing borrowed once Materialize
// returns. The copy budget of a Fork or Plasma checkpoint is
//
//	live state → section buffer (caller) → hash → staged frames → pack
//
// and its ownership rule: section buffers belong to the Materializer, in sets
// of one buffer per environment entry; a set is the caller's while it is
// being filled, the background worker's from hand-off until the store's
// put has returned, and free again after that — the store keeps no
// reference to section bytes past a put. There are two sets (bufferSets): the
// caller fills one while the worker writes the other, and waits for a free
// one when both are in the pipeline. The first two checkpoints allocate them,
// every later one overwrites them, and they die with the Materializer at
// Close.
//
// The arrows are taken only by bytes that changed. The set a capture fills
// still holds the checkpoint encoded into it two captures ago, and beside each
// buffer the chunk hashes the store took of it then. The encoder compares
// before it copies (codec.NewWriterInto), a store chunk at a time, and for
// every chunk it found already there capture offers the remembered hash to the
// put in place of hashing the chunk again (store.PutSectionsKnown). That is
// sound because the hash was taken from these bytes; every byte written over
// them since compared equal; and by the ownership rule nobody but capture
// writes a set. A frozen backbone is read once per checkpoint and neither
// copied nor hashed.
//
// Baseline and Queue keep the two-step form — Snapshot, then EncodeSections,
// both on the caller — because "the sender pickles" is what they exist to
// reproduce. The store chunks, frames and deduplicates sections
// (store.PutSections) wherever the write runs.
package backmat

import (
	"fmt"
	"sync"
	"time"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/value"
)

// Strategy selects a materialization implementation.
type Strategy int

// The four strategies of Figure 5. Fork — the paper's design and the
// default-on configuration — is the zero value, so a zero-valued options
// struct gets background materialization.
const (
	Fork Strategy = iota
	Baseline
	Queue
	Plasma
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case Queue:
		return "IPC-Queue"
	case Plasma:
		return "IPC-Plasma"
	case Fork:
		return "Fork"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// NamedValue pairs an environment variable name with its live value.
type NamedValue struct {
	Name string
	V    value.Value
}

// NamedPayload pairs a variable name with its snapshotted payload.
type NamedPayload struct {
	Name    string
	Payload value.Payload
}

// EncodeBundle serializes a checkpoint bundle: the side-effects of one loop
// execution, as (name, payload) pairs.
func EncodeBundle(items []NamedPayload) []byte {
	w := codec.NewWriter()
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.String(it.Name)
		value.EncodePayload(w, it.Payload)
	}
	return w.Bytes()
}

// EncodeSections serializes a checkpoint bundle as one section per entry,
// encoding entries in parallel across the ckptfmt worker pool, each into a
// fresh buffer sized once from its payload. Sections are the unit the
// format-v2 store chunks, frames, and deduplicates. Baseline and Queue encode
// their snapshots with it; Fork and Plasma never build the snapshots and
// encode live state into recycled buffers instead (Materializer.capture).
func EncodeSections(items []NamedPayload) []store.Section {
	secs := make([]store.Section, len(items))
	ckptfmt.ParallelDo(len(items), func(i int) {
		w := codec.NewWriter()
		w.Grow(items[i].Payload.SizeBytes() + sectionSlack)
		value.EncodePayload(w, items[i].Payload)
		secs[i] = store.Section{Name: items[i].Name, Data: w.Bytes()}
	})
	return secs
}

// sectionSlack is what a section's encoding may need beyond its value's
// SizeBytes estimate (the kind tag, counts, a shape prefix). Running past it
// costs one buffer growth, never correctness.
const sectionSlack = 32

// DecodeSections parses sections back into bundle items, decoding entries in
// parallel; the replay-side counterpart of EncodeSections.
func DecodeSections(secs []store.Section) ([]NamedPayload, error) {
	items := make([]NamedPayload, len(secs))
	errs := make([]error, len(secs))
	ckptfmt.ParallelDo(len(secs), func(i int) {
		p, err := value.DecodeTaggedPayload(codec.NewReader(secs[i].Data))
		if err != nil {
			errs[i] = fmt.Errorf("backmat: decode %q: %w", secs[i].Name, err)
			return
		}
		items[i] = NamedPayload{Name: secs[i].Name, Payload: p}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return items, nil
}

// DefaultPayloadCacheBytes bounds a PayloadCache: generous for the frozen
// backbones it exists to hold, small next to the training state itself.
const DefaultPayloadCacheBytes = 256 << 20

// PayloadCache memoizes decoded section payloads by content identity.
// Replay restores largely identical state epoch after epoch (frozen layers,
// datasets, configuration); since payloads are immutable by contract and
// every Value.Restore copies out of them, one decode per distinct content
// serves the whole run, shared by every worker of every query. A decoded
// payload views the section buffer it was decoded from, so admitting a
// payload takes that buffer over for good: it is the cache's from then on
// and no restore may write to it again (DecodeSectionsCached hands it over).
// The cache never evicts — once the byte budget is reached, new
// content simply stops being cached. That keeps Contains answers stable,
// which GetSections relies on when it skips loading content the cache has
// promised to serve (an evicting cache could break that promise between the
// skip decision and the decode).
type PayloadCache struct {
	mu   sync.Mutex
	cap  int64
	size int64
	m    map[ckptfmt.Hash]cachedPayload
	// seen implements two-touch admission: content is cached only on its
	// second appearance, so a stream of never-repeating checkpoints (a
	// fully mutating model) doesn't pin one-shot payloads in memory.
	seen map[ckptfmt.Hash]struct{}

	hits   int64
	misses int64
	admits int64

	mHits   *obs.Counter
	mMisses *obs.Counter
	mAdmits *obs.Counter
}

// PayloadCacheStats is a consistent snapshot of a cache's accounting.
type PayloadCacheStats struct {
	CapBytes  int64 `json:"cap_bytes"`
	SizeBytes int64 `json:"size_bytes"`
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Admits    int64 `json:"admits"`
}

// Stats returns a snapshot taken under the cache lock, so the counters are
// mutually consistent. Zero-valued for a nil cache.
func (c *PayloadCache) Stats() PayloadCacheStats {
	if c == nil {
		return PayloadCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PayloadCacheStats{
		CapBytes:  c.cap,
		SizeBytes: c.size,
		Entries:   len(c.m),
		Hits:      c.hits,
		Misses:    c.misses,
		Admits:    c.admits,
	}
}

type cachedPayload struct {
	p     value.Payload
	bytes int64
}

// seenLimit caps the admission-tracking set; when exceeded it resets, which
// merely delays admission of genuinely repeating content by one touch.
const seenLimit = 1 << 20

// NewPayloadCache returns a cache bounded to capBytes
// (DefaultPayloadCacheBytes when <= 0).
func NewPayloadCache(capBytes int64) *PayloadCache {
	if capBytes <= 0 {
		capBytes = DefaultPayloadCacheBytes
	}
	return &PayloadCache{
		cap: capBytes, m: map[ckptfmt.Hash]cachedPayload{}, seen: map[ckptfmt.Hash]struct{}{},
		mHits:   obs.C(obs.MReplayPayloadCacheHits),
		mMisses: obs.C(obs.MReplayPayloadCacheMisses),
		mAdmits: obs.C(obs.MReplayPayloadCacheAdmits),
	}
}

// Contains reports whether the cache holds a payload for the identity; it
// is the `have` callback for store.GetSections, letting the store skip
// loading content the cache will serve anyway.
func (c *PayloadCache) Contains(h ckptfmt.Hash) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[h]
	return ok
}

func (c *PayloadCache) get(h ckptfmt.Hash) (value.Payload, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[h]
	if ok {
		c.hits++
		c.mHits.Inc()
	} else {
		c.misses++
		c.mMisses.Inc()
	}
	return e.p, ok
}

// put offers a decoded payload and reports whether the cache admitted it —
// and with it took over the buffer the payload views.
func (c *PayloadCache) put(h ckptfmt.Hash, p value.Payload, bytes int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[h]; ok {
		return false
	}
	if _, ok := c.seen[h]; !ok {
		if len(c.seen) >= seenLimit {
			c.seen = map[ckptfmt.Hash]struct{}{}
		}
		c.seen[h] = struct{}{}
		return false
	}
	if c.size+bytes > c.cap {
		return false
	}
	c.m[h] = cachedPayload{p: p, bytes: bytes}
	c.size += bytes
	c.admits++
	c.mAdmits.Inc()
	return true
}

// DecodeSectionsCached parses sections into bundle items, serving sections
// the cache already holds without decoding (their Data may be nil when the
// store skipped loading them) and caching fresh decodes by content
// identity. A nil cache degrades to DecodeSections.
//
// Ownership: decoded payloads view secs[i].Data. A section buffer stays the
// caller's — to overwrite with its next restore once it is done with the
// returned items — unless the cache admitted the payload decoded from it:
// then the buffer is the cache's for good, and the call sets secs[i].Data to
// nil so the caller cannot offer it again. Payloads served from the cache
// view buffers admitted earlier and must be treated as read-only.
func DecodeSectionsCached(c *PayloadCache, secs []store.Section) ([]NamedPayload, error) {
	if c == nil {
		return DecodeSections(secs)
	}
	items := make([]NamedPayload, len(secs))
	errs := make([]error, len(secs))
	ckptfmt.ParallelDo(len(secs), func(i int) {
		var zero ckptfmt.Hash
		if secs[i].Hash != zero {
			if p, ok := c.get(secs[i].Hash); ok {
				items[i] = NamedPayload{Name: secs[i].Name, Payload: p}
				return
			}
		}
		if secs[i].Data == nil && secs[i].RawLen > 0 {
			errs[i] = fmt.Errorf("backmat: section %q skipped by store but absent from cache", secs[i].Name)
			return
		}
		p, err := value.DecodeTaggedPayload(codec.NewReader(secs[i].Data))
		if err != nil {
			errs[i] = fmt.Errorf("backmat: decode %q: %w", secs[i].Name, err)
			return
		}
		items[i] = NamedPayload{Name: secs[i].Name, Payload: p}
		if secs[i].Hash != zero && c.put(secs[i].Hash, p, int64(len(secs[i].Data))) {
			secs[i].Data = nil
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return items, nil
}

// BundleBytes reassembles sections into the monolithic bundle encoding —
// byte-identical to EncodeBundle of the same items, and to what Store.Get
// returns for a sectioned checkpoint. Nothing writes it any more; with
// EncodeBundle it is the reference encoding the capture tests compare against.
func BundleBytes(secs []store.Section) []byte {
	w := codec.NewWriter()
	w.Uvarint(uint64(len(secs)))
	for _, sec := range secs {
		w.String(sec.Name)
		w.RawAppend(sec.Data)
	}
	return w.Bytes()
}

// DecodeBundle parses a checkpoint bundle.
func DecodeBundle(b []byte) ([]NamedPayload, error) {
	r := codec.NewReader(b)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	items := make([]NamedPayload, 0, n)
	for i := uint64(0); i < n; i++ {
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		p, err := value.DecodeTaggedPayload(r)
		if err != nil {
			return nil, fmt.Errorf("backmat: decode %q: %w", name, err)
		}
		items = append(items, NamedPayload{Name: name, Payload: p})
	}
	return items, nil
}

// Stats aggregates materialization timings.
type Stats struct {
	Checkpoints int
	CallerNs    int64 // training-thread blocked time across all checkpoints
	SnapshotNs  int64 // subset of CallerNs spent copying state out of the live values
	// SerializeNs is encode time not already counted in SnapshotNs, wherever
	// it ran: Baseline's and Queue's EncodeSections. It is 0 for Fork and
	// Plasma, whose capture encodes while it copies — SnapshotNs holds it all.
	SerializeNs    int64
	WriteNs        int64 // store write time, wherever it ran
	BackgroundNs   int64 // work performed off the training thread
	BytesWritten   int64 // logical checkpoint payload bytes committed
	StoredBytes    int64 // bytes physically added to the store (post-dedup)
	MaxLiveWorkers int   // high-water mark of concurrent background tasks
}

// bufferSet is one of the materializer's section-buffer sets: a buffer per
// environment entry and, parallel to them, the chunk hashes the store took of
// each at the set's last put plus capture's claims for its next.
type bufferSet struct {
	secs  []store.Section
	known []store.KnownChunks
}

// task is one checkpoint on its way to the store: encoded sections plus the
// timings the store records beside them.
type task struct {
	key store.Key
	bufferSet
	// recycle marks the sections as one of the materializer's own buffer
	// sets, to go back to m.free once the put has returned. Baseline's and
	// Queue's are fresh every time and have nothing known.
	recycle  bool
	snapNs   int64
	serNs    int64
	computNs int64
}

// Materializer writes checkpoint bundles to a store under a chosen strategy.
// Materialize, Drain and Close may be called only from the single training
// thread; background work is drained by Drain or Close.
type Materializer struct {
	strategy Strategy
	st       *store.Store

	mu       sync.Mutex
	stats    Stats
	firstEr  error
	live     int
	observer func(*store.Meta)

	// tasks feeds the background worker, which exists only between the first
	// hand-off and the next Drain or Close: a materializer that never
	// materializes (an adaptive recording that skips every checkpoint) costs
	// no goroutine.
	tasks chan task
	wg    sync.WaitGroup

	// free holds the section-buffer sets not in use (see the package comment
	// for who owns a set when). It starts full of empty sets, so the first
	// captures allocate and every later one overwrites.
	free chan bufferSet

	// plasma counts per-object handoffs back into bundles keyed by
	// checkpoint.
	plasmaMu      sync.Mutex
	plasmaPending map[store.Key]*plasmaBundle
}

type plasmaBundle struct {
	got, expect int
}

// inFlight bounds queued background work; the paper reports "never more than
// two live children", which this backpressure reproduces.
const inFlight = 2

// bufferSets is how many section-buffer sets a materializer owns: two, the
// paper's two live children again, each holding one copy of the state. While
// one set is being written the caller fills the other, so the writer never
// waits for the caller as long as a capture is quicker than a write; a
// third or fourth set was measured to buy no throughput on a write-bound
// recording and to cost its size in resident memory. With both sets in the
// pipeline the caller waits for one, as it waits on a full tasks queue under
// Queue.
const bufferSets = inFlight

// New constructs a materializer over st.
func New(st *store.Store, strategy Strategy) *Materializer {
	m := &Materializer{
		strategy:      strategy,
		st:            st,
		free:          emptySets(),
		plasmaPending: map[store.Key]*plasmaBundle{},
	}
	return m
}

// emptySets is the free list of a materializer that owns no buffers yet.
func emptySets() chan bufferSet {
	free := make(chan bufferSet, bufferSets)
	for i := 0; i < bufferSets; i++ {
		free <- bufferSet{}
	}
	return free
}

// Strategy returns the configured strategy.
func (m *Materializer) Strategy() Strategy { return m.strategy }

// SetObserver registers a callback invoked (from the background worker)
// after each checkpoint commits. Adaptive checkpointing uses this to refine
// its materialization-cost estimates from observed timings.
func (m *Materializer) SetObserver(f func(*store.Meta)) {
	m.mu.Lock()
	m.observer = f
	m.mu.Unlock()
}

// handOff queues t for the background worker, starting the worker if none is
// running; it blocks while inFlight tasks are already queued.
func (m *Materializer) handOff(t task) {
	if m.tasks == nil {
		m.tasks = make(chan task, inFlight)
		m.wg.Add(1)
		go m.worker(m.tasks)
	}
	m.tasks <- t
}

func (m *Materializer) worker(tasks <-chan task) {
	defer m.wg.Done()
	for t := range tasks {
		m.mu.Lock()
		m.live++
		if m.live > m.stats.MaxLiveWorkers {
			m.stats.MaxLiveWorkers = m.live
		}
		m.mu.Unlock()

		begin := time.Now()
		m.finish(t)
		bg := time.Since(begin).Nanoseconds()

		m.mu.Lock()
		m.live--
		m.stats.BackgroundNs += bg
		m.mu.Unlock()
	}
}

// finish writes one checkpoint's sections to the store and settles its
// accounts: the first error is latched for Drain and Close, the write is
// timed, and the observer sees the committed meta. It runs on the background
// worker, or on the caller for Baseline. Whatever the put's outcome, a
// recycled buffer set is free again when it returns — a failed write must not
// strand the set the next capture is waiting for.
func (m *Materializer) finish(t task) {
	w0 := time.Now()
	meta, err := m.st.PutSectionsKnown(t.key, t.secs, t.known, t.snapNs, t.serNs, t.computNs)
	writeNs := time.Since(w0).Nanoseconds()
	if t.recycle {
		m.free <- t.bufferSet
	}

	m.mu.Lock()
	if err != nil && m.firstEr == nil {
		m.firstEr = err
	}
	m.stats.SerializeNs += t.serNs
	m.stats.WriteNs += writeNs
	if err == nil {
		m.stats.BytesWritten += meta.Size
		m.stats.StoredBytes += meta.StoredBytes
	}
	observe := m.observer
	m.mu.Unlock()
	if err == nil && observe != nil {
		observe(meta)
	}
}

// capture encodes the live state of vals into set, a buffer set taken from
// m.free, one section per value, on the calling (training) thread: the
// checkpoint's one pass over its state. Each value is borrowed only for its
// own encode, so nothing of vals is referenced once capture returns, and the
// caller may mutate them at once. The returned set is the caller's until it
// hands it to finish.
//
// capture is the only writer a set ever has, which is what lets it vouch for
// chunks: where the encoder found a store chunk of the buffer already holding
// exactly what it was about to write, and the buffer is still the same
// variable's, the hash the store took of that chunk at the set's last put is
// offered to the next one. Everything else — a changed chunk, a grown buffer, a
// stream that ends elsewhere, a renamed entry — is hashed afresh.
func capture(vals []NamedValue, set bufferSet) bufferSet {
	set.secs, set.known = resize(set.secs, len(vals)), resize(set.known, len(vals))
	for i, nv := range vals {
		w := codec.NewWriterInto(set.secs[i].Data, ckptfmt.DefaultChunkSize)
		w.Grow(nv.V.SizeBytes() + sectionSlack)
		value.EncodeLive(w, nv.V)
		set.known[i].Clean = nil
		if set.secs[i].Name == nv.Name {
			set.known[i].Clean = w.Clean()
		}
		set.secs[i] = store.Section{Name: nv.Name, Data: w.Bytes()}
	}
	return set
}

// resize returns s with length n, keeping what its backing array holds — a set
// that shrinks and grows back finds its buffers again — and extending it with
// zero values past its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// snapshotAndEncode is Baseline's and Queue's caller-side work, the
// two-step form Figure 5 measures them by: deep-copy every value, then
// encode the copies.
func snapshotAndEncode(vals []NamedValue) (secs []store.Section, snapNs, serNs int64) {
	s0 := time.Now()
	items := make([]NamedPayload, len(vals))
	for i, nv := range vals {
		items[i] = NamedPayload{Name: nv.Name, Payload: nv.V.Snapshot()}
	}
	snapNs = time.Since(s0).Nanoseconds()
	e0 := time.Now()
	secs = EncodeSections(items)
	return secs, snapNs, time.Since(e0).Nanoseconds()
}

// Materialize checkpoints the given values under key. computNs is the
// observed computation time of the loop execution being memoized; it is
// stored alongside for adaptive checkpointing and the benchmark harness.
// The returned duration is the time the caller (training thread) was
// blocked. vals are read only until Materialize returns: whatever the
// strategy, the checkpoint is the state at the call, and the caller is free
// to mutate every value the moment it has the duration.
func (m *Materializer) Materialize(key store.Key, vals []NamedValue, computNs int64) time.Duration {
	begin := time.Now()
	t := task{key: key, computNs: computNs}

	// Copying state out on the caller: every strategy pays this (fork pays it
	// as copy-on-write page duplication; pickle-based strategies pay it as
	// part of serialization — accounted identically here for comparability).
	switch m.strategy {
	case Baseline, Queue:
		t.secs, t.snapNs, t.serNs = snapshotAndEncode(vals)
	case Plasma, Fork:
		set := <-m.free // backpressure: blocks while every set is in the pipeline
		s0 := time.Now()
		t.bufferSet, t.recycle = capture(vals, set), true
		t.snapNs = time.Since(s0).Nanoseconds()
	}

	switch m.strategy {
	case Baseline:
		// Write inline too.
		m.finish(t)

	case Queue, Fork:
		// One handoff for the whole batched bundle; the write happens in the
		// child (Queue has pickled on the sending process, Fork has only
		// copied).
		m.handOff(t)

	case Plasma:
		// Hand off object by object: each put into the "object store" is a
		// separate synchronization, like plasma_client.put per array.
		m.plasmaMu.Lock()
		m.plasmaPending[key] = &plasmaBundle{expect: len(t.secs)}
		m.plasmaMu.Unlock()
		for range t.secs {
			m.plasmaPut(t)
		}
	}

	caller := time.Since(begin)
	m.mu.Lock()
	m.stats.Checkpoints++
	m.stats.CallerNs += caller.Nanoseconds()
	m.stats.SnapshotNs += t.snapNs
	m.mu.Unlock()
	return caller
}

// plasmaPut delivers one object of t's bundle; the last one hands the
// complete bundle off.
func (m *Materializer) plasmaPut(t task) {
	m.plasmaMu.Lock()
	pb := m.plasmaPending[t.key]
	pb.got++
	done := pb.got == pb.expect
	if done {
		delete(m.plasmaPending, t.key)
	}
	m.plasmaMu.Unlock()
	if done {
		m.handOff(t)
	}
}

// Drain blocks until all queued background work has been committed, and
// returns the first background error, if any. The worker it waited for is
// gone afterwards; the next hand-off starts another.
func (m *Materializer) Drain() error {
	if m.tasks != nil {
		close(m.tasks)
		m.wg.Wait()
		m.tasks = nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firstEr
}

// Close drains background work and shuts the materializer down, giving up
// its section buffers. On a materializer that never materialized it is a
// no-op returning nil.
func (m *Materializer) Close() error {
	err := m.Drain()
	m.free = emptySets()
	return err
}

// Stats returns a copy of the accumulated statistics.
func (m *Materializer) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
