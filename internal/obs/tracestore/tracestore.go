// Package tracestore is the durable home for query traces. The serving
// layer's in-memory trace ring answers "what just happened"; this package
// answers "what happened before the restart" — the hindsight-logging promise
// applied to the system's own queries. Traces land as NDJSON entries in
// numbered segment files under a spill directory, governed by a head-sampling
// policy with an always-keep-slow bypass and size/age retention that prunes
// whole segments. A separate slow-query log keeps full span detail for every
// query over the caller's latency threshold, regardless of sampling.
//
// Durability model: appends go to the active segment and are made durable on
// segment roll and Close. A crash can tear the active segment's tail line;
// Open tolerates that by skipping unparsable lines and always starting a
// fresh segment, so a torn tail costs at most the last partially-written
// trace, never the store.
package tracestore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"flor.dev/flor/internal/obs"
)

// Options configures a Store. Zero values get defaults from fill.
type Options struct {
	// Dir is the spill directory (created if missing). Required.
	Dir string
	// MaxSegmentBytes rolls the active segment when it would exceed this
	// size (default 1 MiB).
	MaxSegmentBytes int64
	// MaxTotalBytes prunes oldest segments when the store exceeds this
	// size (default 16 MiB).
	MaxTotalBytes int64
	// MaxAge prunes segments whose newest entry is older than this
	// (0 = no age pruning).
	MaxAge time.Duration
	// SampleN head-samples non-slow traces: 1-in-N is kept (<= 1 keeps
	// all). Slow traces always bypass sampling.
	SampleN int
}

func (o Options) fill() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 1 << 20
	}
	if o.MaxTotalBytes <= 0 {
		o.MaxTotalBytes = 16 << 20
	}
	if o.SampleN < 1 {
		o.SampleN = 1
	}
	return o
}

// Entry is one persisted trace: identity, timing, and full span detail.
type Entry struct {
	TraceID     string     `json:"trace_id"`
	Run         string     `json:"run"`
	Kind        string     `json:"kind"`
	StartUnixNs int64      `json:"start_unix_ns"`
	DurNs       int64      `json:"dur_ns"`
	Slow        bool       `json:"slow,omitempty"`
	Spans       []obs.Span `json:"spans"`
}

// segment is one on-disk NDJSON file and the index keys it contributed.
type segment struct {
	path   string
	id     int
	size   int64
	newest int64 // max StartUnixNs seen, for age retention
	keys   []traceKey
}

// Store is a durable, size/age-bounded trace store. Safe for concurrent use.
type Store struct {
	opts Options

	mu      sync.Mutex
	segs    []*segment // oldest first; the last is the active segment
	w       *os.File   // active segment file
	index   map[traceKey]Entry
	lastSeq map[string]int
	total   int64
	nseen   int // head-sampling counter
	closed  bool

	slowPath string
	slowSize int64

	mAppends *obs.Counter
	mSampled *obs.Counter
	mPruned  *obs.Counter
	gBytes   *obs.Gauge
}

// traceKey identifies a persisted trace. Run and trace IDs are arbitrary
// strings, so no separator joining them into one string keeps every two
// pairs apart.
type traceKey struct{ run, traceID string }

// Open loads the segments under opts.Dir (tolerating a torn tail line from a
// crashed writer), starts a fresh active segment, and returns the store.
func Open(opts Options) (*Store, error) {
	opts = opts.fill()
	if opts.Dir == "" {
		return nil, fmt.Errorf("tracestore: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	s := &Store{
		opts:     opts,
		index:    map[traceKey]Entry{},
		lastSeq:  map[string]int{},
		slowPath: filepath.Join(opts.Dir, "slow.ndjson"),
		mAppends: obs.C(obs.MObsTraceStoreAppends),
		mSampled: obs.C(obs.MObsTraceStoreSampledOut),
		mPruned:  obs.C(obs.MObsTraceStorePruned),
		gBytes:   obs.G(obs.MObsTraceStoreBytes),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	if err := s.roll(); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(s.slowPath); err == nil {
		s.slowSize = fi.Size()
	}
	s.prune(time.Now())
	s.gBytes.Set(s.total)
	return s, nil
}

// load scans existing traces-*.ndjson segments into the index.
func (s *Store) load() error {
	names, err := filepath.Glob(filepath.Join(s.opts.Dir, "traces-*.ndjson"))
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		base := filepath.Base(path)
		idStr := strings.TrimSuffix(strings.TrimPrefix(base, "traces-"), ".ndjson")
		id, err := strconv.Atoi(idStr)
		if err != nil {
			continue // not one of ours
		}
		seg := &segment{path: path, id: id}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("tracestore: %w", err)
		}
		seg.size = int64(len(data))
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var e Entry
			if json.Unmarshal(line, &e) != nil {
				continue // torn tail from a crashed writer
			}
			s.absorb(seg, e)
		}
		s.segs = append(s.segs, seg)
		s.total += seg.size
	}
	return nil
}

// absorb indexes one loaded or appended entry under seg.
func (s *Store) absorb(seg *segment, e Entry) {
	k := traceKey{e.Run, e.TraceID}
	s.index[k] = e
	seg.keys = append(seg.keys, k)
	if e.StartUnixNs > seg.newest {
		seg.newest = e.StartUnixNs
	}
	if n, ok := parseSeq(e.TraceID); ok && n > s.lastSeq[e.Run] {
		s.lastSeq[e.Run] = n
	}
}

// parseSeq extracts the numeric sequence from a "t%06d" trace ID.
func parseSeq(traceID string) (int, bool) {
	if !strings.HasPrefix(traceID, "t") {
		return 0, false
	}
	n, err := strconv.Atoi(traceID[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// roll syncs and closes the active segment (if any) and opens the next one.
// Caller holds s.mu or is Open.
func (s *Store) roll() error {
	if s.w != nil {
		s.w.Sync()
		s.w.Close()
		s.w = nil
	}
	next := 0
	for _, seg := range s.segs {
		if seg.id >= next {
			next = seg.id + 1
		}
	}
	path := filepath.Join(s.opts.Dir, fmt.Sprintf("traces-%08d.ndjson", next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	s.w = f
	s.segs = append(s.segs, &segment{path: path, id: next})
	return nil
}

// prune drops oldest non-active segments while the store exceeds its size
// bound, then drops segments older than MaxAge. Caller holds s.mu or is
// Open.
func (s *Store) prune(now time.Time) {
	drop := func(i int) {
		seg := s.segs[i]
		os.Remove(seg.path)
		for _, k := range seg.keys {
			delete(s.index, k)
		}
		s.total -= seg.size
		s.segs = append(s.segs[:i], s.segs[i+1:]...)
		s.mPruned.Inc()
	}
	for s.total > s.opts.MaxTotalBytes && len(s.segs) > 1 {
		drop(0)
	}
	if s.opts.MaxAge > 0 {
		cutoff := now.Add(-s.opts.MaxAge).UnixNano()
		for len(s.segs) > 1 && s.segs[0].newest > 0 && s.segs[0].newest < cutoff {
			drop(0)
		}
	}
}

// Append persists one trace, subject to head sampling (slow traces always
// persist). It reports whether the entry was kept. Slow entries are also
// written to the slow-query log.
func (s *Store) Append(e Entry) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, fmt.Errorf("tracestore: closed")
	}
	if !e.Slow && s.opts.SampleN > 1 {
		s.nseen++
		if (s.nseen-1)%s.opts.SampleN != 0 {
			s.mSampled.Inc()
			return false, nil
		}
	}
	line, err := json.Marshal(e)
	if err != nil {
		return false, fmt.Errorf("tracestore: %w", err)
	}
	line = append(line, '\n')
	active := s.segs[len(s.segs)-1]
	if active.size > 0 && active.size+int64(len(line)) > s.opts.MaxSegmentBytes {
		if err := s.roll(); err != nil {
			return false, err
		}
		s.prune(time.Now())
		active = s.segs[len(s.segs)-1]
	}
	if _, err := s.w.Write(line); err != nil {
		return false, fmt.Errorf("tracestore: %w", err)
	}
	active.size += int64(len(line))
	s.total += int64(len(line))
	s.absorb(active, e)
	s.mAppends.Inc()
	s.gBytes.Set(s.total)
	if e.Slow {
		s.appendSlow(line)
	}
	return true, nil
}

// appendSlow writes one line to the slow-query log, rotating it to
// slow.ndjson.1 when it exceeds the segment size bound. Caller holds s.mu.
func (s *Store) appendSlow(line []byte) {
	if s.slowSize+int64(len(line)) > s.opts.MaxSegmentBytes {
		os.Rename(s.slowPath, s.slowPath+".1")
		s.slowSize = 0
	}
	f, err := os.OpenFile(s.slowPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	if n, err := f.Write(line); err == nil {
		s.slowSize += int64(n)
	}
	f.Close()
}

// Get returns the persisted trace for (run, traceID).
func (s *Store) Get(run, traceID string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[traceKey{run, traceID}]
	return e, ok
}

// LastSeq returns the highest numeric trace-ID sequence persisted for run
// (0 if none) — the serving layer seeds its ID counter from this so trace
// IDs stay unique across restarts.
func (s *Store) LastSeq(run string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq[run]
}

// Slow returns up to limit entries from the slow-query log, newest first.
func (s *Store) Slow(limit int) []Entry {
	s.mu.Lock()
	paths := []string{s.slowPath + ".1", s.slowPath}
	s.mu.Unlock()
	var out []Entry
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var e Entry
			if json.Unmarshal(sc.Bytes(), &e) == nil {
				out = append(out, e)
			}
		}
		f.Close()
	}
	// Files were read oldest-first; reverse for newest-first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Bytes returns the store's current on-disk segment footprint.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Close makes the active segment durable and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.w != nil {
		s.w.Sync()
		err := s.w.Close()
		s.w = nil
		return err
	}
	return nil
}
