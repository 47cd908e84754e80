// Package obs is the repo's observability layer: a dependency-free metrics
// registry (counters, gauges, fixed-bucket histograms), a lightweight span
// tracer, and a leveled structured logger. Every other layer — store, sched,
// replay, serve — instruments itself through this package; flord exposes the
// registry as a Prometheus-text /metrics endpoint and per-replay traces as
// NDJSON (docs/OBSERVABILITY.md is the operator-facing catalog).
//
// # Cost model
//
// Instrumentation must be free when nobody is watching: the package-level
// registry defaults to *disabled*, in which state every handle getter (C, G,
// H) returns a typed nil and every method on a nil handle is a single
// predictable branch — no allocation, no atomics, no locks. Hot paths
// resolve handles once at construction time (a pool's counters in NewPool, a
// cache's in NewPayloadCache) and pay only an atomic add per event when the
// registry is live. Enable installs a live registry process-wide;
// TestDisabledHandlesAllocFree pins the disabled-path claim.
//
// # Names
//
// Metric names are closed-world: the getters panic on a name missing from
// the catalog (names.go), so the catalog, the docs, and the scrape cannot
// drift apart. The CI obs lane additionally rejects flor_* string literals
// outside this package — call sites must use the catalog constants.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing int64. The nil counter (disabled
// registry) no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only rise).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 that can go up and down. The nil gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DurationBuckets are the fixed histogram bucket upper bounds, in seconds:
// 100µs to 10s in a 1-2.5-5 ladder. One shared ladder keeps every latency
// histogram comparable and the scrape format stable; observations beyond the
// last bound land in the implicit +Inf bucket.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Exemplar is one sampled observation attached to a histogram bucket — the
// trace ID of a real query that landed there, so an operator can jump from a
// latency bucket straight to the span-level trace that explains it.
type Exemplar struct {
	TraceID string
	Value   float64
}

// Histogram is a fixed-bucket histogram of float64 observations (seconds, by
// convention — use ObserveNs for durations). The nil histogram no-ops.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	// exemplars holds the most recent exemplar-carrying observation per
	// bucket (last write wins; nil entries for buckets never exemplified).
	exemplars []atomic.Pointer[Exemplar]
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.bucketOf(v)
}

// bucketOf records one observation and returns the bucket index it fell in.
func (h *Histogram) bucketOf(v float64) int {
	// Buckets are few and sorted; linear probe beats binary search at this
	// size and is branch-predictable for clustered latencies.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return i
		}
	}
}

// ObserveExemplar records one observation and attaches traceID as the
// landing bucket's exemplar (rendered OpenMetrics-style in the scrape), so
// each latency bucket names a recent trace that explains it. An empty
// traceID degrades to Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := h.bucketOf(v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// ObserveNsExemplar is ObserveExemplar for a duration in nanoseconds.
func (h *Histogram) ObserveNsExemplar(ns int64, traceID string) {
	if h == nil {
		return
	}
	h.ObserveExemplar(float64(ns)/1e9, traceID)
}

// ObserveNs records a duration given in nanoseconds.
func (h *Histogram) ObserveNs(ns int64) {
	if h == nil {
		return
	}
	h.Observe(float64(ns) / 1e9)
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket. Nil for a nil histogram.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// metric is one registered (name, labels) instance.
type metric struct {
	labelKey string // canonical `k="v",...` serialization, "" when unlabeled
	c        *Counter
	g        *Gauge
	h        *Histogram
}

// family groups a catalog name's label variants.
type family struct {
	def     Def
	order   []string // label keys in registration order (scrape stability)
	metrics map[string]*metric
}

// Registry holds live metrics. The zero value is not usable — construct with
// NewRegistry (or Enable for the package default). A nil *Registry is the
// disabled state: its getters return nil handles.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty live registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey canonicalizes labels (sorted by key) for identity and scraping.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString("=\"")
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteString("\"")
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the (name, labels) metric, validating the name
// against the catalog and the kind against the catalog row.
func (r *Registry) lookup(name string, kind Kind, labels []Label) *metric {
	def, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not in the catalog (internal/obs/names.go)", name))
	}
	if def.Kind != kind {
		panic(fmt.Sprintf("obs: metric %q is a %s, requested as %s", name, def.Kind, kind))
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{def: def, metrics: map[string]*metric{}}
		r.families[name] = f
	}
	m := f.metrics[key]
	if m == nil {
		m = &metric{labelKey: key}
		switch kind {
		case KindCounter:
			m.c = &Counter{}
		case KindGauge:
			m.g = &Gauge{}
		case KindHistogram:
			m.h = &Histogram{
				bounds:    DurationBuckets,
				counts:    make([]atomic.Int64, len(DurationBuckets)+1),
				exemplars: make([]atomic.Pointer[Exemplar], len(DurationBuckets)+1),
			}
		}
		f.metrics[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter returns the counter for (name, labels), creating it on first use.
// Returns nil (a no-op handle) on a nil registry; panics on a name missing
// from the catalog.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindCounter, labels).c
}

// Gauge returns the gauge for (name, labels); nil-registry semantics as
// Counter.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindGauge, labels).g
}

// Histogram returns the histogram for (name, labels); nil-registry semantics
// as Counter.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindHistogram, labels).h
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families in catalog order, label variants in
// registration order, histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "# obs: registry disabled\n")
		return err
	}
	// Snapshot the family table, then render without the registry lock:
	// atomic reads tolerate concurrent updates, and a slow scrape reader
	// must not stall registration.
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, d := range Catalog {
		if f, ok := r.families[d.Name]; ok {
			fams = append(fams, f)
		}
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.def.Name, f.def.Help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.def.Name, f.def.Kind)
		for _, key := range f.order {
			m := f.metrics[key]
			switch f.def.Kind {
			case KindCounter:
				writeSample(&b, f.def.Name, "", key, "", strconv.FormatInt(m.c.Value(), 10))
			case KindGauge:
				writeSample(&b, f.def.Name, "", key, "", strconv.FormatInt(m.g.Value(), 10))
			case KindHistogram:
				var cum int64
				counts := m.h.BucketCounts()
				for i, bound := range m.h.bounds {
					cum += counts[i]
					writeBucket(&b, f.def.Name, key,
						`le="`+formatFloat(bound)+`"`, strconv.FormatInt(cum, 10), m.h.exemplar(i))
				}
				writeBucket(&b, f.def.Name, key, `le="+Inf"`,
					strconv.FormatInt(m.h.Count(), 10), m.h.exemplar(len(m.h.bounds)))
				writeSample(&b, f.def.Name, "_sum", key, "", formatFloat(m.h.Sum()))
				writeSample(&b, f.def.Name, "_count", key, "", strconv.FormatInt(m.h.Count(), 10))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// exemplar returns bucket i's exemplar, nil if none was ever attached.
func (h *Histogram) exemplar(i int) *Exemplar {
	if h == nil || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// writeBucket emits one cumulative `_bucket` line, appending the bucket's
// exemplar as an OpenMetrics-style ` # {trace_id="..."} value` suffix when
// one exists. Plain-text Prometheus parsers that stop at `#` still read the
// sample correctly; OpenMetrics-aware ones pick up the trace link.
func writeBucket(b *strings.Builder, name, labels, le, value string, ex *Exemplar) {
	b.WriteString(name)
	b.WriteString("_bucket{")
	b.WriteString(labels)
	if labels != "" {
		b.WriteByte(',')
	}
	b.WriteString(le)
	b.WriteString("} ")
	b.WriteString(value)
	if ex != nil {
		b.WriteString(` # {trace_id="`)
		b.WriteString(escapeLabelValue(ex.TraceID))
		b.WriteString(`"} `)
		b.WriteString(formatFloat(ex.Value))
	}
	b.WriteByte('\n')
}

// writeSample emits one `name_suffix{labels,extra} value` line.
func writeSample(b *strings.Builder, name, suffix, labels, extra, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// def is the package-level registry: nil while disabled (the default).
var def atomic.Pointer[Registry]

// Enable installs a live package-level registry (keeping the current one if
// already enabled) and returns it. Call it once at daemon startup, before
// constructing the components to be observed: handles are resolved at
// construction time, so components built while disabled stay dark.
func Enable() *Registry {
	for {
		if r := def.Load(); r != nil {
			return r
		}
		if def.CompareAndSwap(nil, NewRegistry()) {
			return def.Load()
		}
	}
}

// Disable removes the package-level registry: subsequently resolved handles
// are nil and no-op. Existing handles keep counting into the orphaned
// registry, which is no longer scrapable.
func Disable() { def.Store(nil) }

// Default returns the package-level registry, nil while disabled.
func Default() *Registry { return def.Load() }

// C resolves a counter from the package-level registry (nil when disabled).
func C(name string, labels ...Label) *Counter { return Default().Counter(name, labels...) }

// G resolves a gauge from the package-level registry (nil when disabled).
func G(name string, labels ...Label) *Gauge { return Default().Gauge(name, labels...) }

// H resolves a histogram from the package-level registry (nil when
// disabled).
func H(name string, labels ...Label) *Histogram { return Default().Histogram(name, labels...) }
