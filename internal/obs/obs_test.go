package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCatalogWellFormed(t *testing.T) {
	for _, d := range Catalog {
		if !strings.HasPrefix(d.Name, "flor_") {
			t.Errorf("catalog name %q lacks flor_ prefix", d.Name)
		}
		if d.Help == "" {
			t.Errorf("catalog name %q has no help text", d.Name)
		}
		if d.Kind == KindCounter && !strings.HasSuffix(d.Name, "_total") {
			t.Errorf("counter %q should end in _total", d.Name)
		}
		if d.Kind != KindCounter && strings.HasSuffix(d.Name, "_total") {
			t.Errorf("%s %q must not end in _total", d.Kind, d.Name)
		}
	}
	if _, ok := Lookup(MServeQueries); !ok {
		t.Fatal("Lookup missed a catalog constant")
	}
	if _, ok := Lookup("flor_bogus_total"); ok {
		t.Fatal("Lookup accepted an uncataloged name")
	}
}

func TestNilHandlesNoOp(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(0.5)
	h.ObserveNs(123)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.BucketCounts() != nil {
		t.Fatal("nil handles must read as zero")
	}

	var r *Registry
	if r.Counter(MServeStoreEvictions) != nil {
		t.Fatal("nil registry must hand out nil counters")
	}
	if r.Gauge(MServeStoreOpen) != nil || r.Histogram(MServeQuerySeconds, L("kind", "replay")) != nil {
		t.Fatal("nil registry must hand out nil gauges/histograms")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledHandlesAllocFree is the CI guard behind the "no-op registry
// means no tier-1 regression" claim: the disabled path must not allocate.
func TestDisabledHandlesAllocFree(t *testing.T) {
	var c *Counter
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(7)
		h.ObserveNs(12345)
	})
	if allocs != 0 {
		t.Fatalf("disabled handles allocated %.1f times per op, want 0", allocs)
	}
	var r *Registry
	allocs = testing.AllocsPerRun(1000, func() {
		r.Counter(MServeStoreEvictions).Inc()
	})
	if allocs != 0 {
		t.Fatalf("nil-registry handle resolution allocated %.1f times, want 0", allocs)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(MStoreChunksWritten)
	g := r.Gauge(MSchedSlotsInUse)
	h := r.Histogram(MStoreShardAppendSeconds)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.002)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got, want := h.Sum(), 0.002*workers*perWorker; math.Abs(got-want) > 1e-6 {
		t.Fatalf("histogram sum = %g, want ~%g", got, want)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(MServeQuerySeconds, L("kind", "replay"))
	// Prometheus buckets are inclusive upper bounds: an observation exactly
	// on a bound lands in that bound's bucket.
	h.Observe(0.0001)  // == bounds[0]
	h.Observe(0.00011) // > bounds[0], <= bounds[1]
	h.Observe(10)      // == last bound
	h.Observe(11)      // beyond: +Inf bucket
	h.Observe(0)       // below everything: first bucket
	h.Observe(-1)      // negative: still first bucket
	counts := h.BucketCounts()
	if len(counts) != len(DurationBuckets)+1 {
		t.Fatalf("bucket count = %d, want %d", len(counts), len(DurationBuckets)+1)
	}
	if counts[0] != 3 {
		t.Errorf("bucket[0] = %d, want 3 (0, -1, and the exact bound)", counts[0])
	}
	if counts[1] != 1 {
		t.Errorf("bucket[1] = %d, want 1", counts[1])
	}
	if last := counts[len(counts)-2]; last != 1 {
		t.Errorf("last finite bucket = %d, want 1 (exactly 10s)", last)
	}
	if inf := counts[len(counts)-1]; inf != 1 {
		t.Errorf("+Inf bucket = %d, want 1", inf)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
}

func TestRegistryPanicsOffCatalog(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("uncataloged", func() { r.Counter("flor_not_in_catalog_total") })
	mustPanic("kind mismatch", func() { r.Gauge(MStoreChunksWritten) })
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(MStoreChunksWritten).Add(42)
	r.Gauge(MServeStoreOpen).Set(3)
	r.Counter(MServeQueries, L("run", "alpha"), L("kind", "replay")).Add(7)
	r.Counter(MServeQueries, L("run", "beta"), L("kind", "sample")).Inc()
	h := r.Histogram(MServeQuerySeconds, L("kind", "replay"))
	h.Observe(0.0002) // bucket le=0.00025
	h.Observe(0.3)    // bucket le=0.5
	h.Observe(99)     // +Inf

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	wantLines := []string{
		"# HELP flor_store_chunks_written_total Fresh chunks appended to packs.",
		"# TYPE flor_store_chunks_written_total counter",
		"flor_store_chunks_written_total 42",
		"# TYPE flor_serve_queries_total counter",
		`flor_serve_queries_total{kind="replay",run="alpha"} 7`,
		`flor_serve_queries_total{kind="sample",run="beta"} 1`,
		"# TYPE flor_serve_store_open gauge",
		"flor_serve_store_open 3",
		"# TYPE flor_serve_query_seconds histogram",
		`flor_serve_query_seconds_bucket{kind="replay",le="0.0001"} 0`,
		`flor_serve_query_seconds_bucket{kind="replay",le="0.00025"} 1`,
		`flor_serve_query_seconds_bucket{kind="replay",le="0.5"} 2`,
		`flor_serve_query_seconds_bucket{kind="replay",le="10"} 2`,
		`flor_serve_query_seconds_bucket{kind="replay",le="+Inf"} 3`,
		`flor_serve_query_seconds_sum{kind="replay"} 99.3002`,
		`flor_serve_query_seconds_count{kind="replay"} 3`,
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("scrape missing line %q\n---\n%s", want, out)
		}
	}

	// Families render in catalog order: store before serve.
	if strings.Index(out, "flor_store_chunks_written_total") > strings.Index(out, "flor_serve_queries_total") {
		t.Error("families not in catalog order")
	}
	// Every non-comment line parses as "name{labels} value" once any
	// OpenMetrics exemplar suffix (` # {...} value`) is stripped.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(MServeQuerySeconds, L("kind", "replay"))
	h.ObserveExemplar(0.0002, "t000001") // bucket le=0.00025
	h.ObserveNsExemplar(300_000_000, "t000002")
	h.ObserveExemplar(99, "t000003")        // +Inf bucket
	h.ObserveExemplar(0.0002, "")           // empty ID: counted, no exemplar change
	h.ObserveNsExemplar(250_000, "t000009") // same bucket as t000001: wins

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantLines := []string{
		`flor_serve_query_seconds_bucket{kind="replay",le="0.00025"} 3 # {trace_id="t000009"} 0.00025`,
		`flor_serve_query_seconds_bucket{kind="replay",le="0.5"} 4 # {trace_id="t000002"} 0.3`,
		`flor_serve_query_seconds_bucket{kind="replay",le="+Inf"} 5 # {trace_id="t000003"} 99`,
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("scrape missing exemplar line %q\n---\n%s", want, out)
		}
	}
	// Buckets without exemplars stay plain.
	if !strings.Contains(out, `flor_serve_query_seconds_bucket{kind="replay",le="0.0001"} 0`+"\n") {
		t.Errorf("un-exemplified bucket line changed\n---\n%s", out)
	}
	var nilH *Histogram
	nilH.ObserveExemplar(1, "t1") // must no-op
	nilH.ObserveNsExemplar(1, "t1")
}

func TestBackgroundTasks(t *testing.T) {
	resetTasksForTest()
	defer resetTasksForTest()

	a := BeginTask("gc")
	a.Trace().Add(Span{Name: "mark", StartNs: 0, DurNs: 5})
	recs := Tasks()
	if len(recs) != 1 || recs[0].Name != "gc" || recs[0].Done {
		t.Fatalf("active task not reported: %+v", recs)
	}
	a.Trace().Add(Span{Name: "sweep", StartNs: 5, DurNs: 7})
	a.End()
	a.End() // idempotent

	b := BeginTask("filler")
	b.End()

	recs = Tasks()
	if len(recs) != 2 {
		t.Fatalf("tasks = %d, want 2", len(recs))
	}
	// Completed, newest first.
	if recs[0].Name != "filler" || recs[1].Name != "gc" {
		t.Fatalf("order = %s, %s; want filler, gc", recs[0].Name, recs[1].Name)
	}
	if !recs[0].Done || !recs[1].Done {
		t.Fatal("completed tasks must report Done")
	}
	if len(recs[1].Spans) != 2 || recs[1].Spans[0].Name != "mark" {
		t.Fatalf("gc spans = %+v, want mark+sweep", recs[1].Spans)
	}
	if recs[1].DurNs <= 0 {
		t.Fatal("completed task must have positive duration")
	}

	// The ring is bounded.
	for i := 0; i < taskHistory+10; i++ {
		BeginTask("filler").End()
	}
	if got := len(Tasks()); got != taskHistory {
		t.Fatalf("ring length = %d, want %d", got, taskHistory)
	}

	var nilTask *ActiveTask
	nilTask.End()
	if nilTask.Trace() != nil {
		t.Fatal("nil task must hand out nil trace")
	}
}

func TestEnableDisableDefault(t *testing.T) {
	defer Disable()
	Disable()
	if Default() != nil {
		t.Fatal("Default should be nil while disabled")
	}
	if C(MStoreGCPasses) != nil {
		t.Fatal("C should resolve nil while disabled")
	}
	r1 := Enable()
	if r1 == nil || Default() != r1 {
		t.Fatal("Enable must install a live registry")
	}
	if Enable() != r1 {
		t.Fatal("Enable must be idempotent")
	}
	C(MStoreGCPasses).Inc()
	if got := r1.Counter(MStoreGCPasses).Value(); got != 1 {
		t.Fatalf("package-level counter = %d, want 1", got)
	}
	Disable()
	if Default() != nil {
		t.Fatal("Disable must clear the registry")
	}
}
