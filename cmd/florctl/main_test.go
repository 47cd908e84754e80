package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store"
)

// scrapeA and scrapeB mimic two flord daemons' /metrics output, including
// trace-ID exemplars on histogram buckets, a series only one daemon knows
// (run "beta"), and a family only the second daemon reports.
const scrapeA = `# HELP flor_serve_queries_total Queries served, by run and kind.
# TYPE flor_serve_queries_total counter
flor_serve_queries_total{kind="replay",run="alpha"} 3
flor_serve_queries_total{kind="sample",run="alpha"} 1
# HELP flor_serve_inflight In-flight queries per run.
# TYPE flor_serve_inflight gauge
flor_serve_inflight{run="alpha"} 1
# HELP flor_serve_query_seconds Query wall time by kind.
# TYPE flor_serve_query_seconds histogram
flor_serve_query_seconds_bucket{kind="replay",le="0.001"} 1 # {trace_id="t000002"} 0.0009
flor_serve_query_seconds_bucket{kind="replay",le="+Inf"} 3 # {trace_id="t000003"} 1.5
flor_serve_query_seconds_sum{kind="replay"} 2.25
flor_serve_query_seconds_count{kind="replay"} 3
`

const scrapeB = `# HELP flor_serve_queries_total Queries served, by run and kind.
# TYPE flor_serve_queries_total counter
flor_serve_queries_total{kind="replay",run="alpha"} 2
flor_serve_queries_total{kind="replay",run="beta"} 5
# HELP flor_serve_inflight In-flight queries per run.
# TYPE flor_serve_inflight gauge
flor_serve_inflight{run="alpha"} 2
# HELP flor_serve_query_seconds Query wall time by kind.
# TYPE flor_serve_query_seconds histogram
flor_serve_query_seconds_bucket{kind="replay",le="0.001"} 2
flor_serve_query_seconds_bucket{kind="replay",le="+Inf"} 4
flor_serve_query_seconds_sum{kind="replay"} 0.5
flor_serve_query_seconds_count{kind="replay"} 4
# HELP flor_store_gc_passes_total Garbage-collection passes.
# TYPE flor_store_gc_passes_total counter
flor_store_gc_passes_total 1
`

// goldenMerged pins the merged document: counters and gauges summed,
// histogram buckets merged bucket-wise, exemplars stripped, family and
// series order from the first target with later-only series appended within
// their family.
const goldenMerged = `# HELP flor_serve_queries_total Queries served, by run and kind.
# TYPE flor_serve_queries_total counter
flor_serve_queries_total{kind="replay",run="alpha"} 5
flor_serve_queries_total{kind="sample",run="alpha"} 1
flor_serve_queries_total{kind="replay",run="beta"} 5
# HELP flor_serve_inflight In-flight queries per run.
# TYPE flor_serve_inflight gauge
flor_serve_inflight{run="alpha"} 3
# HELP flor_serve_query_seconds Query wall time by kind.
# TYPE flor_serve_query_seconds histogram
flor_serve_query_seconds_bucket{kind="replay",le="0.001"} 3
flor_serve_query_seconds_bucket{kind="replay",le="+Inf"} 7
flor_serve_query_seconds_sum{kind="replay"} 2.75
flor_serve_query_seconds_count{kind="replay"} 7
# HELP flor_store_gc_passes_total Garbage-collection passes.
# TYPE flor_store_gc_passes_total counter
flor_store_gc_passes_total 1
`

func metricsServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestScrapeMergeGolden is the CI golden for `florctl scrape`: two daemons'
// scrapes merge into exactly this document.
func TestScrapeMergeGolden(t *testing.T) {
	a := metricsServer(t, scrapeA)
	b := metricsServer(t, scrapeB)

	var out bytes.Buffer
	if err := runScrape(a.Client(), []string{a.URL, b.URL}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != goldenMerged {
		t.Errorf("merged scrape mismatch:\n--- got ---\n%s--- want ---\n%s", got, goldenMerged)
	}

	// The merge is order-sensitive only in presentation: swapping targets
	// reorders series but preserves every merged value.
	var swapped bytes.Buffer
	if err := runScrape(a.Client(), []string{b.URL, a.URL}, &swapped); err != nil {
		t.Fatal(err)
	}
	wantLines := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(goldenMerged), "\n") {
		wantLines[l] = true
	}
	for _, l := range strings.Split(strings.TrimSpace(swapped.String()), "\n") {
		if !wantLines[l] {
			t.Errorf("swapped merge produced unexpected line %q", l)
		}
	}
}

// TestScrapeUnreachableTarget checks a half-down fleet still renders the
// reachable targets' merge while the command reports failure.
func TestScrapeUnreachableTarget(t *testing.T) {
	a := metricsServer(t, scrapeA)
	var out bytes.Buffer
	err := runScrape(a.Client(), []string{a.URL, "http://127.0.0.1:1"}, &out)
	if err == nil {
		t.Fatal("no error for an unreachable target")
	}
	if !strings.Contains(out.String(), `flor_serve_queries_total{kind="replay",run="alpha"} 3`) {
		t.Errorf("reachable target's metrics missing from partial merge:\n%s", out.String())
	}
}

// TestTopFleetTable checks `florctl top` renders one row per (target, run)
// from /v1/stats, including the new cost and age columns.
func TestTopFleetTable(t *testing.T) {
	stats := serve.Stats{
		Runs: map[string]serve.RunStats{
			"alpha": {
				Replays: 4, Samples: 2, SlowQueries: 1, Inflight: 1,
				OldestQueryAgeSeconds: 2.5,
				Cost: serve.QueryCost{
					RestoredBytes: 3 << 20,
					Fetch: store.FetchSnapshot{
						ScatterBytes: 1 << 20, CacheBytes: 1 << 20,
						SingleflightBytes: 512 << 10,
					},
				},
			},
		},
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stats" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(stats)
	}))
	t.Cleanup(ts.Close)

	var out bytes.Buffer
	if err := runTop(ts.Client(), []string{ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 2 {
		t.Fatalf("top rendered %d lines, want header + 1 row:\n%s", len(lines), text)
	}
	// Cache share: 1MiB of the 2.5MiB tier-attributed total (scatter + cache
	// + singleflight) = 40%.
	for _, want := range []string{"alpha", "2.5s", "3.0MiB", "40%", "512.0KiB", "RESTORED", "OLDEST", "SFLIGHT"} {
		if !strings.Contains(text, want) {
			t.Errorf("top output missing %q:\n%s", want, text)
		}
	}
	if h, r := len(strings.Fields(lines[0])), len(strings.Fields(lines[1])); h != r {
		t.Errorf("header has %d columns, row has %d:\n%s", h, r, text)
	}
}
