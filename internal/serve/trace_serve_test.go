package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store"
)

// sumTierAttrs folds the per-tier byte/frame attributes of a trace's
// "restore" spans into one FetchSnapshot.
func sumTierAttrs(spans []obs.Span) (store.FetchSnapshot, int) {
	var fs store.FetchSnapshot
	restores := 0
	for _, sp := range spans {
		if sp.Name != "restore" {
			continue
		}
		restores++
		fs.MmapBytes += sp.Attrs["mmap_bytes"]
		fs.MmapFrames += sp.Attrs["mmap_frames"]
		fs.ScatterBytes += sp.Attrs["scatter_bytes"]
		fs.ScatterFrames += sp.Attrs["scatter_frames"]
		fs.RangedBytes += sp.Attrs["ranged_bytes"]
		fs.RangedFrames += sp.Attrs["ranged_frames"]
		fs.CacheBytes += sp.Attrs["cache_bytes"]
		fs.CacheFrames += sp.Attrs["cache_frames"]
		fs.RemoteBytes += sp.Attrs["remote_bytes"]
		fs.RemoteFrames += sp.Attrs["remote_frames"]
		fs.CacheTierBytes += sp.Attrs["cache_tier_bytes"]
		fs.CacheTierFrames += sp.Attrs["cache_tier_frames"]
	}
	return fs, restores
}

func parseTraceSpans(t *testing.T, body []byte) []obs.Span {
	t.Helper()
	var spans []obs.Span
	for sc := bufio.NewScanner(bytes.NewReader(body)); sc.Scan(); {
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, sp)
	}
	return spans
}

// TestReplayCostTierAttribution is the acceptance check for store-tier
// attribution: a replay's response carries a QueryCost whose fetch snapshot
// covers every load of a skipped loop's state, and the trace's restore spans —
// one per load — sum to exactly the same logical bytes and time and attribute
// the same pack bytes tier by tier.
func TestReplayCostTierAttribution(t *testing.T) {
	fx := startDaemon(t, serve.Options{})

	resp, body := fx.post(t, "/v1/runs/run-a/replay",
		serve.ReplayRequest{Probe: "wnorm", Workers: 4, Init: "weak"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d: %s", resp.StatusCode, body)
	}
	var rr serve.ReplayResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Cost.RestoredBytes == 0 || rr.Cost.RestoreNs == 0 {
		t.Fatalf("replay restored nothing: cost %+v", rr.Cost)
	}
	if rr.Cost.Fetch.TotalFrames() == 0 || rr.Cost.Fetch.TotalBytes() == 0 {
		t.Fatalf("restored bytes have no tier attribution: %+v", rr.Cost.Fetch)
	}

	resp, body = fx.get(t, "/v1/runs/run-a/trace/"+rr.TraceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d: %s", resp.StatusCode, body)
	}
	spans := parseTraceSpans(t, body)
	fromSpans, restores := sumTierAttrs(spans)
	if restores == 0 {
		t.Fatal("trace has no restore spans")
	}
	if fromSpans != rr.Cost.Fetch {
		t.Fatalf("restore spans attribute %+v, response cost says %+v", fromSpans, rr.Cost.Fetch)
	}
	var spanBytes, spanNs, skipped int64
	for _, sp := range spans {
		switch sp.Name {
		case "restore":
			spanBytes += sp.Attrs["restored_bytes"]
			spanNs += sp.DurNs
		case "worker":
			skipped += sp.Attrs["restored"]
		}
	}
	if spanBytes != rr.Cost.RestoredBytes || spanNs != rr.Cost.RestoreNs {
		t.Fatalf("restore spans sum to %d bytes in %d ns, response cost says %d in %d",
			spanBytes, spanNs, rr.Cost.RestoredBytes, rr.Cost.RestoreNs)
	}
	// The probe reads w alone: the RNG section of a skipped epoch is never
	// loaded, so fewer bytes are loaded than the skipped checkpoints hold.
	ro, err := store.OpenReadOnly(fx.dirs["run-a"])
	if err != nil {
		t.Fatal(err)
	}
	if whole := skipped * ro.Metas()[0].Size; skipped == 0 || rr.Cost.RestoredBytes >= whole {
		t.Fatalf("%d skipped executions loaded %d bytes; want less than their whole checkpoints' %d", skipped, rr.Cost.RestoredBytes, whole)
	}
	// Worker summary spans carry the same per-tier byte totals.
	var workerBytes int64
	for _, sp := range spans {
		if sp.Name == "worker" {
			workerBytes += sp.Attrs["mmap_bytes"] + sp.Attrs["scatter_bytes"] +
				sp.Attrs["ranged_bytes"] + sp.Attrs["cache_bytes"] +
				sp.Attrs["remote_bytes"] + sp.Attrs["cache_tier_bytes"]
		}
	}
	if workerBytes != rr.Cost.Fetch.TotalBytes() {
		t.Fatalf("worker spans attribute %d bytes, cost says %d", workerBytes, rr.Cost.Fetch.TotalBytes())
	}

	// The per-run cost accumulates in /v1/stats.
	st := fx.stats(t)
	if got := st.Runs["run-a"].Cost; got != rr.Cost {
		t.Fatalf("stats cost = %+v, want %+v", got, rr.Cost)
	}
}

// TestSampleTraceID checks sampling queries are traced like replays, because
// they are replays: the response names a retrievable trace with the worker's
// slot-wait, setup, init (the catch-up from anchor to sampled point),
// per-iteration work and closing summary spans, a cost snapshot, and the same
// flor_replay_* counters move.
func TestSampleTraceID(t *testing.T) {
	withRegistry(t)
	fx := startDaemon(t, serve.Options{})
	restoredBefore := obs.C(obs.MReplayRestoredBytes).Value()
	itersBefore := obs.C(obs.MReplayIterations).Value()

	resp, body := fx.get(t, "/v1/runs/run-a/logs?iters=2,5&probe=wnorm")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp.StatusCode, body)
	}
	var sr serve.SampleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.TraceID == "" {
		t.Fatal("sample response carries no trace_id")
	}
	resp, body = fx.get(t, "/v1/runs/run-a/trace/"+sr.TraceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d: %s", resp.StatusCode, body)
	}
	names := map[string]int{}
	var inits [][2]int64
	for _, sp := range parseTraceSpans(t, body) {
		names[sp.Name]++
		if sp.Name == "init" {
			inits = append(inits, [2]int64{sp.Attrs["from"], sp.Attrs["to"]})
		}
	}
	for _, want := range []string{"slot_wait", "setup", "work"} {
		if names[want] == 0 {
			t.Errorf("sample trace has no %q spans (got %v)", want, names)
		}
	}
	if names["work"] != 2 {
		t.Errorf("sample trace has %d work spans, want 2 (one per sampled iteration)", names["work"])
	}
	// Neither sampled iteration starts where the worker sits (0, then 3), so
	// each is reached by a catch-up from the anchored iteration before it —
	// attributed to an init span, not left as a gap.
	if want := [][2]int64{{1, 2}, {4, 5}}; !reflect.DeepEqual(inits, want) {
		t.Errorf("sample trace init spans (from,to) = %v, want %v", inits, want)
	}
	if names["worker"] != 1 {
		t.Errorf("sample trace has %d worker summary spans, want 1", names["worker"])
	}
	// The sample fed the replay counters: what it restored, and one
	// iteration per sampled point.
	if got := obs.C(obs.MReplayRestoredBytes).Value() - restoredBefore; got != sr.Cost.RestoredBytes || got == 0 {
		t.Errorf("flor_replay_restored_bytes_total moved by %d, response cost says %d", got, sr.Cost.RestoredBytes)
	}
	if got := obs.C(obs.MReplayIterations).Value() - itersBefore; got != 2 {
		t.Errorf("flor_replay_iterations_total moved by %d, want 2", got)
	}
	// A sampled jump-and-replay restores checkpoint state; the cost must
	// attribute it.
	if sr.Cost.Fetch.TotalFrames() == 0 {
		t.Errorf("sample cost has no tier attribution: %+v", sr.Cost)
	}
	// Replays and samples share one trace-ID sequence per run.
	if sr.TraceID == "t000000" {
		t.Errorf("sample trace ID not allocated: %q", sr.TraceID)
	}
}

// TestTraceRingEvictionAndDurableFallback checks the configurable ring
// (satellite: serve.Options.TraceRing) and the durable trace store behind
// it: with a ring of 2 and three queries, the oldest trace ages out of the
// ring but is still served from the trace store, and the eviction counts
// into flor_serve_traces_dropped_total.
func TestTraceRingEvictionAndDurableFallback(t *testing.T) {
	withRegistry(t)
	traceDir := t.TempDir()
	fx := startDaemon(t, serve.Options{TraceRing: 2, TraceDir: traceDir})

	var ids []string
	for i := 0; i < 3; i++ {
		resp, body := fx.post(t, "/v1/runs/run-a/replay", serve.ReplayRequest{Workers: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay %d: %d: %s", i, resp.StatusCode, body)
		}
		var rr serve.ReplayResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rr.TraceID)
	}
	// All three remain retrievable: the newest two from the ring, the oldest
	// through the durable store.
	for _, id := range ids {
		if resp, body := fx.get(t, "/v1/runs/run-a/trace/"+id); resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %s: %d: %s", id, resp.StatusCode, body)
		}
	}
	_, scrape := fx.get(t, "/metrics")
	if !strings.Contains(string(scrape), `flor_serve_traces_dropped_total{run="run-a"} 1`) {
		t.Error("scrape missing the ring-eviction counter")
	}
	st := fx.stats(t)
	if st.TraceStore == nil || st.TraceStore.Dir != traceDir || st.TraceStore.Bytes == 0 {
		t.Fatalf("stats trace_store = %+v", st.TraceStore)
	}
}

// TestTraceRingOnlyEviction pins the no-trace-store behavior: an aged-out
// trace 404s.
func TestTraceRingOnlyEviction(t *testing.T) {
	fx := startDaemon(t, serve.Options{TraceRing: 1})
	var ids []string
	for i := 0; i < 2; i++ {
		resp, body := fx.post(t, "/v1/runs/run-a/replay", serve.ReplayRequest{Workers: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay %d: %d: %s", i, resp.StatusCode, body)
		}
		var rr serve.ReplayResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rr.TraceID)
	}
	if resp, _ := fx.get(t, "/v1/runs/run-a/trace/"+ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted trace: %d, want 404", resp.StatusCode)
	}
	if resp, _ := fx.get(t, "/v1/runs/run-a/trace/"+ids[1]); resp.StatusCode != http.StatusOK {
		t.Fatalf("retained trace: %d, want 200", resp.StatusCode)
	}
}

// TestTraceSurvivesRestart is the acceptance check for trace durability: a
// trace recorded by one daemon process is retrievable from a new daemon over
// the same trace directory, and the new daemon's trace IDs continue past the
// persisted sequence instead of shadowing it.
func TestTraceSurvivesRestart(t *testing.T) {
	base := t.TempDir()
	runDir := filepath.Join(base, "run")
	traceDir := filepath.Join(base, "traces")
	factory := recordRun(t, runDir, 8, 3, 11)
	reg := func(srv *serve.Server) {
		t.Helper()
		err := srv.Register(serve.RunConfig{
			ID:        "run",
			Dir:       runDir,
			Factories: map[string]func() *script.Program{"base": factory},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	srv1 := serve.New(serve.Options{TraceDir: traceDir})
	if err := srv1.TraceStoreErr(); err != nil {
		t.Fatal(err)
	}
	reg(srv1)
	ctx := context.Background()
	rr, err := srv1.Replay(ctx, "run", serve.ReplayRequest{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2 := serve.New(serve.Options{TraceDir: traceDir})
	reg(srv2)
	tr, err := srv2.Trace("run", rr.TraceID)
	if err != nil {
		t.Fatalf("trace %s after restart: %v", rr.TraceID, err)
	}
	fromSpans, restores := sumTierAttrs(tr.Spans())
	if restores == 0 || fromSpans != rr.Cost.Fetch {
		t.Fatalf("rehydrated trace attributes %+v over %d restores, want %+v",
			fromSpans, restores, rr.Cost.Fetch)
	}
	// The restarted daemon allocates fresh IDs past the persisted sequence.
	rr2, err := srv2.Replay(ctx, "run", serve.ReplayRequest{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rr2.TraceID <= rr.TraceID {
		t.Fatalf("post-restart trace ID %q does not continue past %q", rr2.TraceID, rr.TraceID)
	}
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSlowQueryCapture checks slow-query classification end to end: with a
// threshold every query exceeds, queries are flagged in stats, counted in
// metrics, and their full span detail lands in the slow-query log served at
// /v1/debug/slow — bypassing trace sampling.
func TestSlowQueryCapture(t *testing.T) {
	withRegistry(t)
	fx := startDaemon(t, serve.Options{
		TraceDir:           t.TempDir(),
		TraceSampleN:       1000, // would sample nearly everything out...
		SlowQueryThreshold: time.Nanosecond,
	})

	resp, body := fx.post(t, "/v1/runs/run-a/replay", serve.ReplayRequest{Workers: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d: %s", resp.StatusCode, body)
	}
	var rr serve.ReplayResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if resp, body := fx.get(t, "/v1/runs/run-a/logs?iters=2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp.StatusCode, body)
	}

	if got := fx.stats(t).Runs["run-a"].SlowQueries; got != 2 {
		t.Fatalf("slow queries = %d, want 2", got)
	}
	resp, body = fx.get(t, "/v1/debug/slow?limit=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/debug/slow: %d: %s", resp.StatusCode, body)
	}
	var slow []struct {
		TraceID string     `json:"trace_id"`
		Run     string     `json:"run"`
		Kind    string     `json:"kind"`
		DurNs   int64      `json:"dur_ns"`
		Slow    bool       `json:"slow"`
		Spans   []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatalf("slow log: %v: %s", err, body)
	}
	if len(slow) != 2 {
		t.Fatalf("slow log has %d entries, want 2", len(slow))
	}
	// Newest first: the sample, then the replay.
	if slow[0].Kind != "sample" || slow[1].Kind != "replay" {
		t.Fatalf("slow log order = [%s %s], want [sample replay]", slow[0].Kind, slow[1].Kind)
	}
	for _, e := range slow {
		if !e.Slow || e.Run != "run-a" || e.DurNs <= 0 || len(e.Spans) == 0 {
			t.Fatalf("implausible slow entry %+v", e)
		}
	}
	// The slow replay's full span detail survived sampling: it is also
	// retrievable as a trace despite SampleN=1000.
	if resp, _ := fx.get(t, "/v1/runs/run-a/trace/"+rr.TraceID); resp.StatusCode != http.StatusOK {
		t.Fatalf("slow trace sampled out: %d", resp.StatusCode)
	}
	_, scrape := fx.get(t, "/metrics")
	if !strings.Contains(string(scrape), `flor_serve_slow_queries_total{run="run-a"} 2`) {
		t.Error("scrape missing the slow-query counter")
	}
}

// TestStatsOldestQueryAge checks the in-flight age satellite: while a query
// is parked in flight, /v1/stats reports how long it has been running; once
// it completes, the age disappears.
func TestStatsOldestQueryAge(t *testing.T) {
	dir := t.TempDir()
	factory := recordRun(t, dir, 4, 2, 3)
	srv := serve.New(serve.Options{Slots: 2})
	block := make(chan struct{})
	blockableRun(t, srv, dir, factory, block)

	done := make(chan error, 1)
	go func() {
		_, err := srv.Replay(context.Background(), "gated", serve.ReplayRequest{Probe: "block", Workers: 1})
		done <- err
	}()
	waitForInflight(t, srv, "gated", 1)
	time.Sleep(20 * time.Millisecond)
	st := srv.Stats().Runs["gated"]
	if st.OldestQueryAgeSeconds <= 0 {
		t.Fatalf("in-flight query has no age: %+v", st)
	}
	if st.OldestQueryAgeSeconds > 60 {
		t.Fatalf("implausible query age %v", st.OldestQueryAgeSeconds)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats().Runs["gated"]; st.OldestQueryAgeSeconds != 0 {
		t.Fatalf("idle run still reports query age: %+v", st)
	}
}

// TestDebugTasksEndpoint checks /v1/debug/tasks serves background-task
// traces (the daemon itself runs none here, so the body is a JSON list).
func TestDebugTasksEndpoint(t *testing.T) {
	fx := startDaemon(t, serve.Options{})
	resp, body := fx.get(t, "/v1/debug/tasks")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/debug/tasks: %d: %s", resp.StatusCode, body)
	}
	var tasks []obs.TaskRecord
	if err := json.Unmarshal(body, &tasks); err != nil {
		t.Fatalf("tasks: %v: %s", err, body)
	}
	// No trace store configured: the slow-query log 404s with guidance.
	if resp, body := fx.get(t, "/v1/debug/slow"); resp.StatusCode != http.StatusNotFound ||
		!strings.Contains(string(body), "trace store") {
		t.Fatalf("/v1/debug/slow without a store: %d: %s", resp.StatusCode, body)
	}
}
