package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/serve"
)

// recordPooledFamily records n sibling runs of the same program family into
// one shared chunk pool and returns (base dir, run dirs).
func recordPooledFamily(t *testing.T, n int) (string, []string) {
	t.Helper()
	base := t.TempDir()
	pool := filepath.Join(base, "POOL")
	var dirs []string
	for i := 0; i < n; i++ {
		dir := filepath.Join(base, fmt.Sprintf("run-%d", i))
		_, err := core.Record(dir, miniFactory(4, 3, uint64(100+i)), core.RecordOptions{
			DisableAdaptive: true,
			Pool:            pool,
		})
		if err != nil {
			t.Fatalf("record pooled run %d: %v", i, err)
		}
		dirs = append(dirs, dir)
	}
	return base, dirs
}

// TestServePooledRunsGroupedWithSharedCache pins the serving side of the
// pool: registration detects and pins the pool root, sibling runs group
// under it in /v1/stats, concurrent sibling replays are byte-identical to
// the library, and the decoded-payload cache is shared pool-wide.
func TestServePooledRunsGroupedWithSharedCache(t *testing.T) {
	base, dirs := recordPooledFamily(t, 2)
	srv := serve.New(serve.Options{DefaultWorkers: 2})
	for i, dir := range dirs {
		err := srv.Register(serve.RunConfig{
			ID:  fmt.Sprintf("run-%d", i),
			Dir: dir,
			Factories: map[string]func() *script.Program{
				"base": miniFactory(4, 3, uint64(100+i)),
			},
		})
		if err != nil {
			t.Fatalf("register run-%d: %v", i, err)
		}
	}

	// Listings carry the pool root; both runs share it.
	runs := srv.Runs()
	if len(runs) != 2 || runs[0].Pool == "" || runs[0].Pool != runs[1].Pool {
		t.Fatalf("runs not grouped by pool: %+v", runs)
	}
	if runs[0].Format != "v2-pooled" {
		t.Fatalf("format = %q, want v2-pooled", runs[0].Format)
	}

	// Concurrent sibling replays: byte-identical to direct library replay.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := range dirs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := srv.Replay(context.Background(), fmt.Sprintf("run-%d", i), serve.ReplayRequest{Workers: 2})
			if err != nil {
				errs <- err
				return
			}
			rec, err := core.LoadRecordingShared(dirs[i])
			if err != nil {
				errs <- err
				return
			}
			want := rec.RecordLog
			if len(res.Logs) != len(want) {
				errs <- fmt.Errorf("run-%d: %d log lines, want %d", i, len(res.Logs), len(want))
				return
			}
			for j := range want {
				if res.Logs[j] != want[j] {
					errs <- fmt.Errorf("run-%d line %d: %q != %q", i, j, res.Logs[j], want[j])
					return
				}
			}
			if res.Anomalies != 0 {
				errs <- fmt.Errorf("run-%d: %d anomalies", i, res.Anomalies)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Pool stats surface in the daemon snapshot once the pool is open.
	st := srv.Stats()
	if len(st.ChunkPools) != 1 {
		t.Fatalf("chunk pools in stats: %+v", st.ChunkPools)
	}
	for root, ps := range st.ChunkPools {
		if !strings.HasPrefix(root, base[:1]) || len(ps.Runs) != 2 || !ps.Open || ps.Chunks == 0 {
			t.Fatalf("pool stats: root=%q %+v", root, ps)
		}
	}
}

// TestChunkPoolStatsNameAnEmptyLease pins the serving side of the
// fail-closed lease read (store's TestGCPoolFailsClosedOnEmptyLease): over
// a pool one of whose leases a torn write left empty, /v1/stats still
// serves the pool's entry, counts no leases, and says why in lease_error,
// naming the lease file — the same error that stops GCPool.
func TestChunkPoolStatsNameAnEmptyLease(t *testing.T) {
	_, dirs := recordPooledFamily(t, 2)
	leases, err := filepath.Glob(filepath.Join(filepath.Dir(dirs[0]), "POOL", "LEASES", "*-run-1"))
	if err != nil || len(leases) != 1 {
		t.Fatalf("run-1's lease: %v, %v", leases, err)
	}
	if err := os.WriteFile(leases[0], nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fx := startDaemon(t, serve.Options{Slots: 2})
	if err := fx.srv.Register(serve.RunConfig{ID: "run-0", Dir: dirs[0], Factories: map[string]func() *script.Program{"base": miniFactory(4, 3, 100)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.srv.Replay(context.Background(), "run-0", serve.ReplayRequest{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	resp, body := fx.get(t, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: %d %s", resp.StatusCode, body)
	}
	var st struct {
		ChunkPools map[string]map[string]any `json:"chunk_pools"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.ChunkPools) != 1 {
		t.Fatalf("chunk pools in /v1/stats: %s", body)
	}
	for _, ps := range st.ChunkPools {
		msg, _ := ps["lease_error"].(string)
		if ps["open"] != true || ps["leases"] != nil || !strings.Contains(msg, leases[0]) {
			t.Fatalf("chunk pool entry %v, want it open, no leases counted and a lease_error naming %s", ps, leases[0])
		}
	}
}

// TestGracefulDrain pins Shutdown's contract: in-flight queries finish,
// later queries and registrations fail with ErrDraining (503 over HTTP),
// and Shutdown returns once the daemon is idle.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	if _, err := core.Record(dir, miniFactory(6, 4, 7), core.RecordOptions{DisableAdaptive: true}); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{DefaultWorkers: 2})
	if err := srv.Register(serve.RunConfig{
		ID:        "mini",
		Dir:       dir,
		Factories: map[string]func() *script.Program{"base": miniFactory(6, 4, 7)},
	}); err != nil {
		t.Fatal(err)
	}

	// An in-flight query started before the drain must complete.
	started := make(chan struct{})
	type result struct {
		logs int
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		close(started)
		res, err := srv.Replay(context.Background(), "mini", serve.ReplayRequest{})
		if err != nil {
			resCh <- result{err: err}
			return
		}
		resCh <- result{logs: len(res.Logs)}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-resCh
	// The in-flight replay either finished (normal drain) or never began
	// before the drain flag landed; it must not fail any other way.
	if r.err != nil && !errors.Is(r.err, serve.ErrDraining) {
		t.Fatalf("in-flight replay failed: %v", r.err)
	}

	// After the drain: queries and registrations refuse.
	if _, err := srv.Replay(context.Background(), "mini", serve.ReplayRequest{}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("post-drain replay error = %v, want ErrDraining", err)
	}
	if _, err := srv.Sample(context.Background(), "mini", serve.SampleRequest{Iterations: []int{1}}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("post-drain sample error = %v, want ErrDraining", err)
	}
	if err := srv.Register(serve.RunConfig{ID: "late", Dir: dir,
		Factories: map[string]func() *script.Program{"base": miniFactory(6, 4, 7)}}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("post-drain register error = %v, want ErrDraining", err)
	}
	if !srv.Stats().Draining {
		t.Fatal("stats do not report draining")
	}

	// And over HTTP the refusal maps to 503.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/runs/mini/replay", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain HTTP status = %d, want 503", resp.StatusCode)
	}
}

// TestStreamedLogsChunkedAndByteIdentical is the very-long-replay streaming
// regression: a sample over every iteration streams with chunked transfer
// encoding (no Content-Length, one NDJSON record per iteration, records
// arriving incrementally) and its concatenated logs are byte-identical to
// the buffered endpoint's.
func TestStreamedLogsChunkedAndByteIdentical(t *testing.T) {
	const epochs = 60 // long replay: many sampled iterations
	dir := t.TempDir()
	if _, err := core.Record(dir, miniFactory(epochs, 2, 9), core.RecordOptions{DisableAdaptive: true}); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{DefaultWorkers: 2, QueueTimeout: time.Minute})
	if err := srv.Register(serve.RunConfig{
		ID:        "long",
		Dir:       dir,
		Factories: map[string]func() *script.Program{"base": miniFactory(epochs, 2, 9)},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var iters []string
	for i := 0; i < epochs; i++ {
		iters = append(iters, fmt.Sprint(i))
	}
	itersArg := strings.Join(iters, ",")

	// Buffered reference.
	var buffered struct {
		Logs []string `json:"logs"`
	}
	resp, err := http.Get(ts.URL + "/v1/runs/long/logs?iters=" + itersArg)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&buffered); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Streamed: chunked transfer, NDJSON per iteration.
	resp, err = http.Get(ts.URL + "/v1/runs/long/logs?iters=" + itersArg + "&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if resp.ContentLength >= 0 {
		t.Fatalf("streamed response has Content-Length %d; want chunked", resp.ContentLength)
	}
	if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("transfer encoding = %v, want chunked", resp.TransferEncoding)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var streamed []string
	records := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var chunk struct {
			Iteration *int     `json:"iteration"`
			Logs      []string `json:"logs"`
			Error     string   `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &chunk); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if chunk.Error != "" {
			t.Fatalf("mid-stream error: %s", chunk.Error)
		}
		if chunk.Iteration == nil || *chunk.Iteration != records {
			t.Fatalf("record %d reports iteration %v", records, chunk.Iteration)
		}
		records++
		streamed = append(streamed, chunk.Logs...)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if records != epochs {
		t.Fatalf("streamed %d records, want %d (one per iteration — whole-replay buffering regressed)", records, epochs)
	}
	if len(streamed) != len(buffered.Logs) {
		t.Fatalf("streamed %d log lines, buffered %d", len(streamed), len(buffered.Logs))
	}
	for i := range streamed {
		if streamed[i] != buffered.Logs[i] {
			t.Fatalf("line %d: streamed %q != buffered %q", i, streamed[i], buffered.Logs[i])
		}
	}
}

// TestStreamedLogsErrorBeforeFirstChunk keeps client errors as proper HTTP
// statuses when nothing has been streamed yet.
func TestStreamedLogsErrorBeforeFirstChunk(t *testing.T) {
	dir := t.TempDir()
	if _, err := core.Record(dir, miniFactory(3, 2, 11), core.RecordOptions{DisableAdaptive: true}); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{})
	if err := srv.Register(serve.RunConfig{
		ID:        "mini",
		Dir:       dir,
		Factories: map[string]func() *script.Program{"base": miniFactory(3, 2, 11)},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/runs/mini/logs?iters=99&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range streamed sample status = %d, want 400", resp.StatusCode)
	}
}
