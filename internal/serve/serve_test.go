package serve_test

import (
	"bytes"
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

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// miniFactory builds a small deterministic training program (seeded RNG
// perturbing a weight vector in a nested train loop).
func miniFactory(epochs, steps int, seed uint64) func() *script.Program {
	return func() *script.Program {
		train := &script.Loop{
			ID:      "train",
			IterVar: "step",
			Iters:   steps,
			Body: []script.Stmt{
				script.AssignMethod([]string{"w"}, "rng", "perturb", []string{"w"}, func(e *script.Env) error {
					w := e.MustGet("w").(*value.Tensor).T
					rng := e.MustGet("rng").(*value.RNG).R
					for i := 0; i < w.Len(); i++ {
						w.Data()[i] += rng.Float64() * 0.01
					}
					return nil
				}),
			},
		}
		return &script.Program{
			Name: "mini",
			Setup: []script.Stmt{
				script.AssignFunc([]string{"w"}, "zeros", nil, func(e *script.Env) error {
					e.Set("w", &value.Tensor{T: tensor.New(64)})
					return nil
				}),
				script.AssignFunc([]string{"rng"}, "RNG", nil, func(e *script.Env) error {
					e.Set("rng", &value.RNG{R: xrand.New(seed)})
					return nil
				}),
			},
			Main: &script.Loop{
				ID:      "main",
				IterVar: "epoch",
				Iters:   epochs,
				Body: []script.Stmt{
					script.LoopStmt(train),
					script.LogStmt("loss", func(e *script.Env) (string, error) {
						w := e.MustGet("w").(*value.Tensor).T
						return fmt.Sprintf("epoch=%d sum=%.17g", e.Int("epoch"), w.Sum()), nil
					}),
				},
			},
		}
	}
}

// withProbe adds a hindsight log statement to the main loop.
func withProbe(f func() *script.Program) func() *script.Program {
	return func() *script.Program {
		p := f()
		p.Main.Body = script.AddLog(p.Main.Body, 1, script.LogStmt("wnorm", func(e *script.Env) (string, error) {
			return fmt.Sprintf("%.17g", e.MustGet("w").(*value.Tensor).T.Norm()), nil
		}))
		return p
	}
}

// recordRun records miniFactory into dir and returns the factory.
func recordRun(t *testing.T, dir string, epochs, steps int, seed uint64) func() *script.Program {
	t.Helper()
	factory := miniFactory(epochs, steps, seed)
	if _, err := core.Record(dir, factory, core.RecordOptions{DisableAdaptive: true}); err != nil {
		t.Fatal(err)
	}
	return factory
}

type daemonFixture struct {
	srv       *serve.Server
	ts        *httptest.Server
	factories map[string]func() *script.Program // runID → base factory
	dirs      map[string]string
}

// startDaemon records two runs and serves them from one daemon.
func startDaemon(t *testing.T, opts serve.Options) *daemonFixture {
	t.Helper()
	base := t.TempDir()
	fx := &daemonFixture{
		srv:       serve.New(opts),
		factories: map[string]func() *script.Program{},
		dirs:      map[string]string{},
	}
	for i, id := range []string{"run-a", "run-b"} {
		dir := filepath.Join(base, id)
		factory := recordRun(t, dir, 8, 3, uint64(11+i))
		fx.factories[id] = factory
		fx.dirs[id] = dir
		if err := fx.srv.Register(serve.RunConfig{
			ID:  id,
			Dir: dir,
			Factories: map[string]func() *script.Program{
				"base":  factory,
				"wnorm": withProbe(factory),
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	fx.ts = httptest.NewServer(fx.srv.Handler())
	t.Cleanup(fx.ts.Close)
	return fx
}

func (fx *daemonFixture) post(t *testing.T, path string, body any) (*http.Response, []byte) {
	t.Helper()
	js, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fx.ts.URL+path, "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func (fx *daemonFixture) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(fx.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func (fx *daemonFixture) stats(t *testing.T) serve.Stats {
	t.Helper()
	_, body := fx.get(t, "/v1/stats")
	var st serve.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats: %v: %s", err, body)
	}
	return st
}

// directReplay computes the single-process ground truth for a probed replay.
func directReplay(t *testing.T, dir string, factory func() *script.Program) []string {
	t.Helper()
	rec, err := core.LoadRecordingShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.Replay(rec, withProbe(factory), replay.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("direct replay anomalies: %v", res.Anomalies)
	}
	return res.Logs
}

// TestDaemonConcurrentQueriesByteIdentical is the acceptance-criteria
// integration test: two runs served through one shared pool, overlapping
// replay + sample queries, logs byte-identical to single-process replay,
// and cache hits visible in /v1/stats on the second query.
func TestDaemonConcurrentQueriesByteIdentical(t *testing.T) {
	fx := startDaemon(t, serve.Options{Slots: 4, StoreCacheSize: 4})

	want := map[string][]string{}
	for id, f := range fx.factories {
		want[id] = directReplay(t, fx.dirs[id], f)
	}
	// Ground truth for the sample query: direct ReplaySample on the same
	// iterations.
	recA, err := core.LoadRecordingShared(fx.dirs["run-a"])
	if err != nil {
		t.Fatal(err)
	}
	sres, err := replay.ReplaySample(recA, withProbe(fx.factories["run-a"]), []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	wantSample := sres.Logs

	// Overlapping queries: a replay per run plus a sample, concurrently.
	var wg sync.WaitGroup
	type result struct {
		id   string
		logs []string
		err  error
	}
	results := make(chan result, 3)
	for _, id := range []string{"run-a", "run-b"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, body := fx.post(t, "/v1/runs/"+id+"/replay",
				serve.ReplayRequest{Probe: "wnorm", Workers: 4, Init: "weak"})
			if resp.StatusCode != http.StatusOK {
				results <- result{id: id, err: fmt.Errorf("status %d: %s", resp.StatusCode, body)}
				return
			}
			var rr serve.ReplayResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				results <- result{id: id, err: err}
				return
			}
			if rr.Anomalies != 0 {
				results <- result{id: id, err: fmt.Errorf("%d anomalies", rr.Anomalies)}
				return
			}
			results <- result{id: id, logs: rr.Logs}
		}(id)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, body := fx.get(t, "/v1/runs/run-a/logs?iters=2,5&probe=wnorm")
		if resp.StatusCode != http.StatusOK {
			results <- result{id: "sample", err: fmt.Errorf("status %d: %s", resp.StatusCode, body)}
			return
		}
		var sr serve.SampleResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			results <- result{id: "sample", err: err}
			return
		}
		results <- result{id: "sample", logs: sr.Logs}
	}()
	wg.Wait()
	close(results)

	for r := range results {
		if r.err != nil {
			t.Fatalf("%s: %v", r.id, r.err)
		}
		expect := want[r.id]
		if r.id == "sample" {
			expect = wantSample
		}
		if len(r.logs) != len(expect) {
			t.Fatalf("%s: %d log lines, want %d", r.id, len(r.logs), len(expect))
		}
		for i := range r.logs {
			if r.logs[i] != expect[i] {
				t.Fatalf("%s: log %d = %q, want %q", r.id, i, r.logs[i], expect[i])
			}
		}
	}

	// Second query against run-a: the store must be hot now.
	resp, body := fx.post(t, "/v1/runs/run-a/replay", serve.ReplayRequest{Probe: "wnorm"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second replay: status %d: %s", resp.StatusCode, body)
	}
	var rr serve.ReplayResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.StoreHit {
		t.Fatal("second query did not hit the store cache")
	}

	st := fx.stats(t)
	if st.StoreCache.Hits < 1 {
		t.Fatalf("store cache hits = %d, want >= 1", st.StoreCache.Hits)
	}
	if st.StoreCache.Misses != 2 {
		t.Fatalf("store cache misses = %d, want 2 (one per run)", st.StoreCache.Misses)
	}
	if st.Pool.Acquires < 8 {
		t.Fatalf("pool acquires = %d, want >= 8 (workers flowed through the shared pool)", st.Pool.Acquires)
	}
	ra := st.Runs["run-a"]
	if ra.Replays != 2 || ra.Samples != 1 || ra.StoreHits < 1 {
		t.Fatalf("run-a stats = %+v", ra)
	}
}

// blockableRun registers a run whose "block" probe parks every worker on a
// channel, keeping the query in-flight until the test releases it.
func blockableRun(t *testing.T, srv *serve.Server, dir string, factory func() *script.Program, block chan struct{}) {
	t.Helper()
	blocked := func() *script.Program {
		p := factory()
		p.Main.Body = script.AddLog(p.Main.Body, 1, script.LogStmt("gate", func(e *script.Env) (string, error) {
			<-block
			return "open", nil
		}))
		return p
	}
	if err := srv.Register(serve.RunConfig{
		ID:  "gated",
		Dir: dir,
		Factories: map[string]func() *script.Program{
			"base":  factory,
			"block": blocked,
		},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonAdmissionRejectsBeyondLimit checks the in-flight bound: with
// MaxInflight=1 and queueing disabled, a second query is rejected with 429
// while the first is executing.
func TestDaemonAdmissionRejectsBeyondLimit(t *testing.T) {
	dir := t.TempDir()
	factory := recordRun(t, dir, 4, 2, 3)
	srv := serve.New(serve.Options{Slots: 2, MaxInflightPerRun: 1, MaxQueuePerRun: -1})
	block := make(chan struct{})
	blockableRun(t, srv, dir, factory, block)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(req serve.ReplayRequest) (*http.Response, []byte, error) {
		js, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/runs/gated/replay", "application/json", bytes.NewReader(js))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes(), nil
	}

	done := make(chan error, 1)
	go func() {
		resp, body, err := post(serve.ReplayRequest{Probe: "block", Workers: 1})
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("blocked query: status %d: %s", resp.StatusCode, body)
		}
		done <- err
	}()

	// Wait until the first query is admitted and executing.
	waitForInflight(t, srv, "gated", 1)

	resp, body, err := post(serve.ReplayRequest{Probe: "base", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit query: status %d (want 429): %s", resp.StatusCode, body)
	}

	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := srv.Stats().Runs["gated"]
	if st.Rejected != 1 || st.Replays != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDaemonQueueTimeout checks queueing with deadlines: a query queued
// behind a stuck one fails with 504 once the queue deadline passes.
func TestDaemonQueueTimeout(t *testing.T) {
	dir := t.TempDir()
	factory := recordRun(t, dir, 4, 2, 3)
	srv := serve.New(serve.Options{
		Slots: 2, MaxInflightPerRun: 1, MaxQueuePerRun: 1,
		QueueTimeout: 150 * time.Millisecond,
	})
	block := make(chan struct{})
	blockableRun(t, srv, dir, factory, block)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		js, _ := json.Marshal(serve.ReplayRequest{Probe: "block", Workers: 1})
		resp, err := http.Post(ts.URL+"/v1/runs/gated/replay", "application/json", bytes.NewReader(js))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitForInflight(t, srv, "gated", 1)

	js, _ := json.Marshal(serve.ReplayRequest{Probe: "base", Workers: 1})
	t0 := time.Now()
	resp, err := http.Post(ts.URL+"/v1/runs/gated/replay", "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued query: status %d, want 504", resp.StatusCode)
	}
	if since := time.Since(t0); since < 100*time.Millisecond {
		t.Fatalf("timed out after %v, before the queue deadline", since)
	}
	close(block)
	<-done
	if st := srv.Stats().Runs["gated"]; st.QueueTimeouts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDaemonStoreCacheEviction checks the LRU eviction hook fires and a
// re-queried evicted run reloads as a miss.
func TestDaemonStoreCacheEviction(t *testing.T) {
	var evicted []string
	var mu sync.Mutex
	fx := startDaemon(t, serve.Options{
		Slots: 2, StoreCacheSize: 1,
		OnEvict: func(id string) { mu.Lock(); evicted = append(evicted, id); mu.Unlock() },
	})
	for _, id := range []string{"run-a", "run-b", "run-a"} {
		resp, body := fx.post(t, "/v1/runs/"+id+"/replay", serve.ReplayRequest{Workers: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, resp.StatusCode, body)
		}
	}
	st := fx.stats(t)
	if st.StoreCache.Evictions != 2 || st.StoreCache.Misses != 3 {
		t.Fatalf("cache stats = %+v", st.StoreCache)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 2 || evicted[0] != "run-a" || evicted[1] != "run-b" {
		t.Fatalf("evictions = %v", evicted)
	}
}

// TestDaemonErrors covers the 404/400 paths.
func TestDaemonErrors(t *testing.T) {
	fx := startDaemon(t, serve.Options{Slots: 2})
	if resp, _ := fx.post(t, "/v1/runs/ghost/replay", serve.ReplayRequest{}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: status %d", resp.StatusCode)
	}
	if resp, _ := fx.post(t, "/v1/runs/run-a/replay", serve.ReplayRequest{Probe: "nope"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown probe: status %d", resp.StatusCode)
	}
	if resp, _ := fx.post(t, "/v1/runs/run-a/replay", serve.ReplayRequest{Scheduler: "chaotic"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scheduler: status %d", resp.StatusCode)
	}
	// The names clients used to pick a scheduler with are still accepted
	// (and ignored).
	for _, name := range []string{"static", "balanced", "stealing"} {
		if resp, body := fx.post(t, "/v1/runs/run-a/replay", serve.ReplayRequest{Scheduler: name}); resp.StatusCode != http.StatusOK {
			t.Fatalf("scheduler %q: status %d: %s", name, resp.StatusCode, body)
		}
	}
	if resp, _ := fx.get(t, "/v1/runs/run-a/logs?iters=zap"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad iters: status %d", resp.StatusCode)
	}
	if resp, _ := fx.get(t, "/v1/runs/run-a/logs?iters=9999"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range iters: status %d", resp.StatusCode)
	}
	if st := fx.srv.Stats().Runs["run-a"]; st.Errors != 0 {
		t.Fatalf("client mistakes counted as server errors: %+v", st)
	}
	resp, body := fx.get(t, "/v1/runs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("runs: status %d", resp.StatusCode)
	}
	var runs []serve.RunInfo
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].ID != "run-a" || len(runs[0].Probes) != 2 {
		t.Fatalf("runs = %+v", runs)
	}
}

// TestDaemonOversizedBodyIs413: a request body past the 1 MiB cap is refused
// with 413 and the usual error body on every endpoint that reads one, without
// being buffered, and the daemon keeps serving.
func TestDaemonOversizedBodyIs413(t *testing.T) {
	fx := startDaemon(t, serve.Options{Slots: 2})
	huge := json.RawMessage(`{"iterations":[` + strings.Repeat("0,", 1<<20) + `0]}`) // 2 MiB
	for _, path := range []string{"/v1/runs", "/v1/runs/run-a/replay", "/v1/runs/run-a/logs"} {
		resp, body := fx.post(t, path, huge)
		var e map[string]string
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(body, &e) != nil || e["error"] == "" {
			t.Fatalf("%s: 2 MiB body: status %d, body %.200s; want 413 with an error body", path, resp.StatusCode, body)
		}
	}
	if resp, body := fx.post(t, "/v1/runs/run-a/logs", serve.SampleRequest{Iterations: []int{1}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid query after the refused ones: status %d: %s", resp.StatusCode, body)
	}
}

// flipSectionByte flips one byte inside the pack frame that holds the named
// section of key's checkpoint: the section's first chunk — its first
// ckptfmt.DefaultChunkSize bytes, read through Resolve — names the frame by
// its content hash.
func flipSectionByte(t *testing.T, dir string, key store.Key, section string) {
	t.Helper()
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Resolve(key)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := c.ReadInto(func(name string) bool { return name == section }, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want ckptfmt.Hash
	for _, sec := range secs {
		if sec.Name == section {
			want = ckptfmt.HashChunk(sec.Data[:min(len(sec.Data), ckptfmt.DefaultChunkSize)])
		}
	}
	packPath := filepath.Join(dir, "CHUNKS")
	pack, err := os.ReadFile(packPath)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(pack); {
		f, n, err := ckptfmt.Parse(pack[off:])
		if err != nil {
			t.Fatal(err)
		}
		if f.Hash == want {
			pack[off+n/2] ^= 0xff
			if err := os.WriteFile(packPath, pack, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		off += n
	}
	t.Fatalf("no frame of section %q of %s in %s", section, key, packPath)
}

// TestDaemonCorruptFrameMidRestoreIsTypedError flips one byte of a run's chunk
// pack inside the frame of a section the probe reads, in a mid-run checkpoint:
// loads of earlier epochs succeed (into worker buffers that the failing read
// then scribbles on) before one fails its CRC, inside the log statement that
// asked for the state. The query must end as a typed codec.ErrCorrupt — a 500
// whose body is the error alone, with no log line of the epochs that did load
// — at every worker count, and the other run keeps answering.
func TestDaemonCorruptFrameMidRestoreIsTypedError(t *testing.T) {
	// A 1-byte payload cache admits nothing: every load reads the pack.
	fx := startDaemon(t, serve.Options{Slots: 4, PayloadCacheBytes: 1})
	flipSectionByte(t, fx.dirs["run-a"], store.Key{LoopID: "train", Exec: 4}, "w")
	for _, workers := range []int{1, 2, 4} {
		req := serve.ReplayRequest{Probe: "wnorm", Workers: workers}
		if resp, err := fx.srv.Replay(context.Background(), "run-a", req); !errors.Is(err, codec.ErrCorrupt) || resp != nil {
			t.Fatalf("workers=%d: Replay = %v, %v; want no response and codec.ErrCorrupt", workers, resp, err)
		}
		resp, body := fx.post(t, "/v1/runs/run-a/replay", req)
		var reply map[string]any
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatalf("workers=%d: reply %q: %v", workers, body, err)
		}
		msg, _ := reply["error"].(string)
		if resp.StatusCode != http.StatusInternalServerError || len(reply) != 1 || !strings.Contains(msg, codec.ErrCorrupt.Error()) {
			t.Fatalf("workers=%d: status %d, reply %s; want 500 carrying only the corruption error", workers, resp.StatusCode, body)
		}
	}
	if resp, body := fx.post(t, "/v1/runs/run-b/replay", serve.ReplayRequest{Probe: "wnorm", Workers: 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("intact run after the corrupt one: status %d: %s", resp.StatusCode, body)
	}
}

// TestDaemonCorruptUnreadSectionIsNeverTouched is the converse: the flipped
// byte lies in the frame of a section no statement of the query reads (the RNG
// state, under the weight-norm probe). A skipped loop's checkpoint is loaded
// on demand, section by section, so that frame is never fetched and the reply
// is, line for line, the intact run's.
func TestDaemonCorruptUnreadSectionIsNeverTouched(t *testing.T) {
	fx := startDaemon(t, serve.Options{Slots: 4, PayloadCacheBytes: 1})
	want := directReplay(t, fx.dirs["run-a"], fx.factories["run-a"])
	flipSectionByte(t, fx.dirs["run-a"], store.Key{LoopID: "train", Exec: 4}, "rng")
	for _, workers := range []int{1, 2, 4} {
		resp, err := fx.srv.Replay(context.Background(), "run-a", serve.ReplayRequest{Probe: "wnorm", Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if strings.Join(resp.Logs, "\n") != strings.Join(want, "\n") {
			t.Fatalf("workers=%d: reply differs from the intact run's:\n got %v\nwant %v", workers, resp.Logs, want)
		}
	}
	// The byte is corrupt all the same: a query whose statements do reach the
	// RNG's section gets the typed error.
	rec, err := core.LoadRecordingShared(fx.dirs["run-a"])
	if err != nil {
		t.Fatal(err)
	}
	readsRNG := func() *script.Program {
		p := fx.factories["run-a"]()
		p.Main.Body = script.AddLog(p.Main.Body, 1, script.LogStmt("rng", func(e *script.Env) (string, error) {
			return fmt.Sprintf("%x", e.MustGet("rng").(*value.RNG).R.State()), nil
		}))
		return p
	}
	if _, err := replay.Replay(rec, readsRNG, replay.Options{}); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("replay reading the corrupt section = %v, want codec.ErrCorrupt", err)
	}
}

func waitForInflight(t *testing.T, srv *serve.Server, runID string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.Stats().Runs[runID].Inflight >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never reached %d in-flight queries", runID, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
