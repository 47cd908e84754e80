package serve_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store"
)

// supersedeAndExpire makes one of the run's checkpoints dead — overwriting
// victim with the (valid, different) sections of donor — and runs the two GC
// passes that first retire and then delete the replaced pack generation.
// Any store that resolved chunk locations before the swap now references a
// pack object that no longer exists on disk.
func supersedeAndExpire(t *testing.T, st *store.Store, victim, donor store.Key) {
	t.Helper()
	secs, err := readAll(st, donor)
	if err != nil {
		t.Fatalf("read donor %v: %v", donor, err)
	}
	if _, err := st.PutSections(victim, secs, 0, 0, 0); err != nil {
		t.Fatalf("supersede %v: %v", victim, err)
	}
	res, err := st.GCWith(store.GCOptions{PackRetention: time.Nanosecond})
	if err != nil || res.DeadChunks == 0 || res.CompactedShards == 0 {
		t.Fatalf("compacting GC pass: %+v err=%v", res, err)
	}
	time.Sleep(2 * time.Millisecond)
	res, err = st.GCWith(store.GCOptions{})
	if err != nil || res.DeletedPacks == 0 {
		t.Fatalf("deleting GC pass: %+v err=%v", res, err)
	}
}

// TestServeRefreshesStaleStoreAfterPackGC pins the daemon's recovery when
// pack GC outlives a cached read-only store's grace period: a recorded run
// is served (caching the open store), then a checkpoint is superseded and
// two nanosecond-retention GC passes delete the pack generation the cached
// store's chunk index points at. The next replay and sample queries hit
// store.ErrStalePack, and the server must drop the cached entry, reopen the
// store against the surviving generation, and retry once — the client sees
// a successful response, not an error.
func TestServeRefreshesStaleStoreAfterPackGC(t *testing.T) {
	dir := t.TempDir()
	factory := recordRun(t, dir, 6, 2, 7)

	var mu sync.Mutex
	var evicted []string
	srv := serve.New(serve.Options{
		Slots: 4,
		// A 1-byte payload cache admits nothing, so every query resolves its
		// restores through the store — the stale pack cannot hide behind a
		// decoded-payload hit.
		PayloadCacheBytes: 1,
		OnEvict: func(id string) {
			mu.Lock()
			evicted = append(evicted, id)
			mu.Unlock()
		},
	})
	const runID = "run-gc"
	if err := srv.Register(serve.RunConfig{
		ID:  runID,
		Dir: dir,
		Factories: map[string]func() *script.Program{
			"base":  factory,
			"wnorm": withProbe(factory),
		},
	}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if _, err := srv.Replay(ctx, runID, serve.ReplayRequest{Probe: "wnorm"}); err != nil {
		t.Fatalf("warm-up replay: %v", err)
	}

	// "Another process" writes to the run directory: supersede epoch 0's
	// train-loop checkpoint and expire the replaced generation. Compaction
	// moves every live chunk to a new pack generation, so the cached store's
	// whole index — not just the superseded key — goes stale.
	stale, err := core.LoadRecordingShared(dir) // opened before the swap, like the daemon's cached store
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var execs []int
	for _, m := range st.Metas() {
		if m.Key.LoopID == "train" {
			execs = append(execs, m.Key.Exec)
		}
	}
	if len(execs) < 3 {
		t.Fatalf("want >= 3 train-loop checkpoints, got %v", execs)
	}
	last := store.Key{LoopID: "train", Exec: execs[len(execs)-1]}
	supersedeAndExpire(t, st, store.Key{LoopID: "train", Exec: execs[0]}, last)

	// A skipped loop's checkpoint is loaded when a statement reads its state,
	// so the stale pack is met inside a log statement's Env.MustGet, which has
	// no error return: the statement must fail with the typed error, and the
	// replay with it — no panic, no partial log.
	if res, err := replay.Replay(stale, withProbe(factory), replay.Options{}); !errors.Is(err, store.ErrStalePack) ||
		!strings.Contains(err.Error(), `script: log "`) || res != nil {
		t.Fatalf("library replay over the stale store = %v, %v; want store.ErrStalePack out of a log statement and no result", res, err)
	}

	// The cached store now resolves chunks in a deleted pack generation; the
	// query must transparently refresh the store and succeed. (The replayed
	// logs may carry anomalies — epoch 0's state was overwritten — but that
	// is a reported divergence, not a serving failure.)
	if _, err := srv.Replay(ctx, runID, serve.ReplayRequest{Probe: "wnorm"}); err != nil {
		t.Fatalf("replay against stale store: %v", err)
	}
	rs := srv.Stats().Runs[runID]
	if rs.StaleRefreshes != 1 {
		t.Fatalf("stale refreshes = %d, want 1 (stats: %+v)", rs.StaleRefreshes, rs)
	}
	if rs.Errors != 0 {
		t.Fatalf("errors = %d after recovered refresh, want 0", rs.Errors)
	}

	// Second cycle: stale out the refreshed store too, and recover through
	// the sample path this time.
	supersedeAndExpire(t, st, store.Key{LoopID: "train", Exec: execs[1]}, last)
	if _, err := srv.Sample(ctx, runID, serve.SampleRequest{Probe: "wnorm", Iterations: []int{4}}); err != nil {
		t.Fatalf("sample against stale store: %v", err)
	}
	rs = srv.Stats().Runs[runID]
	if rs.StaleRefreshes != 2 {
		t.Fatalf("stale refreshes = %d, want 2 (stats: %+v)", rs.StaleRefreshes, rs)
	}

	mu.Lock()
	defer mu.Unlock()
	drops := 0
	for _, id := range evicted {
		if id == runID {
			drops++
		}
	}
	if drops != 2 {
		t.Fatalf("eviction hook fired %d times for %s, want 2 (evicted: %v)", drops, runID, evicted)
	}
}

// readAll reads every section of key's checkpoint into fresh buffers:
// Resolve, then ReadInto with no callback.
func readAll(st *store.Store, key store.Key) ([]store.Section, error) {
	c, err := st.Resolve(key)
	if err != nil {
		return nil, err
	}
	return c.ReadInto(nil, nil, nil, nil)
}
