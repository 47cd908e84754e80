package flor_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	flor "flor.dev/flor"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/cachetier"
	"flor.dev/flor/internal/store/faultbackend"
	"flor.dev/flor/internal/store/remote"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// copyV1Fixture copies testdata/v1run — counterFactory(6, 3) recorded by the
// last build that could write format v1 — into dir. No build writes v1 any
// more, so these committed bytes are what v1 compatibility means.
func copyV1Fixture(dir string) error {
	return os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "v1run")))
}

// copyFixture copies the committed store testdata/<name> — a run directory,
// or for multiroot and pool4 the tree holding the run at run/ — into a fresh
// directory and returns the copy's root.
func copyFixture(t testing.TB, name string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", filepath.FromSlash(name)))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// dirBytes reads every file under dir, keyed by relative path.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMigrationMatrixByteIdenticalReplay is the layout-compatibility
// matrix: the same program as a legacy v1 run, a hash-prefix sharded v2
// store, one spread over extra pack roots, a run of a fanout-4 pool, a
// private store and a run of a "pool1 shards=16" pool whose chunk records
// are in an INDEX log, and a run of a "pool2 shards=16" pool whose 16 packs
// are the log (the committed fixtures older builds left, each
// refused by DetectLayout with ErrLegacyLayout and migrated — the v1 run and
// the stores into private stores, the pooled runs into a fresh pool), and recorded now into a
// private v2 store and a pooled one (shared chunk pool), must open through
// the same API — no flags, no layout hints — and replay byte-identical
// logs, with the migrated v1 run's replay as the reference. In particular
// the pooled run is the private-pack run's twin: same program, same probes,
// byte-identical replay output.
func TestMigrationMatrixByteIdenticalReplay(t *testing.T) {
	factory := counterFactory(6, 3)
	poolRoot := filepath.Join(t.TempDir(), "POOL")
	probed := func() *flor.Program {
		p := factory()
		train := p.Main.Body[0].Loop
		train.Body = flor.AddLog(train.Body, 1, flor.LogStmt("hs", func(e *flor.Env) (string, error) {
			return fmt.Sprintf("%.17g", e.MustGet("w").(*flor.TensorVal).T.Norm()), nil
		}))
		return p
	}

	variants := []struct {
		name    string
		record  func(dir string) error
		migrate string // "" for a run recorded now; else "private" or "pooled"
		layout  string
	}{
		{"v1", copyV1Fixture, "private", "v2"},
		{"v2", func(dir string) error {
			_, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing())
			return err
		}, "", "v2"},
		{"v2-sharded", func(dir string) error {
			return os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "sharded")))
		}, "private", "v2"},
		{"v2-multiroot", func(dir string) error {
			return os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "multiroot")))
		}, "private", "v2"},
		{"v2-pooled", func(dir string) error {
			_, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing(), flor.Pool(poolRoot))
			return err
		}, "", "v2-pooled"},
		{"v2-pooled-4", func(dir string) error {
			return os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "pool4")))
		}, "pooled", "v2-pooled"},
		{"v2-index", func(dir string) error {
			return os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "private2index")))
		}, "private", "v2"},
		{"v2-pooled-16", func(dir string) error {
			return os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "pool16")))
		}, "pooled", "v2-pooled"},
		{"v2-pooled-16-packlog", func(dir string) error {
			return os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "pool16packlog")))
		}, "pooled", "v2-pooled"},
	}

	type result struct {
		name string
		base []string
		hs   []string
	}
	var results []result
	for _, v := range variants {
		dir := t.TempDir()
		if err := v.record(dir); err != nil {
			t.Fatalf("%s: record: %v", v.name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "run")); err == nil {
			dir = filepath.Join(dir, "run") // a fixture tree: the run and its pool or extra roots
		}
		if v.migrate != "" {
			if l, err := store.DetectLayout(dir); !errors.Is(err, store.ErrLegacyLayout) {
				t.Fatalf("%s: detect layout: %s, %v; want ErrLegacyLayout", v.name, l, err)
			}
			pool := ""
			if v.migrate == "pooled" {
				pool = filepath.Join(t.TempDir(), "POOL")
			}
			dir = migrated(t, dir, pool)
		}
		l, err := store.DetectLayout(dir)
		if err != nil {
			t.Fatalf("%s: detect layout: %v", v.name, err)
		}
		if l.String() != v.layout {
			t.Fatalf("%s: layout = %s, want %s", v.name, l, v.layout)
		}
		committedInManifest(t, dir)
		// Unprobed replay reproduces the record log; probed replay adds the
		// hindsight lines. Both go through the flag-free open path.
		base, err := flor.Replay(dir, factory, flor.Workers(2))
		if err != nil {
			t.Fatalf("%s: replay: %v", v.name, err)
		}
		if len(base.Anomalies) != 0 {
			t.Fatalf("%s: anomalies %v", v.name, base.Anomalies)
		}
		hs, err := flor.Replay(dir, probed, flor.Workers(3), flor.Init(flor.WeakInit))
		if err != nil {
			t.Fatalf("%s: probed replay: %v", v.name, err)
		}
		if len(hs.Anomalies) != 0 {
			t.Fatalf("%s: probed anomalies %v", v.name, hs.Anomalies)
		}
		// A sample is that replay's per-iteration slices (3 hindsight lines
		// and the sum per epoch, no tail), asked for unsorted with a repeat.
		sampled, err := flor.ReplaySampled(dir, probed, []int{4, 1, 4, 2})
		if err != nil {
			t.Fatalf("%s: sample: %v", v.name, err)
		}
		if err := sameLogs(append(hs.Logs[1*4:3*4:3*4], hs.Logs[4*4:5*4]...), sampled.Logs); err != nil {
			t.Fatalf("%s: sample of iterations 1, 2, 4 is not the probed replay's slices: %v", v.name, err)
		}
		results = append(results, result{name: v.name, base: base.Logs, hs: hs.Logs})
	}

	ref := results[0]
	for _, r := range results[1:] {
		if err := sameLogs(ref.base, r.base); err != nil {
			t.Fatalf("base replay logs diverge between %s and %s: %v", ref.name, r.name, err)
		}
		if err := sameLogs(ref.hs, r.hs); err != nil {
			t.Fatalf("probed replay logs diverge between %s and %s: %v", ref.name, r.name, err)
		}
	}
}

// committedInManifest fails the test unless the run at dir commits its
// checkpoints in its manifest, as new recordings do: no segment file, and
// the "dirs" token on its FORMAT marker.
func committedInManifest(t *testing.T, dir string) {
	t.Helper()
	if segs, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(segs) > 0 {
		t.Fatalf("%s: segment files %v", dir, segs)
	}
	if m, err := os.ReadFile(filepath.Join(dir, "FORMAT")); err != nil || !slices.Contains(strings.Fields(string(m)), "dirs") {
		t.Fatalf("%s: FORMAT %q (%v), want the dirs token", dir, m, err)
	}
}

// TestV1RunServedAndNeverWritten pins the v1 path end to end: the legacy
// fixture is refused at registration with the serving daemon (a bad
// request naming florctl migrate), recording into it fails at open with
// ErrLegacyLayout (an ErrReadOnly) and a message naming the directory, and
// none of that touches a byte of it; migrated, it registers as layout "v2"
// and answers a replay there with what its record.log holds.
func TestV1RunServedAndNeverWritten(t *testing.T) {
	factory := counterFactory(6, 3)
	dir := t.TempDir()
	if err := copyV1Fixture(dir); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)

	srv := serve.New(serve.Options{})
	defer srv.Shutdown(context.Background())
	cfg := serve.RunConfig{ID: "legacy", Dir: dir, Factories: map[string]func() *flor.Program{"": factory}}
	if err := srv.Register(cfg); !errors.Is(err, serve.ErrBadRequest) || !strings.Contains(err.Error(), "florctl migrate") {
		t.Fatalf("register v1 run: %v, want a bad request naming florctl migrate", err)
	}
	_, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing())
	if !errors.Is(err, store.ErrLegacyLayout) || !errors.Is(err, store.ErrReadOnly) || !strings.Contains(err.Error(), dir) {
		t.Fatalf("record into a v1 run: err = %v, want ErrLegacyLayout naming %s", err, dir)
	}
	if after := dirBytes(t, dir); !maps.Equal(before, after) {
		t.Fatal("the refused registration and record changed the v1 run directory")
	}

	cfg.Dir = migrated(t, dir, "")
	if err := srv.Register(cfg); err != nil {
		t.Fatalf("register the migrated v1 run: %v", err)
	}
	if runs := srv.Runs(); len(runs) != 1 || runs[0].Format != "v2" {
		t.Fatalf("registered runs = %+v, want one of format v2", runs)
	}
	resp, err := srv.Replay(context.Background(), "legacy", serve.ReplayRequest{Workers: 2})
	if err != nil || resp.Anomalies != 0 {
		t.Fatalf("served replay of the migrated v1 run: %+v, %v", resp, err)
	}
	if err := sameLogs(recordLog(t, dir), resp.Logs); err != nil {
		t.Fatalf("served replay of the migrated v1 run differs from record.log: %v", err)
	}
}

// TestV1ReplayLoadsOnlyWhatStatementsRead pins demand loading on the
// committed format-v1 run, migrated, the way replay's
// TestRestoredBytesCountOnlyWhatStatementsRead pins it on a recording. The
// run replays with its own program, whose one log statement reads w, and
// analyze.Augment adds nothing to w. So every restore loads w's section
// alone — the 259 bytes the v1 bundle held, migration splitting each
// bundle into its entries — in one frame, and no byte of rng's.
func TestV1ReplayLoadsOnlyWhatStatementsRead(t *testing.T) {
	dir := t.TempDir()
	if err := copyV1Fixture(dir); err != nil {
		t.Fatal(err)
	}
	rec, err := core.LoadRecordingShared(migrated(t, dir, ""))
	if err != nil {
		t.Fatal(err)
	}
	c, err := rec.Store.Resolve(store.Key{LoopID: "train", Exec: 0})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := c.Section("w")
	rng, _ := c.Section("rng")
	if w.RawLen != 259 || rng.RawLen != 18 {
		t.Fatalf("train@0 sections: w %d bytes, rng %d bytes; want 259 and 18", w.RawLen, rng.RawLen)
	}
	tr := obs.NewTrace()
	res, err := replay.Replay(rec, counterFactory(6, 3), replay.Options{Workers: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("anomalies %v", res.Anomalies)
	}
	restores := 0
	for _, sp := range tr.Spans() {
		if sp.Name != "restore" {
			continue
		}
		restores++
		if sp.Attrs["restored_bytes"] != 259 || sp.Attrs["ranged_frames"] != 1 {
			t.Fatalf("restore of exec %d: %v, want w's 259 bytes in one frame", sp.Attrs["exec"], sp.Attrs)
		}
	}
	if rw := res.Workers[0]; restores != 6 || rw.Restored != 6 || rw.RestoredBytes != 6*259 {
		t.Fatalf("%d restore spans, %d skipped executions, %d bytes loaded; want 6, 6 and %d", restores, rw.Restored, rw.RestoredBytes, 6*259)
	}
}

// TestLegacyGzipTwinsAreInert opens what older builds' Store.Spool left in a
// run directory: testdata/gztwins is counterFactory(6, 3) recorded and then,
// by the last build that wrote gzip twins, spooled, given a throwaway
// scratch@0 checkpoint overwritten twice around a compacting GC, and spooled
// again. It holds a ".gz" twin of every segment and pack, the SPOOL state, a
// superseded segment (seq 7) with its twin, a retired pack generation
// (CHUNKS, its grace period long over) with its twin, and a MANIFEST whose
// compaction rewrite wrote meta records with a non-zero gzSize. Every open,
// read-only too, and so a replay, is refused with ErrLegacyLayout;
// ReadLegacy yields its seven live checkpoints; and its migration carries
// no twin, SPOOL or segment file over and replays byte-identically to a
// fresh recording of the program.
func TestLegacyGzipTwinsAreInert(t *testing.T) {
	factory := counterFactory(6, 3)
	probed := func() *flor.Program {
		p := factory()
		train := p.Main.Body[0].Loop
		train.Body = flor.AddLog(train.Body, 1, flor.LogStmt("hs", func(e *flor.Env) (string, error) {
			return fmt.Sprintf("%.17g", e.MustGet("w").(*flor.TensorVal).T.Norm()), nil
		}))
		return p
	}
	replay := func(dir string) []string {
		t.Helper()
		if base, err := flor.Replay(dir, factory, flor.Workers(2)); err != nil || len(base.Anomalies) != 0 {
			t.Fatalf("replay %s: %v, %+v", dir, err, base)
		}
		hs, err := flor.Replay(dir, probed, flor.Workers(3), flor.Init(flor.WeakInit))
		if err != nil || len(hs.Anomalies) != 0 {
			t.Fatalf("probed replay %s: %v, %+v", dir, err, hs)
		}
		return hs.Logs
	}
	fresh := t.TempDir()
	if _, err := flor.Record(fresh, factory, flor.DisableAdaptiveCheckpointing()); err != nil {
		t.Fatal(err)
	}
	want := replay(fresh)

	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "gztwins"))); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	if n := len(legacyIdentities(t, dir)); n != 7 {
		t.Fatalf("ReadLegacy yields %d checkpoints, want 7", n)
	}
	if _, err := store.OpenReadOnly(dir); !errors.Is(err, store.ErrLegacyLayout) {
		t.Fatalf("read-only open: %v, want ErrLegacyLayout", err)
	}
	if _, err := flor.Replay(dir, factory); !errors.Is(err, store.ErrLegacyLayout) {
		t.Fatalf("replay: %v, want ErrLegacyLayout", err)
	}
	if _, err := store.Open(dir); !errors.Is(err, store.ErrLegacyLayout) {
		t.Fatalf("writable open: %v, want ErrLegacyLayout", err)
	}
	dst := migrated(t, dir, "")
	for _, pattern := range []string{"*.gz", "SPOOL", "ckpt-*", "CHUNKS.g*"} {
		if m, _ := filepath.Glob(filepath.Join(dst, pattern)); len(m) > 0 {
			t.Fatalf("migration carried %v over", m)
		}
	}
	if err := sameLogs(replay(dst), want); err != nil {
		t.Fatalf("replay of the migrated run differs from a fresh recording's: %v", err)
	}
	if !maps.Equal(before, dirBytes(t, dir)) {
		t.Fatal("the refused opens or the migration changed the run")
	}
}

// TestShardedFixtureReadsEverywhereAndMigrates pins the committed sharded
// store: testdata/sharded is counterFactory(6, 3) recorded, adaptive
// checkpointing off, into a directory whose FORMAT marker was planted as
// "2 shards=4" — the layout older builds wrote when asked for four shards —
// so its packs are CHUNKS-00 … CHUNKS-03. On a copy, DetectLayout, a
// read-only open, a replay and a writable open are each refused with
// ErrLegacyLayout without touching a byte; its migration is a private store
// that replays byte-identically to its record.log, takes a put, and
// survives a GC pass that drops the superseded checkpoint.
func TestShardedFixtureReadsEverywhereAndMigrates(t *testing.T) {
	factory := counterFactory(6, 3)
	dir := copyFixture(t, "sharded")
	want := recordLog(t, dir)
	replayed := func(dir, when string) {
		t.Helper()
		res, err := flor.Replay(dir, factory, flor.Workers(2))
		if err != nil || len(res.Anomalies) != 0 {
			t.Fatalf("replay %s: %v, %+v", when, err, res)
		}
		if err := sameLogs(res.Logs, want); err != nil {
			t.Fatalf("replay %s differs from record.log: %v", when, err)
		}
	}
	if l, err := store.DetectLayout(dir); !errors.Is(err, store.ErrLegacyLayout) {
		t.Fatalf("layout = %v (%v), want ErrLegacyLayout", l, err)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("CHUNKS-%02d", i))); err != nil {
			t.Fatalf("fixture shard pack: %v", err)
		}
	}

	before := dirBytes(t, dir)
	if n := len(legacyIdentities(t, dir)); n != 6 {
		t.Fatalf("ReadLegacy yields %d checkpoints, want 6", n)
	}
	if _, err := store.OpenReadOnly(dir); !errors.Is(err, store.ErrLegacyLayout) {
		t.Fatalf("read-only open: %v, want ErrLegacyLayout", err)
	}
	if _, err := flor.Replay(dir, factory); !errors.Is(err, store.ErrLegacyLayout) {
		t.Fatalf("replay: %v, want ErrLegacyLayout", err)
	}
	if _, err := store.Open(dir); !errors.Is(err, store.ErrLegacyLayout) {
		t.Fatalf("writable open: %v, want ErrLegacyLayout", err)
	}
	if after := dirBytes(t, dir); !maps.Equal(before, after) {
		t.Fatal("a refused open or replay, or ReadLegacy, changed the fixture")
	}

	dst := migrated(t, dir, "")
	replayed(dst, "of the migrated run")
	st, err := store.Open(dst)
	if err != nil {
		t.Fatalf("writable open of the migrated run: %v", err)
	}
	last := store.Key{LoopID: "train", Exec: st.ExecsFor("train")[len(st.ExecsFor("train"))-1]}
	secs, err := readAll(st, last)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutSections(last, secs, 0, 0, 0); err != nil {
		t.Fatalf("put into the migrated store: %v", err)
	}
	res, err := st.GCWith(store.GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Superseded != 1 {
		t.Fatalf("gc = %+v, want the superseded checkpoint dropped", res)
	}
	if m, err := os.ReadFile(filepath.Join(dst, "FORMAT")); err != nil || string(m) != "2 dirs packlog\n" {
		t.Fatalf("FORMAT after gc = %q (%v)", m, err)
	}
	replayed(dst, "after gc")
}

// TestSegmentFileStoresResolveReplayAndMigrate runs the committed stores
// older builds recorded — testdata/framestyles/{deflate,lz4} and
// testdata/gztwins, each a meta record without a directory and a segment
// file per checkpoint — through the move of directories into the manifest,
// which is now a migration. A writable and a read-only open are refused
// under the store's own marker and under "2 dirs packlog" alike, since its
// manifest still holds segment-file checkpoints; ReadLegacy reads every
// checkpoint; and the migrated run leaves no segment file, carries "dirs"
// on its marker, replays byte-identically to a fresh recording of its
// program, and does so again after a GC pass.
func TestSegmentFileStoresResolveReplayAndMigrate(t *testing.T) {
	probe := func(factory func() *flor.Program, name string) func() *flor.Program {
		return func() *flor.Program {
			p := factory()
			train := p.Main.Body[0].Loop
			train.Body = flor.AddLog(train.Body, 1, flor.LogStmt("hs", func(e *flor.Env) (string, error) {
				return fmt.Sprintf("%.17g", e.MustGet(name).(*flor.TensorVal).T.Norm()), nil
			}))
			return p
		}
	}
	replayLogs := func(dir string, factory func() *flor.Program) []string {
		t.Helper()
		res, err := flor.Replay(dir, factory, flor.Workers(3), flor.Init(flor.WeakInit))
		if err != nil || len(res.Anomalies) != 0 {
			t.Fatalf("replay %s: %v, %+v", dir, err, res)
		}
		return res.Logs
	}
	for _, fx := range []struct {
		fixture string
		factory func() *flor.Program
		tensor  string
	}{
		{"framestyles/deflate", compressibleFactory(5, 2), "emb"},
		{"framestyles/lz4", compressibleFactory(5, 2), "emb"},
		{"gztwins", counterFactory(6, 3), "w"},
	} {
		probed := probe(fx.factory, fx.tensor)
		fresh := t.TempDir()
		if _, err := flor.Record(fresh, fx.factory, flor.DisableAdaptiveCheckpointing()); err != nil {
			t.Fatal(err)
		}
		want := replayLogs(fresh, probed)

		dir := copyFixture(t, fx.fixture)
		if len(legacyIdentities(t, dir)) == 0 {
			t.Fatalf("%s: ReadLegacy yields no checkpoint", fx.fixture)
		}
		canonical := copyFixture(t, fx.fixture)
		if err := os.WriteFile(filepath.Join(canonical, "FORMAT"), []byte("2 dirs packlog\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, d := range []string{dir, canonical} {
			if _, err := store.Open(d); !errors.Is(err, store.ErrLegacyLayout) {
				t.Fatalf("%s: writable open: %v, want ErrLegacyLayout", fx.fixture, err)
			}
			if _, err := store.OpenReadOnly(d); !errors.Is(err, store.ErrLegacyLayout) {
				t.Fatalf("%s: read-only open: %v, want ErrLegacyLayout", fx.fixture, err)
			}
		}

		dst := migrated(t, dir, "")
		committedInManifest(t, dst)
		if err := sameLogs(replayLogs(dst, probed), want); err != nil {
			t.Fatalf("%s: replay of the migrated run differs from a fresh recording's: %v", fx.fixture, err)
		}
		st, err := store.Open(dst)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.GC(); err != nil {
			t.Fatalf("%s: gc: %v", fx.fixture, err)
		}
		if err := sameLogs(replayLogs(dst, probed), want); err != nil {
			t.Fatalf("%s: replay after gc differs from a fresh recording's: %v", fx.fixture, err)
		}
	}
}

// compressibleFactory builds a program whose checkpoint payloads compress
// well: a mostly-zero embedding table with a handful of entries touched per
// step. Long zero runs give LZ4 real matches, so the forced-LZ4 recording
// in testdata/framestyles/lz4 holds actual LZ4 frames instead of raw
// fallbacks — which is what the restore matrix needs to exercise the LZ4
// decode path.
func compressibleFactory(epochs, steps int) func() *flor.Program {
	return func() *flor.Program {
		train := &flor.Loop{ID: "train", IterVar: "step", Iters: steps, Body: []flor.Stmt{
			flor.AssignMethod([]string{"emb"}, "rng", "touch", []string{"emb"}, func(e *flor.Env) error {
				emb := e.MustGet("emb").(*flor.TensorVal).T
				rng := e.MustGet("rng").(*flor.RNGVal).R
				base := (e.Int("epoch")*steps + e.Int("step")) * 8
				for i := 0; i < 8; i++ {
					emb.Data()[(base+i)%emb.Len()] = rng.Float64()
				}
				return nil
			}),
		}}
		return &flor.Program{
			Name: "compressible",
			Setup: []flor.Stmt{
				flor.AssignFunc([]string{"emb"}, "zeros", nil, func(e *flor.Env) error {
					e.Set("emb", &flor.TensorVal{T: tensor.New(4096)})
					return nil
				}),
				flor.AssignFunc([]string{"rng"}, "RNG", nil, func(e *flor.Env) error {
					e.Set("rng", &flor.RNGVal{R: xrand.New(23)})
					return nil
				}),
			},
			Main: &flor.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []flor.Stmt{
				flor.LoopStmt(train),
				flor.LogStmt("sum", func(e *flor.Env) (string, error) {
					return fmt.Sprintf("%.17g", e.MustGet("emb").(*flor.TensorVal).T.Sum()), nil
				}),
			}},
		}
	}
}

// TestRestoreMatrixByteIdentical is the frame-style × IO-path × parallelism
// matrix. Stores write raw frames only; deflate and LZ4 are read-compat, and
// testdata/framestyles/{deflate,lz4} are compressibleFactory(5, 2) recorded
// by the last build that wrote those styles, each forced to its style. Each
// fixture is refused by every open, read-only too, and migrated; a fresh
// raw recording and each migration must replay byte-identical logs whether
// the pack bytes arrive through vectored reads of a file descriptor or
// staged ranged reads, and at any worker count. It also pins the "lz4"
// FORMAT token: a fresh recording has none, and the lz4 fixture keeps its
// "2 lz4" — its opens are refused — while its migration holds raw frames
// only. (Compressed frames on the restore path: the store package's
// fetch_test.go.)
func TestRestoreMatrixByteIdentical(t *testing.T) {
	factory := compressibleFactory(5, 2)
	probed := func() *flor.Program {
		p := factory()
		train := p.Main.Body[0].Loop
		train.Body = flor.AddLog(train.Body, 1, flor.LogStmt("hs", func(e *flor.Env) (string, error) {
			return fmt.Sprintf("%.17g", e.MustGet("emb").(*flor.TensorVal).T.Norm()), nil
		}))
		return p
	}
	marker := func(dir string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, "FORMAT"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// packStyles parses the pack's frames from byte off on and counts them
	// by style.
	packStyles := func(dir string, off int) map[byte]int {
		t.Helper()
		pack, err := os.ReadFile(filepath.Join(dir, "CHUNKS"))
		if err != nil {
			t.Fatal(err)
		}
		styles := map[byte]int{}
		for off < len(pack) {
			f, n, err := ckptfmt.Parse(pack[off:])
			if err != nil {
				t.Fatalf("%s: frame at %d: %v", dir, off, err)
			}
			styles[f.Style]++
			off += n
		}
		return styles
	}

	var ref []string
	// matrix replays dir on every IO path and worker count and compares the
	// logs to the first replay's. The IO axis is chosen the way production
	// chooses it — by what the backend's pack readers can do: the plain
	// directory backend hands out files (vectored preadv on Linux), the same
	// backend behind a zero-fault wrapper hands out readers with no
	// descriptor (staged ReadAt spans).
	matrix := func(name, dir string) {
		t.Helper()
		ios := []struct {
			name    string
			backend func() store.Backend
		}{
			{"vectored", func() store.Backend { return nil }},
			{"staged", func() store.Backend {
				db := store.DirBackendAt(dir)
				return faultbackend.WrapBackend(db, faultbackend.Config{})
			}},
		}
		for _, iom := range ios {
			for _, workers := range []int{1, 3} {
				rec, err := core.LoadRecordingWith(dir, store.Options{ReadOnly: true, Backend: iom.backend()})
				if err != nil {
					t.Fatalf("%s io=%s: open: %v", name, iom.name, err)
				}
				res, err := replay.Replay(rec, probed, replay.Options{Workers: workers, Init: replay.Weak})
				if err != nil {
					t.Fatalf("%s io=%s workers=%d: replay: %v", name, iom.name, workers, err)
				}
				if len(res.Anomalies) != 0 {
					t.Fatalf("%s io=%s workers=%d: anomalies %v", name, iom.name, workers, res.Anomalies)
				}
				if ref == nil {
					ref = res.Logs
				} else if err := sameLogs(ref, res.Logs); err != nil {
					t.Fatalf("%s io=%s workers=%d: logs diverge from the fresh raw recording's: %v", name, iom.name, workers, err)
				}
			}
		}
	}

	fresh := t.TempDir()
	if _, err := flor.Record(fresh, factory, flor.DisableAdaptiveCheckpointing()); err != nil {
		t.Fatal(err)
	}
	if m := marker(fresh); strings.Contains(m, "lz4") {
		t.Fatalf("fresh recording's marker %q carries the lz4 token", m)
	}
	if styles := packStyles(fresh, 0); len(styles) != 1 || styles[ckptfmt.StyleRaw] == 0 {
		t.Fatalf("fresh recording's pack holds frames by style %v, want raw only", styles)
	}
	matrix("raw", fresh)

	for _, fx := range []struct {
		name   string
		style  byte
		marker string
	}{
		{"deflate", ckptfmt.StyleDeflate, "2\n"},
		{"lz4", ckptfmt.StyleLZ4, "2 lz4\n"},
	} {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "framestyles", fx.name))); err != nil {
			t.Fatal(err)
		}
		if m := marker(dir); m != fx.marker {
			t.Fatalf("%s fixture: marker %q, want %q", fx.name, m, fx.marker)
		}
		if styles := packStyles(dir, 0); styles[fx.style] == 0 {
			t.Fatalf("%s fixture: pack holds frames by style %v, none of style %d", fx.name, styles, fx.style)
		}
		for _, ro := range []bool{false, true} {
			if _, err := store.OpenWith(dir, store.Options{ReadOnly: ro}); !errors.Is(err, store.ErrLegacyLayout) {
				t.Fatalf("%s fixture: open (read-only %v): %v, want ErrLegacyLayout", fx.name, ro, err)
			}
		}
		if m := marker(dir); m != fx.marker {
			t.Fatalf("%s fixture after refused opens: marker %q", fx.name, m)
		}
		// The migration re-puts every checkpoint, and what a put writes is
		// raw — compressible bytes included.
		dst := migrated(t, dir, "")
		if styles := packStyles(dst, 0); len(styles) != 1 || styles[ckptfmt.StyleRaw] == 0 {
			t.Fatalf("the migrated %s fixture holds frames by style %v, want raw only", fx.name, styles)
		}
		matrix(fx.name+" migrated", dst)
	}
}

// TestUnknownFormatMarkersRefuseCleanly pins the forward-compatibility
// contract across the layout family: a FORMAT marker this build does not
// understand — a future layout or corruption — surfaces the typed
// store.ErrUnknownFormat through the flag-free open path instead of
// misparsing the manifest as a torn tail and truncating the run away. The
// markers below include shapes a future build might plausibly write.
func TestUnknownFormatMarkersRefuseCleanly(t *testing.T) {
	factory := counterFactory(3, 2)
	for _, marker := range []string{"3", "2 shards=banana", "2 pool", "2 pool shards=16 v3", "2 gc shards=16", "2 lz4 gc", "2 lz4x", "2 dirs lz4", "2 index dirs", "2 dirs index gc"} {
		dir := t.TempDir()
		if _, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing()); err != nil {
			t.Fatal(err)
		}
		real, err := os.ReadFile(filepath.Join(dir, "FORMAT"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "FORMAT"), []byte(marker+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := flor.Replay(dir, factory); !errors.Is(err, store.ErrUnknownFormat) {
			t.Fatalf("marker %q: replay error = %v, want ErrUnknownFormat", marker, err)
		}
		if _, err := store.DetectLayout(dir); !errors.Is(err, store.ErrUnknownFormat) {
			t.Fatalf("marker %q: detect error = %v, want ErrUnknownFormat", marker, err)
		}
		// The refusal destroyed nothing: restoring the real marker restores
		// the run.
		if err := os.WriteFile(filepath.Join(dir, "FORMAT"), real, 0o644); err != nil {
			t.Fatal(err)
		}
		if res, err := flor.Replay(dir, factory); err != nil || len(res.Anomalies) != 0 {
			t.Fatalf("marker %q: replay after restore: %v anomalies=%v", marker, err, res)
		}
	}
}

// uploadTwin uploads the run in dir to a fresh in-memory object store and
// fetches its control plane into a new directory — a "different machine" that
// holds no pack byte: every one travels a ranged GET.
func uploadTwin(t *testing.T, dir string) (mem *remote.MemStore, ctl string) {
	t.Helper()
	mem = remote.NewMemStore()
	if n, err := remote.UploadRun(mem, dir, "runs/twin"); err != nil || n == 0 {
		t.Fatalf("upload: n=%d err=%v", n, err)
	}
	ctl = filepath.Join(t.TempDir(), "ctl")
	if _, err := remote.FetchControlPlane(mem, "runs/twin", ctl); err != nil {
		t.Fatalf("fetch control plane: %v", err)
	}
	return mem, ctl
}

// TestMigrationRemoteTwinByteIdentical is the local run's remote twin: the
// same recording uploaded to an object store and replayed statelessly —
// control plane fetched to a fresh directory, pack bytes arriving as ranged
// GETs through the chunk-cache tier — must produce byte-identical logs to
// the local replay. The cold pass (empty cache) and warm pass (populated
// cache) must agree with each other too, and the fetch-tier accounting must
// show the warm pass serving at least 90% of its pack bytes from the cache
// tier. Two more passes read with no cache tier and through one that admits
// nothing, so every extent's reader is its last holder and hands the GET's
// arena span back the moment its decode is done — in a race build the arena
// poisons it there, and a decode that outlived its release would fail.
func TestMigrationRemoteTwinByteIdentical(t *testing.T) {
	factory := compressibleFactory(5, 2)
	dir := t.TempDir()
	if _, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing()); err != nil {
		t.Fatalf("record: %v", err)
	}
	local, err := flor.Replay(dir, factory, flor.Workers(2))
	if err != nil {
		t.Fatalf("local replay: %v", err)
	}
	if len(local.Anomalies) != 0 {
		t.Fatalf("local anomalies %v", local.Anomalies)
	}

	committedInManifest(t, dir)
	mem, ctl := uploadTwin(t, dir)
	committedInManifest(t, ctl)
	if keys, err := mem.List("runs/twin/ctl/"); err != nil || slices.ContainsFunc(keys, func(k string) bool { return strings.Contains(k, "ckpt-") }) {
		t.Fatalf("uploaded control plane %v (%v) ships segment files", keys, err)
	}
	cache, err := cachetier.New("", 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	open := func(cache *cachetier.Cache) (*replay.Recording, error) {
		backend := remote.NewObjectBackend(mem, remote.PacksPrefix("runs/twin"), cache)
		return core.LoadRecordingWith(ctl, store.Options{ReadOnly: true, Backend: backend})
	}
	run := func(label string, cache *cachetier.Cache) store.FetchSnapshot {
		rec, err := open(cache)
		if err != nil {
			t.Fatalf("%s: open remote recording: %v", label, err)
		}
		res, err := replay.Replay(rec, factory, replay.Options{Workers: 2, Trace: obs.NewTrace()})
		if err != nil {
			t.Fatalf("%s: remote replay: %v", label, err)
		}
		if len(res.Anomalies) != 0 {
			t.Fatalf("%s: anomalies %v", label, res.Anomalies)
		}
		if err := sameLogs(local.Logs, res.Logs); err != nil {
			t.Fatalf("%s: remote logs diverge from local: %v", label, err)
		}
		// One line per epoch: a remote sample is the local replay's lines.
		sampled, err := replay.ReplaySample(rec, factory, []int{3, 1})
		if err != nil {
			t.Fatalf("%s: remote sample: %v", label, err)
		}
		if err := sameLogs([]string{local.Logs[1], local.Logs[3]}, sampled.Logs); err != nil {
			t.Fatalf("%s: remote sample diverges from the local replay's lines: %v", label, err)
		}
		var fetch store.FetchSnapshot
		for _, w := range res.Workers {
			fetch = fetch.Add(w.Fetch)
		}
		return fetch
	}

	cold := run("cold", cache)
	if cold.RemoteBytes == 0 {
		t.Fatalf("cold replay fetched nothing remotely: %+v", cold)
	}
	warm := run("warm", cache)
	total := warm.RemoteBytes + warm.CacheTierBytes
	if total == 0 || warm.CacheTierBytes*10 < total*9 {
		t.Fatalf("warm replay served %d of %d pack bytes from the cache tier, want >= 90%%", warm.CacheTierBytes, total)
	}
	admitsNothing, err := cachetier.New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []struct {
		label string
		cache *cachetier.Cache
	}{{"uncached", nil}, {"admits nothing", admitsNothing}} {
		if f := run(pass.label, pass.cache); f.CacheTierBytes != 0 || f.RemoteBytes+f.SingleflightBytes == 0 {
			t.Fatalf("%s: fetch tiers %+v, want every byte read remotely", pass.label, f)
		}
	}
}

func sameLogs(a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("line %d: %q vs %q", i, a[i], b[i])
		}
	}
	return nil
}

// changingFactory is a program whose checkpoints differ from their
// predecessors in every way the change-aware capture path distinguishes: a
// tensor no loop writes, one rewritten in full, one where a single row
// changes, a string that changes length, and — because three loops with
// different changesets take turns on the materializer's two buffer sets — an
// entry list whose names and sizes change from one use of a buffer to the
// next.
func changingFactory(epochs int) func() *flor.Program {
	const chunkFloats = 256 << 10 / 8
	fill := func(e *flor.Env, d []float64) {
		rng := e.MustGet("rng").(*flor.RNGVal).R
		for i := range d {
			d[i] = rng.Float64()
		}
	}
	data := func(e *flor.Env, name string) []float64 { return e.MustGet(name).(*flor.TensorVal).T.Data() }
	return func() *flor.Program {
		train := &flor.Loop{ID: "train", IterVar: "i", Iters: 1, Body: []flor.Stmt{
			flor.AssignFunc([]string{"hot", "table", "notes", "frozen", "rng"}, "train_step", nil, func(e *flor.Env) error {
				fill(e, data(e, "hot"))
				table := data(e, "table")
				row := (e.Int("epoch") * 23) % 64
				fill(e, table[row*len(table)/64:(row+1)*len(table)/64])
				n := 200_000 + (e.Int("epoch")%3)*90_000
				e.MustGet("notes").(*flor.StringVal).V = strings.Repeat("epoch notes; ", n/13+1)[:n]
				return nil
			}),
		}}
		eval := &flor.Loop{ID: "eval", IterVar: "j", Iters: 1, Body: []flor.Stmt{
			flor.AssignFunc([]string{"score", "frozen"}, "evaluate", []string{"hot"}, func(e *flor.Env) error {
				e.SetFloat("score", data(e, "hot")[0]+data(e, "frozen")[0])
				return nil
			}),
		}}
		tune := &flor.Loop{ID: "tune", IterVar: "k", Iters: 1, Body: []flor.Stmt{
			flor.AssignFunc([]string{"table", "hot", "rng"}, "tune_step", nil, func(e *flor.Env) error {
				fill(e, data(e, "table")[:8])
				return nil
			}),
		}}
		return &flor.Program{
			Name: "changing",
			Setup: []flor.Stmt{
				flor.AssignFunc([]string{"hot", "table", "notes", "frozen", "rng", "score"}, "build", nil, func(e *flor.Env) error {
					e.Set("rng", &flor.RNGVal{R: xrand.New(31)})
					e.Set("frozen", &flor.TensorVal{T: tensor.New(2 * chunkFloats)})
					e.Set("hot", &flor.TensorVal{T: tensor.New(chunkFloats)})
					e.Set("table", &flor.TensorVal{T: tensor.New(64, 2*chunkFloats/64)})
					e.Set("notes", &flor.StringVal{})
					e.SetFloat("score", 0)
					fill(e, data(e, "frozen"))
					fill(e, data(e, "table"))
					return nil
				}),
			},
			Main: &flor.Loop{ID: "main", IterVar: "epoch", Iters: epochs, Body: []flor.Stmt{
				flor.LoopStmt(train),
				flor.LoopStmt(eval),
				flor.LoopStmt(tune),
				flor.LogStmt("epoch", func(e *flor.Env) (string, error) {
					return fmt.Sprintf("%d score=%.17g notes=%d", e.Int("epoch"), e.Float("score"), len(e.MustGet("notes").(*flor.StringVal).V)), nil
				}),
			}},
		}
	}
}

// TestChangeAwareCaptureMatchesBaselineMatrix is the program-level equivalence
// oracle of the change-aware capture path: changingFactory recorded with Fork
// and with Plasma — which compare before they copy and offer the store the
// hashes of chunks they found unchanged — against Baseline, which owns no
// buffer from one checkpoint to the next and hashes every byte, on each of
// the two writer layouts. Everything on disk must be Baseline's byte for
// byte, except the two files that hold stopwatch readings — timings.log, and
// the manifest, whose records (every directory included) are compared byte
// for byte with the meta records' three stopwatch fields zeroed — and a
// replay that restores every checkpoint must log what Baseline's replay
// logs.
func TestChangeAwareCaptureMatchesBaselineMatrix(t *testing.T) {
	const epochs = 5
	factory := changingFactory(epochs)
	probed := func() *flor.Program {
		p := factory()
		p.Main.Body = flor.AddLog(p.Main.Body, 3, flor.LogStmt("hs", func(e *flor.Env) (string, error) {
			sum := 0.0
			for _, name := range []string{"frozen", "hot", "table"} {
				sum += e.MustGet(name).(*flor.TensorVal).T.Sum()
			}
			return fmt.Sprintf("%.17g", sum), nil
		}))
		return p
	}
	type recorded struct {
		files     map[string]string
		metas     []store.Meta
		base, hs  []string
		recordLog []string
	}
	record := func(t *testing.T, strat flor.Strategy, layout func(t testing.TB, base string) []flor.Option) recorded {
		t.Helper()
		base := t.TempDir()
		dir := filepath.Join(base, "run")
		opts := append(layout(t, base), flor.DisableAdaptiveCheckpointing(), flor.WithStrategy(strat))
		rec, err := flor.Record(dir, factory, opts...)
		if err != nil {
			t.Fatalf("%s: record: %v", strat, err)
		}
		if rec.Checkpoints != 3*epochs {
			t.Fatalf("%s: %d checkpoints, want %d", strat, rec.Checkpoints, 3*epochs)
		}
		out := recorded{files: dirBytes(t, base), recordLog: rec.Logs}
		st, err := store.OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range st.Metas() {
			m := *m
			m.MaterNs, m.SnapNs, m.ComputNs = 0, 0, 0
			out.metas = append(out.metas, m)
		}
		for _, run := range []struct {
			logs    *[]string
			factory func() *flor.Program
			opts    []flor.Option
		}{
			{&out.base, factory, []flor.Option{flor.Workers(2)}},
			{&out.hs, probed, []flor.Option{flor.Workers(3), flor.Init(flor.WeakInit)}},
		} {
			res, err := flor.Replay(dir, run.factory, run.opts...)
			if err != nil {
				t.Fatalf("%s: replay: %v", strat, err)
			}
			if len(res.Anomalies) != 0 {
				t.Fatalf("%s: replay anomalies %v", strat, res.Anomalies)
			}
			*run.logs = res.Logs
		}
		return out
	}

	for _, l := range []struct {
		name   string
		layout func(t testing.TB, base string) []flor.Option
	}{
		{"v2", func(testing.TB, string) []flor.Option { return nil }},
		{"v2-pooled", func(_ testing.TB, base string) []flor.Option {
			return []flor.Option{flor.Pool(filepath.Join(base, "POOL"))}
		}},
	} {
		t.Run(l.name, func(t *testing.T) {
			want := record(t, flor.StrategyBaseline, l.layout)
			for _, strat := range []flor.Strategy{flor.StrategyFork, flor.StrategyPlasma} {
				got := record(t, strat, l.layout)
				if !slices.Equal(got.metas, want.metas) {
					t.Fatalf("%s: metas\n%+v\nBaseline's\n%+v", strat, got.metas, want.metas)
				}
				if len(got.files) != len(want.files) {
					t.Fatalf("%s wrote %d files, Baseline %d", strat, len(got.files), len(want.files))
				}
				for name, w := range want.files {
					g, ok := got.files[name]
					if !ok {
						t.Fatalf("%s did not write %s", strat, name)
					}
					switch filepath.Base(name) {
					case "timings.log":
					case "MANIFEST":
						if !slices.Equal(manifestSansStopwatch(t, g), manifestSansStopwatch(t, w)) {
							t.Fatalf("%s: %s differs from Baseline's beyond its stopwatch fields", strat, name)
						}
					default:
						if g != w {
							t.Fatalf("%s: %s differs from Baseline's (%d vs %d bytes)", strat, name, len(g), len(w))
						}
					}
				}
				for _, logs := range [][2][]string{{got.recordLog, want.recordLog}, {got.base, want.base}, {got.hs, want.hs}} {
					if err := sameLogs(logs[0], logs[1]); err != nil {
						t.Fatalf("%s: logs diverge from Baseline's: %v", strat, err)
					}
				}
			}
		})
	}
}

// manifestSansStopwatch returns a MANIFEST's record payloads, each meta
// record with its materNs, snapNs and computNs — the fields that hold
// stopwatch readings — zeroed, and every other byte, directories included,
// as written.
func manifestSansStopwatch(t *testing.T, manifest string) []string {
	t.Helper()
	var out []string
	for b := []byte(manifest); len(b) > 0; {
		payload, n, err := codec.Unframe(b)
		if err != nil {
			t.Fatal(err)
		}
		b = b[n:]
		if payload[0] == 'M' {
			r, w := codec.NewReader(payload[1:]), codec.NewWriter()
			w.RawAppend([]byte{'M'})
			loop, err := r.String()
			w.String(loop)
			// exec, seq, size, gzSize, then the three stopwatch fields
			for i := 0; i < 7 && err == nil; i++ {
				var v int
				if v, err = r.Int(); i >= 4 {
					v = 0
				}
				w.Int(v)
			}
			if err != nil {
				t.Fatal(err)
			}
			w.RawAppend(payload[len(payload)-r.Remaining():])
			payload = w.Bytes()
		}
		out = append(out, string(payload))
	}
	return out
}

// TestDemandLoadMatrixMatchesUninstrumentedRun is the equivalence matrix of
// demand-driven checkpoint loading: one program recorded into each writer
// layout and uploaded as a remote twin, replayed with a hindsight probe that
// reads one checkpointed name (the other name of every skipped epoch is never
// loaded) and with one that reads every checkpointed name (everything is, as
// it was when a skip loaded its whole checkpoint), at each worker count and
// initialization mode, each worker with a private payload cache and then all
// of them sharing one: from the third replay on the shared cache holds what
// the one-name probe reads, so its reads are views of the cached tensors.
// Every replay must log, byte for byte, what running the probed program with
// no instrumentation at all logs.
func TestDemandLoadMatrixMatchesUninstrumentedRun(t *testing.T) { demandLoadMatrix(t, false) }

// TestDemandLoadMatrixOnThePortableLoop is the matrix with every replay's
// SumSquares on the portable loop, against recordings and uninstrumented
// runs made on the host's kernel (AVX2 where the CPU has it): a run recorded
// on an AVX2 machine logs the same norm bits when it is replayed on any
// other.
func TestDemandLoadMatrixOnThePortableLoop(t *testing.T) { demandLoadMatrix(t, true) }

// tensorUseAVX2 is internal/tensor's kernel switch, set once at its init.
//
//go:linkname tensorUseAVX2 flor.dev/flor/internal/tensor.useAVX2
var tensorUseAVX2 bool

func demandLoadMatrix(t *testing.T, portableReplays bool) {
	factory := compressibleFactory(7, 2)
	probe := func(label string, eval func(e *flor.Env) (string, error)) func() *flor.Program {
		return func() *flor.Program {
			p := factory()
			p.Main.Body = flor.AddLog(p.Main.Body, 1, flor.LogStmt(label, eval))
			return p
		}
	}
	norm := func(e *flor.Env) string {
		return fmt.Sprintf("%.17g", e.MustGet("emb").(*flor.TensorVal).T.Norm())
	}
	probes := []struct {
		name    string
		factory func() *flor.Program
		want    []string
	}{
		{"one-name", probe("hs", func(e *flor.Env) (string, error) { return norm(e), nil }), nil},
		{"every-name", probe("hs", func(e *flor.Env) (string, error) {
			return fmt.Sprintf("%s rng=%x", norm(e), e.MustGet("rng").(*flor.RNGVal).R.State()), nil
		}), nil},
	}

	poolRoot := filepath.Join(t.TempDir(), "POOL")
	layouts := []struct {
		name string
		opts []flor.Option
	}{
		{"private", nil},
		{"pooled", []flor.Option{flor.Pool(poolRoot)}},
	}
	type opener struct {
		name string
		open func() (*replay.Recording, error)
	}
	var stores []opener
	for _, l := range layouts {
		dir := t.TempDir()
		if _, err := flor.Record(dir, factory, append([]flor.Option{flor.DisableAdaptiveCheckpointing()}, l.opts...)...); err != nil {
			t.Fatalf("%s: record: %v", l.name, err)
		}
		stores = append(stores, opener{l.name, func() (*replay.Recording, error) { return core.LoadRecordingShared(dir) }})
		if l.name != "private" {
			continue
		}
		mem, ctl := uploadTwin(t, dir)
		cache, err := cachetier.New("", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, opener{"remote twin", func() (*replay.Recording, error) {
			backend := remote.NewObjectBackend(mem, remote.PacksPrefix("runs/twin"), cache)
			return core.LoadRecordingWith(ctl, store.Options{ReadOnly: true, Backend: backend})
		}})
	}

	for i, pr := range probes {
		var err error
		if probes[i].want, _, err = flor.Vanilla(pr.factory); err != nil {
			t.Fatalf("%s: uninstrumented run: %v", pr.name, err)
		}
	}
	if portableReplays {
		host := tensorUseAVX2
		tensorUseAVX2 = false
		defer func() { tensorUseAVX2 = host }()
	}
	for _, pr := range probes {
		for _, s := range stores {
			rec, err := s.open()
			if err != nil {
				t.Fatalf("%s: open: %v", s.name, err)
			}
			for _, cache := range []*backmat.PayloadCache{nil, backmat.NewPayloadCache(0)} {
				for _, workers := range []int{1, 2, 4} {
					for _, init := range []replay.InitMode{replay.Weak, replay.Strong} {
						res, err := replay.Replay(rec, pr.factory, replay.Options{Workers: workers, Init: init, Cache: cache})
						if err != nil {
							t.Fatalf("%s %s workers=%d init=%v shared cache=%v: %v", pr.name, s.name, workers, init, cache != nil, err)
						}
						if len(res.Anomalies) != 0 {
							t.Fatalf("%s %s workers=%d init=%v shared cache=%v: anomalies %v", pr.name, s.name, workers, init, cache != nil, res.Anomalies)
						}
						if err := sameLogs(pr.want, res.Logs); err != nil {
							t.Fatalf("%s %s workers=%d init=%v shared cache=%v: replay differs from the uninstrumented run: %v",
								pr.name, s.name, workers, init, cache != nil, err)
						}
					}
				}
			}
		}
	}
}

// TestRemoteReadFaultFailsTheStatementTyped is the remote half of the load
// error path: every GET of the twin's object store faults and the retries run
// out, inside the load a log statement's Env.MustGet triggered. The statement,
// and with it the replay or the sample, fails with the typed error — no
// panic, no result carrying the lines of epochs that had loaded.
func TestRemoteReadFaultFailsTheStatementTyped(t *testing.T) {
	factory := compressibleFactory(5, 2)
	dir := t.TempDir()
	if _, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing()); err != nil {
		t.Fatalf("record: %v", err)
	}
	mem, ctl := uploadTwin(t, dir)
	policy := remote.Policy{Attempts: 2, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond, Timeout: time.Second}
	// The first reads succeed, so an epoch has loaded before one fails.
	fb := faultbackend.WrapObject(mem, faultbackend.Config{ReadErrNth: 1})
	gate := &gatedObject{ObjectStore: mem, faulty: fb, after: 2}
	backend := remote.NewObjectBackend(remote.Retry(gate, policy), remote.PacksPrefix("runs/twin"), nil)
	rec, err := core.LoadRecordingWith(ctl, store.Options{ReadOnly: true, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	typed := func(err error) bool {
		return err != nil && (errors.Is(err, remote.ErrExhausted) || errors.Is(err, faultbackend.ErrInjected)) &&
			strings.Contains(err.Error(), `script: log "`)
	}
	if res, err := replay.Replay(rec, factory, replay.Options{Workers: 1}); !typed(err) || res != nil {
		t.Fatalf("replay over the faulting store = %v, %v; want the typed fault out of a log statement and no result", res, err)
	}
	if res, err := replay.ReplaySample(rec, factory, []int{3}); !typed(err) || res != nil {
		t.Fatalf("sample over the faulting store = %v, %v; want the typed fault out of a log statement and no result", res, err)
	}
	if fb.Injected() == 0 {
		t.Fatalf("%d reads, no fault: the replay never got as far as a faulting read", gate.reads.Load())
	}
}

// gatedObject serves the first `after` ranged reads from the intact store and
// every later one from the faulty wrapper.
type gatedObject struct {
	remote.ObjectStore
	faulty remote.ObjectStore
	after  int64
	reads  atomic.Int64
}

func (g *gatedObject) GetRange(key string, off, n int64) ([]byte, error) {
	if g.reads.Add(1) > g.after {
		return g.faulty.GetRange(key, off, n)
	}
	return g.ObjectStore.GetRange(key, off, n)
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
