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

	flor "flor.dev/flor"
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
// matrix: the same program as a legacy v1 run (the committed fixture), and
// recorded into an unsharded v2 store, a hash-prefix sharded v2 store, and a
// pooled store (shared chunk pool) must open through the same API — no
// flags, no layout hints — and replay byte-identical logs, with the legacy
// run's replay as the reference. In particular the pooled run is the
// private-pack run's twin: same program, same probes, byte-identical replay
// output.
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
		name   string
		record func(dir string) error
		layout string
	}{
		{"v1", copyV1Fixture, "v1"},
		{"v2", func(dir string) error {
			_, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing())
			return err
		}, "v2"},
		{"v2-sharded", func(dir string) error {
			_, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing(), flor.Shards(16))
			return err
		}, "v2-sharded/16"},
		{"v2-pooled", func(dir string) error {
			_, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing(), flor.Pool(poolRoot), flor.Shards(16))
			return err
		}, "v2-pooled/16"},
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
		l, err := store.DetectLayout(dir)
		if err != nil {
			t.Fatalf("%s: detect layout: %v", v.name, err)
		}
		if l.String() != v.layout {
			t.Fatalf("%s: layout = %s, want %s", v.name, l, v.layout)
		}
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

// TestV1RunServedAndNeverWritten pins the write side of v1 read-compat: the
// legacy fixture registers with the serving daemon as layout "v1" and answers
// a replay there, recording into it fails at open with ErrReadOnly and a
// message naming the directory, and none of that touches a byte of it.
func TestV1RunServedAndNeverWritten(t *testing.T) {
	factory := counterFactory(6, 3)
	dir := t.TempDir()
	if err := copyV1Fixture(dir); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)

	srv := serve.New(serve.Options{})
	defer srv.Shutdown(context.Background())
	if err := srv.Register(serve.RunConfig{ID: "legacy", Dir: dir, Factories: map[string]func() *flor.Program{"": factory}}); err != nil {
		t.Fatalf("register v1 run: %v", err)
	}
	if runs := srv.Runs(); len(runs) != 1 || runs[0].Format != "v1" {
		t.Fatalf("registered runs = %+v, want one of format v1", runs)
	}
	resp, err := srv.Replay(context.Background(), "legacy", serve.ReplayRequest{Workers: 2})
	if err != nil || resp.Anomalies != 0 || len(resp.Logs) == 0 {
		t.Fatalf("served replay of the v1 run: %+v, %v", resp, err)
	}

	_, err = flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing())
	if !errors.Is(err, store.ErrReadOnly) || !strings.Contains(err.Error(), dir) {
		t.Fatalf("record into a v1 run: err = %v, want ErrReadOnly naming %s", err, dir)
	}
	if after := dirBytes(t, dir); !maps.Equal(before, after) {
		t.Fatal("serving and the refused record changed the v1 run directory")
	}
}

// compressibleFactory builds a program whose checkpoint payloads compress
// well: a mostly-zero embedding table with a handful of entries touched per
// step. Long zero runs give LZ4 real matches, so forced-LZ4 recordings
// commit actual LZ4 frames instead of falling back to raw — which is what
// the restore matrix needs to exercise the LZ4 decode path.
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
// matrix: the same program recorded under each frame style (adaptive,
// forced deflate, forced LZ4) must replay byte-identical logs whether the
// pack bytes arrive through vectored reads of a file descriptor or staged
// ranged reads, and at any worker count. It also pins the LZ4 marker latch: only
// the store that committed LZ4 frames carries the "lz4" FORMAT token that
// makes older builds refuse it.
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

	styles := []struct {
		name    string
		opts    []flor.Option
		wantLZ4 bool
	}{
		{"auto", nil, false},
		{"deflate", []flor.Option{flor.WithFrameStyle(flor.FrameStyleDeflate)}, false},
		{"lz4", []flor.Option{flor.WithFrameStyle(flor.FrameStyleLZ4)}, true},
	}

	var ref []string
	for _, sv := range styles {
		dir := t.TempDir()
		opts := append([]flor.Option{flor.DisableAdaptiveCheckpointing()}, sv.opts...)
		if _, err := flor.Record(dir, factory, opts...); err != nil {
			t.Fatalf("%s: record: %v", sv.name, err)
		}
		marker, err := os.ReadFile(filepath.Join(dir, "FORMAT"))
		if err != nil {
			t.Fatalf("%s: read marker: %v", sv.name, err)
		}
		if hasLZ4 := strings.Contains(string(marker), "lz4"); hasLZ4 != sv.wantLZ4 {
			t.Fatalf("%s: marker %q lz4 token = %v, want %v", sv.name, marker, hasLZ4, sv.wantLZ4)
		}
		// The IO axis is chosen the way production chooses it — by what the
		// backend's pack readers can do: the plain directory backend hands out
		// files (vectored preadv on Linux), the same backend behind a
		// zero-fault wrapper hands out readers with no descriptor (staged
		// ReadAt spans).
		ios := []struct {
			name    string
			backend func() store.Backend
		}{
			{"vectored", func() store.Backend { return nil }},
			{"staged", func() store.Backend {
				db, err := store.NewDirBackend(dir)
				if err != nil {
					t.Fatal(err)
				}
				return faultbackend.WrapBackend(db, faultbackend.Config{})
			}},
		}
		for _, iom := range ios {
			for _, workers := range []int{1, 3} {
				rec, err := core.LoadRecordingWith(dir, store.Options{ReadOnly: true, Backend: iom.backend()})
				if err != nil {
					t.Fatalf("%s io=%s: open: %v", sv.name, iom.name, err)
				}
				res, err := replay.Replay(rec, probed, replay.Options{Workers: workers, Init: replay.Weak})
				if err != nil {
					t.Fatalf("%s io=%s workers=%d: replay: %v", sv.name, iom.name, workers, err)
				}
				if len(res.Anomalies) != 0 {
					t.Fatalf("%s io=%s workers=%d: anomalies %v", sv.name, iom.name, workers, res.Anomalies)
				}
				if ref == nil {
					ref = res.Logs
				} else if err := sameLogs(ref, res.Logs); err != nil {
					t.Fatalf("%s io=%s workers=%d: logs diverge: %v", sv.name, iom.name, workers, err)
				}
			}
		}
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
	for _, marker := range []string{"3", "2 shards=banana", "2 pool", "2 pool shards=16 v3", "2 gc shards=16", "2 lz4 gc", "2 lz4x"} {
		dir := t.TempDir()
		if _, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing()); err != nil {
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
		if err := os.WriteFile(filepath.Join(dir, "FORMAT"), []byte("2\n"), 0o644); err != nil {
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
// tier.
func TestMigrationRemoteTwinByteIdentical(t *testing.T) {
	factory := compressibleFactory(5, 2)
	dir := t.TempDir()
	if _, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing(), flor.Shards(8)); err != nil {
		t.Fatalf("record: %v", err)
	}
	local, err := flor.Replay(dir, factory, flor.Workers(2))
	if err != nil {
		t.Fatalf("local replay: %v", err)
	}
	if len(local.Anomalies) != 0 {
		t.Fatalf("local anomalies %v", local.Anomalies)
	}

	mem, ctl := uploadTwin(t, dir)
	cache, err := cachetier.NewWithBlockSize("", 32<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	open := func() (*replay.Recording, error) {
		backend := remote.NewObjectBackend(mem, remote.PacksPrefix("runs/twin"), cache)
		return core.LoadRecordingWith(ctl, store.Options{ReadOnly: true, Backend: backend})
	}
	run := func(label string) store.FetchSnapshot {
		rec, err := open()
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

	cold := run("cold")
	if cold.RemoteBytes == 0 {
		t.Fatalf("cold replay fetched nothing remotely: %+v", cold)
	}
	warm := run("warm")
	total := warm.RemoteBytes + warm.CacheTierBytes
	if total == 0 || warm.CacheTierBytes*10 < total*9 {
		t.Fatalf("warm replay served %d of %d pack bytes from the cache tier, want >= 90%%", warm.CacheTierBytes, total)
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
// the three writer layouts. Everything on disk must be Baseline's byte for
// byte, except the two files that hold stopwatch readings — timings.log, and
// the manifest, whose meta records are compared field for field without
// theirs — and a replay that restores every checkpoint must log what
// Baseline's replay logs.
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
	record := func(t *testing.T, strat flor.Strategy, layout func(base string) []flor.Option) recorded {
		t.Helper()
		base := t.TempDir()
		dir := filepath.Join(base, "run")
		opts := append(layout(base), flor.DisableAdaptiveCheckpointing(), flor.WithStrategy(strat))
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
		layout func(base string) []flor.Option
	}{
		{"v2", func(string) []flor.Option { return nil }},
		{"v2-sharded", func(string) []flor.Option { return []flor.Option{flor.Shards(16)} }},
		{"v2-pooled", func(base string) []flor.Option {
			return []flor.Option{flor.Pool(filepath.Join(base, "POOL")), flor.Shards(16)}
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
					if stopwatch := filepath.Base(name) == "MANIFEST" || filepath.Base(name) == "timings.log"; !stopwatch && g != w {
						t.Fatalf("%s: %s differs from Baseline's (%d vs %d bytes)", strat, name, len(g), len(w))
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

// TestDemandLoadMatrixMatchesUninstrumentedRun is the equivalence matrix of
// demand-driven checkpoint loading: one program recorded into each writer
// layout and uploaded as a remote twin, replayed with a hindsight probe that
// reads one checkpointed name (the other name of every skipped epoch is never
// loaded) and with one that reads every checkpointed name (everything is, as
// it was when a skip loaded its whole checkpoint), at each worker count and
// initialization mode. Every replay must log, byte for byte, what running the
// probed program with no instrumentation at all logs.
func TestDemandLoadMatrixMatchesUninstrumentedRun(t *testing.T) {
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
	}{
		{"one-name", probe("hs", func(e *flor.Env) (string, error) { return norm(e), nil })},
		{"every-name", probe("hs", func(e *flor.Env) (string, error) {
			return fmt.Sprintf("%s rng=%x", norm(e), e.MustGet("rng").(*flor.RNGVal).R.State()), nil
		})},
	}

	poolRoot := filepath.Join(t.TempDir(), "POOL")
	layouts := []struct {
		name string
		opts []flor.Option
	}{
		{"private", nil},
		{"sharded", []flor.Option{flor.Shards(8)}},
		{"pooled", []flor.Option{flor.Pool(poolRoot), flor.Shards(4)}},
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
		if l.name != "sharded" {
			continue
		}
		mem, ctl := uploadTwin(t, dir)
		cache, err := cachetier.NewWithBlockSize("", 1<<20, 16<<10)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, opener{"remote twin", func() (*replay.Recording, error) {
			backend := remote.NewObjectBackend(mem, remote.PacksPrefix("runs/twin"), cache)
			return core.LoadRecordingWith(ctl, store.Options{ReadOnly: true, Backend: backend})
		}})
	}

	for _, pr := range probes {
		want, _, err := flor.Vanilla(pr.factory)
		if err != nil {
			t.Fatalf("%s: uninstrumented run: %v", pr.name, err)
		}
		for _, s := range stores {
			rec, err := s.open()
			if err != nil {
				t.Fatalf("%s: open: %v", s.name, err)
			}
			for _, workers := range []int{1, 2, 4} {
				for _, init := range []replay.InitMode{replay.Weak, replay.Strong} {
					res, err := replay.Replay(rec, pr.factory, replay.Options{Workers: workers, Init: init})
					if err != nil {
						t.Fatalf("%s %s workers=%d init=%v: %v", pr.name, s.name, workers, init, err)
					}
					if len(res.Anomalies) != 0 {
						t.Fatalf("%s %s workers=%d init=%v: anomalies %v", pr.name, s.name, workers, init, res.Anomalies)
					}
					if err := sameLogs(want, res.Logs); err != nil {
						t.Fatalf("%s %s workers=%d init=%v: replay differs from the uninstrumented run: %v",
							pr.name, s.name, workers, init, err)
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
	if _, err := flor.Record(dir, factory, flor.DisableAdaptiveCheckpointing(), flor.Shards(4)); err != nil {
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
