package flor_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	flor "flor.dev/flor"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/remote"
)

// legacyFixtures are the committed stores older builds left, each in a
// layout this build reads but does not write, with the program it records:
//
//   - v1run: format v1, one bundle per checkpoint in a segment file;
//   - framestyles/{deflate,lz4}: marker "2" and "2 lz4", deflate and LZ4
//     frames, segment-file checkpoints;
//   - gztwins: marker "2 gc", segment files, gzip twins and a retired pack;
//   - sharded: marker "2 shards=4 dirs";
//   - private2dirs: marker "2 dirs", chunk records in its MANIFEST, the
//     program recorded twice into one directory, so every key is superseded
//     once;
//   - multiroot: a "2 shards=4 dirs" run at run/ whose SHARDS file spreads
//     its packs over ../rootA and ../rootB;
//   - pool4: a "pool1 shards=4" pool holding one run, at run/.
var legacyFixtures = []struct {
	name    string
	factory func() *flor.Program
}{
	{"v1run", counterFactory(6, 3)},
	{"framestyles/deflate", compressibleFactory(5, 2)},
	{"framestyles/lz4", compressibleFactory(5, 2)},
	{"gztwins", counterFactory(6, 3)},
	{"sharded", counterFactory(6, 3)},
	{"private2dirs", counterFactory(6, 3)},
	{"multiroot", counterFactory(6, 3)},
	{"pool4", counterFactory(6, 3)},
}

// fixtureRun returns the run directory of a fixture copy at root, and its
// pool root when the fixture is a pool.
func fixtureRun(root string) (run, pool string) {
	if _, err := os.Stat(filepath.Join(root, "run")); err != nil {
		return root, ""
	}
	if _, err := os.Stat(filepath.Join(root, "POOL")); err == nil {
		pool = root
	}
	return filepath.Join(root, "run"), pool
}

// recordLog returns the lines of a run's record.log.
func recordLog(t testing.TB, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "record.log"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
}

// sectionIdentities returns, for every live checkpoint of the run at dir,
// its sections' names, content identities (the hash of their chunk hashes)
// and lengths, read from the directories alone.
func sectionIdentities(t testing.TB, dir string) map[store.Key]string {
	t.Helper()
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[store.Key]string{}
	for _, m := range st.Metas() {
		if live, _ := st.Lookup(m.Key); live.Seq != m.Seq {
			continue
		}
		c, err := st.Resolve(m.Key)
		if err != nil {
			t.Fatalf("%s: %v", m.Key, err)
		}
		names, err := c.ReadInto(func(string) bool { return false }, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, n := range names {
			sec, _ := c.Section(n.Name)
			fmt.Fprintf(&b, "%q %s %d; ", sec.Name, sec.Hash, sec.RawLen)
		}
		out[m.Key] = b.String()
	}
	return out
}

// migrated migrates the run at src into a fresh directory — a private store,
// or a run of the pool at pool — and returns it, once its FORMAT marker is
// one of the two this build writes and every live checkpoint's sections
// carry the content identities of the source's.
func migrated(t testing.TB, src, pool string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "migrated")
	if err := core.Migrate(src, dst, pool); err != nil {
		t.Fatalf("migrate %s: %v", src, err)
	}
	want := "2 dirs index\n"
	if pool != "" {
		want = "2 pool shards=16 dirs\n"
	}
	if m, err := os.ReadFile(filepath.Join(dst, "FORMAT")); err != nil || string(m) != want {
		t.Fatalf("migrated FORMAT %q (%v), want %q", m, err, want)
	}
	got, wantIDs := sectionIdentities(t, dst), sectionIdentities(t, src)
	if len(got) == 0 || !maps.Equal(got, wantIDs) {
		t.Fatalf("migrated sections\n%v\nsource's\n%v", got, wantIDs)
	}
	return dst
}

// TestLegacyLayoutsRefuseWritesAndStillRead takes a copy of every committed
// fixture through every write and every read. Recording into it, recording a
// new run into its pool, a writable store open and a pool GC each fail with
// store.ErrLegacyLayout. Replay, sample, a served replay and, for the runs
// with a private pack, a replay of the run uploaded with UploadRun and read
// back through the object backend each log what its record.log holds. None
// of it changes a byte of the copy.
func TestLegacyLayoutsRefuseWritesAndStillRead(t *testing.T) {
	for _, fx := range legacyFixtures {
		t.Run(fx.name, func(t *testing.T) {
			root := copyFixture(t, fx.name)
			run, pool := fixtureRun(root)
			want := recordLog(t, run)
			before := dirBytes(t, root)

			legacy := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, store.ErrLegacyLayout) || !strings.Contains(err.Error(), "florctl migrate") {
					t.Fatalf("%s: %v, want ErrLegacyLayout naming florctl migrate", what, err)
				}
			}
			_, err := flor.Record(run, fx.factory, flor.DisableAdaptiveCheckpointing())
			legacy("record", err)
			_, err = store.Open(run)
			legacy("writable open", err)
			if pool != "" {
				_, err = flor.Record(filepath.Join(t.TempDir(), "run"), fx.factory, flor.DisableAdaptiveCheckpointing(), flor.Pool(pool))
				legacy("record into the pool", err)
				_, err = store.GCPool(pool, store.GCOptions{})
				legacy("pool GC", err)
			}

			res, err := flor.Replay(run, fx.factory, flor.Workers(2))
			if err != nil || len(res.Anomalies) != 0 {
				t.Fatalf("replay: %v, %+v", err, res)
			}
			if err := sameLogs(want, res.Logs); err != nil {
				t.Fatalf("replay differs from record.log: %v", err)
			}
			sampled, err := flor.ReplaySampled(run, fx.factory, []int{4, 1})
			if err != nil {
				t.Fatalf("sample: %v", err)
			}
			if err := sameLogs([]string{want[1], want[4]}, sampled.Logs); err != nil {
				t.Fatalf("sample differs from record.log's lines: %v", err)
			}

			srv := serve.New(serve.Options{})
			defer srv.Shutdown(context.Background())
			if err := srv.Register(serve.RunConfig{ID: "legacy", Dir: run, Factories: map[string]func() *flor.Program{"": fx.factory}}); err != nil {
				t.Fatalf("register: %v", err)
			}
			resp, err := srv.Replay(context.Background(), "legacy", serve.ReplayRequest{Workers: 2})
			if err != nil || resp.Anomalies != 0 {
				t.Fatalf("served replay: %+v, %v", resp, err)
			}
			if err := sameLogs(want, resp.Logs); err != nil {
				t.Fatalf("served replay differs from record.log: %v", err)
			}

			if pool == "" {
				mem, ctl := uploadTwin(t, run)
				backend := remote.NewObjectBackend(mem, remote.PacksPrefix("runs/twin"), nil)
				rec, err := core.LoadRecordingWith(ctl, store.Options{ReadOnly: true, Backend: backend})
				if err != nil {
					t.Fatalf("open the uploaded run: %v", err)
				}
				res, err := replay.Replay(rec, fx.factory, replay.Options{Workers: 2})
				if err != nil || len(res.Anomalies) != 0 {
					t.Fatalf("remote replay: %v, %+v", err, res)
				}
				if err := sameLogs(want, res.Logs); err != nil {
					t.Fatalf("remote replay differs from record.log: %v", err)
				}
			}
			if !maps.Equal(before, dirBytes(t, root)) {
				t.Fatal("the refused writes or the reads changed the fixture")
			}
		})
	}
}

// TestMigrateEveryFixtureReplaysIdentically migrates a copy of every
// committed fixture into a private store and into a fresh shared pool. Each
// migrated run carries one of the two markers this build writes and the
// source's section identities (migrated checks both), replays what its
// record.log holds at 1, 2 and 4 workers under weak and strong
// initialization, and takes writes: a put and a GC pass. The source, its
// pool included, is not changed by a byte. A migration into a directory
// that is not empty, or into a pool this build does not write, is refused;
// the latter creates no destination.
func TestMigrateEveryFixtureReplaysIdentically(t *testing.T) {
	legacyPool := copyFixture(t, "pool4")
	for _, fx := range legacyFixtures {
		t.Run(fx.name, func(t *testing.T) {
			root := copyFixture(t, fx.name)
			run, _ := fixtureRun(root)
			want := recordLog(t, run)
			before := dirBytes(t, root)
			for _, pool := range []string{"", filepath.Join(t.TempDir(), "POOL")} {
				dst := migrated(t, run, pool)
				committedInManifest(t, dst)
				for _, workers := range []int{1, 2, 4} {
					for _, init := range []flor.InitMode{flor.WeakInit, flor.StrongInit} {
						res, err := flor.Replay(dst, fx.factory, flor.Workers(workers), flor.Init(init))
						if err != nil || len(res.Anomalies) != 0 {
							t.Fatalf("pool=%q workers=%d init=%v: replay: %v, %+v", pool, workers, init, err, res)
						}
						if err := sameLogs(want, res.Logs); err != nil {
							t.Fatalf("pool=%q workers=%d init=%v: replay differs from record.log: %v", pool, workers, init, err)
						}
					}
				}
				st, err := store.Open(dst)
				if err != nil {
					t.Fatalf("pool=%q: writable open of the migrated run: %v", pool, err)
				}
				last := st.Metas()[len(st.Metas())-1].Key
				secs, err := readAll(st, last)
				if err == nil {
					_, err = st.PutSections(last, secs, 0, 0, 0)
				}
				if err == nil {
					_, err = st.GC()
				}
				if err != nil {
					t.Fatalf("pool=%q: put and GC on the migrated run: %v", pool, err)
				}
			}
			if !maps.Equal(before, dirBytes(t, root)) {
				t.Fatal("migration changed its source")
			}
			busy := t.TempDir()
			if err := os.WriteFile(filepath.Join(busy, "PROGRAM"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := core.Migrate(run, busy, ""); err == nil {
				t.Fatal("migrating into a directory that is not empty succeeded")
			}
			dst := filepath.Join(t.TempDir(), "run")
			if err := core.Migrate(run, dst, legacyPool); !errors.Is(err, store.ErrLegacyLayout) {
				t.Fatalf("migrating into a fanout-4 pool: %v, want ErrLegacyLayout", err)
			}
			if _, err := os.Stat(dst); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("the refused migration left its destination: %v", err)
			}
		})
	}
}

// TestReplayNeverWrites replays and samples a copy of every committed
// fixture and of two runs recorded now, one private and one in a shared
// pool, and asserts that every file is byte-identical before and after: a
// hindsight query only reads the run it asks about.
func TestReplayNeverWrites(t *testing.T) {
	type target struct {
		name, root string
		factory    func() *flor.Program
	}
	var targets []target
	for _, fx := range legacyFixtures {
		targets = append(targets, target{fx.name, copyFixture(t, fx.name), fx.factory})
	}
	factory := counterFactory(6, 3)
	fresh, pooled := t.TempDir(), t.TempDir()
	if _, err := flor.Record(fresh, factory, flor.DisableAdaptiveCheckpointing()); err != nil {
		t.Fatal(err)
	}
	if _, err := flor.Record(filepath.Join(pooled, "run"), factory, flor.DisableAdaptiveCheckpointing(), flor.Pool(filepath.Join(pooled, "POOL"))); err != nil {
		t.Fatal(err)
	}
	targets = append(targets, target{"recorded", fresh, factory}, target{"recorded pooled", pooled, factory})
	for _, tg := range targets {
		run, _ := fixtureRun(tg.root)
		before := dirBytes(t, tg.root)
		if _, err := flor.Replay(run, tg.factory, flor.Workers(2)); err != nil {
			t.Fatalf("%s: replay: %v", tg.name, err)
		}
		if _, err := flor.ReplaySampled(run, tg.factory, []int{2}); err != nil {
			t.Fatalf("%s: sample: %v", tg.name, err)
		}
		after := dirBytes(t, tg.root)
		for name := range maps.Keys(before) {
			if after[name] != before[name] {
				t.Errorf("%s: replay changed %s", tg.name, name)
			}
		}
		for name := range maps.Keys(after) {
			if _, ok := before[name]; !ok {
				t.Errorf("%s: replay wrote %s", tg.name, name)
			}
		}
	}
}
