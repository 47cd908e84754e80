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
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/serve"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/remote"
)

// legacyFixtures are the committed stores older builds left, each in a
// layout this build migrates but does not open, with the program it
// records:
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
//   - pool4: a "pool1 shards=4" pool holding one run, at run/;
//   - private2index: marker "2 dirs index", its chunk records in an INDEX
//     log, as the build before the packs became the log wrote it;
//   - pool16: a "pool1 shards=16" pool of that build, holding one leased
//     run, at run/;
//   - pool16packlog: a "pool2 shards=16" pool, its 16 hash-prefix packs the
//     log of its chunks, as the build before pools became one pack wrote
//     it, holding one leased run, at run/;
//   - private2packlog: marker "2 dirs packlog", a private store whose one
//     pack is the log of its chunks, as the build before every run named its
//     pool wrote it.
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
	{"private2index", counterFactory(6, 3)},
	{"pool16", counterFactory(6, 3)},
	{"pool16packlog", counterFactory(6, 3)},
	{"private2packlog", counterFactory(6, 3)},
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
// and lengths, read from the directories alone through a read-only open.
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

// legacyIdentities is sectionIdentities of a run in any layout, read through
// store.ReadLegacy, which is how a run an older build left is read.
func legacyIdentities(t testing.TB, dir string) map[store.Key]string {
	t.Helper()
	out := map[store.Key]string{}
	err := store.ReadLegacy(dir, func(m store.Meta, secs []store.Section) error {
		var b strings.Builder
		for _, sec := range secs {
			fmt.Fprintf(&b, "%q %s %d; ", sec.Name, sec.Hash, sec.RawLen)
		}
		out[m.Key] = b.String()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// migrated migrates the run at src into a fresh directory — a run that is
// its own pool, or a run of the pool at pool — and returns it, once its
// FORMAT marker is the one this build writes, its pool reference names the
// pool, and every live checkpoint's sections carry the content identities
// of the source's.
func migrated(t testing.TB, src, pool string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "migrated")
	if err := core.Migrate(src, dst, pool); err != nil {
		t.Fatalf("migrate %s: %v", src, err)
	}
	if m, err := os.ReadFile(filepath.Join(dst, "FORMAT")); err != nil || string(m) != "2 pool shards=1 dirs packlog\n" {
		t.Fatalf("migrated FORMAT %q (%v)", m, err)
	}
	if _, own, err := store.PoolRef(dst); err != nil || own != (pool == "") {
		t.Fatalf("migrated run's pool: own %v (%v), want own %v", own, err, pool == "")
	}
	got, wantIDs := sectionIdentities(t, dst), legacyIdentities(t, src)
	if len(got) == 0 || !maps.Equal(got, wantIDs) {
		t.Fatalf("migrated sections\n%v\nsource's\n%v", got, wantIDs)
	}
	return dst
}

// TestMigrateRefusesTruncatedPacks pins core.Migrate's one source path on
// packs cut short: chunk records that point past their pack's end fail the
// migration with codec.ErrCorrupt — never a panic or an allocation sized by
// the record — and leave the source's bytes as they were, for every
// committed fixture that holds packs and for both layouts this build
// writes.
func TestMigrateRefusesTruncatedPacks(t *testing.T) {
	type source struct {
		run   string
		trees []string // what the run's packs sit under
	}
	sources := map[string]source{}
	for _, fx := range legacyFixtures {
		root := copyFixture(t, fx.name)
		run, _ := fixtureRun(root)
		sources[fx.name] = source{run, []string{root}}
	}
	private := migrated(t, sources["private2dirs"].run, "")
	pool := filepath.Join(t.TempDir(), "POOL")
	pooled := migrated(t, sources["private2dirs"].run, pool)
	sources["canonical private"] = source{private, []string{private}}
	sources["canonical pool"] = source{pooled, []string{pooled, pool}}
	for name, src := range sources {
		trees := src.trees
		var packs []string
		for _, tree := range trees {
			err := filepath.WalkDir(tree, func(path string, d os.DirEntry, err error) error {
				if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), "CHUNKS") {
					packs = append(packs, path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(packs) == 0 {
			if name != "v1run" {
				t.Fatalf("%s: no pack to truncate", name)
			}
			continue // every v1 checkpoint is its segment file
		}
		for _, pack := range packs {
			fi, err := os.Stat(pack)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(pack, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}
		before := map[string]map[string]string{}
		for _, tree := range trees {
			before[tree] = dirBytes(t, tree)
		}
		err := core.Migrate(src.run, filepath.Join(t.TempDir(), "migrated"), "")
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: migrate over truncated packs: %v; want codec.ErrCorrupt", name, err)
		}
		for _, tree := range trees {
			if !maps.Equal(before[tree], dirBytes(t, tree)) {
				t.Errorf("%s: the failed migration changed %s", name, tree)
			}
		}
	}
}

// TestLegacyLayoutsRefuseWritesAndStillRead takes a copy of every
// committed fixture through every path that opens a run: writes are
// refused, and so is every other open — the fixture is still read, once,
// by its migration. Recording into it,
// a writable and a read-only store open, replay, sample, registration with
// the serving daemon (Register and, under a register root, RegisterByName:
// a bad request, HTTP 400), UploadRun and, for the pool, recording a new
// run into it and a pool GC each fail with store.ErrLegacyLayout naming
// florctl migrate, and none of it changes a byte. Migrated, the run replays
// what its record.log holds, served and through UploadRun's object store
// too, and its sections keep the source's content identities.
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
			_, err = store.OpenReadOnly(run)
			legacy("read-only open", err)
			_, err = flor.Replay(run, fx.factory, flor.Workers(2))
			legacy("replay", err)
			_, err = flor.ReplaySampled(run, fx.factory, []int{4, 1})
			legacy("sample", err)
			factories := map[string]func() *flor.Program{"": fx.factory}
			srv := serve.New(serve.Options{Library: map[string]map[string]func() *flor.Program{"fx": factories}, RegisterRoot: root})
			defer srv.Shutdown(context.Background())
			err = srv.Register(serve.RunConfig{ID: "legacy", Dir: run, Factories: factories})
			legacy("register", err)
			if !errors.Is(err, serve.ErrBadRequest) {
				t.Fatalf("register: %v, want a bad request", err)
			}
			err = srv.RegisterByName("legacy", run, "fx")
			legacy("register by name", err)
			if !errors.Is(err, serve.ErrBadRequest) {
				t.Fatalf("register by name: %v, want a bad request", err)
			}
			_, err = remote.UploadRun(remote.NewMemStore(), run, "runs/legacy")
			legacy("upload", err)
			if pool != "" {
				_, err = flor.Record(filepath.Join(t.TempDir(), "run"), fx.factory, flor.DisableAdaptiveCheckpointing(), flor.Pool(pool))
				legacy("record into the pool", err)
				_, err = store.GCPool(pool, store.GCOptions{})
				legacy("pool GC", err)
			}
			if !maps.Equal(before, dirBytes(t, root)) {
				t.Fatal("the refusals changed the fixture")
			}

			dst := migrated(t, run, "")
			res, err := flor.Replay(dst, fx.factory, flor.Workers(2))
			if err != nil || len(res.Anomalies) != 0 {
				t.Fatalf("replay of the migrated run: %v, %+v", err, res)
			}
			if err := sameLogs(want, res.Logs); err != nil {
				t.Fatalf("the migrated run's replay differs from record.log: %v", err)
			}
			sampled, err := flor.ReplaySampled(dst, fx.factory, []int{4, 1})
			if err != nil {
				t.Fatalf("sample: %v", err)
			}
			if err := sameLogs([]string{want[1], want[4]}, sampled.Logs); err != nil {
				t.Fatalf("the migrated run's sample differs from record.log's lines: %v", err)
			}
			if err := srv.Register(serve.RunConfig{ID: "migrated", Dir: dst, Factories: factories}); err != nil {
				t.Fatalf("register the migrated run: %v", err)
			}
			resp, err := srv.Replay(context.Background(), "migrated", serve.ReplayRequest{Workers: 2})
			if err != nil || resp.Anomalies != 0 {
				t.Fatalf("served replay: %+v, %v", resp, err)
			}
			if err := sameLogs(want, resp.Logs); err != nil {
				t.Fatalf("served replay differs from record.log: %v", err)
			}
			mem, ctl := uploadTwin(t, dst)
			backend := remote.NewObjectBackend(mem, remote.PacksPrefix("runs/twin"), nil)
			rec, err := core.LoadRecordingWith(ctl, store.Options{ReadOnly: true, Backend: backend})
			if err != nil {
				t.Fatalf("open the uploaded run: %v", err)
			}
			rres, err := replay.Replay(rec, fx.factory, replay.Options{Workers: 2})
			if err != nil || len(rres.Anomalies) != 0 {
				t.Fatalf("remote replay: %v, %+v", err, rres)
			}
			if err := sameLogs(want, rres.Logs); err != nil {
				t.Fatalf("remote replay differs from record.log: %v", err)
			}
			if !maps.Equal(before, dirBytes(t, root)) {
				t.Fatal("the migration changed its source")
			}
		})
	}
}

// TestMigrateEveryFixtureReplaysIdentically migrates a copy of every
// committed fixture into a private store and into a fresh shared pool, and
// that private store, once it took a put and a GC pass, into another pool —
// a source in a layout this build writes, read through a read-only open.
// Each migrated run carries one of the two markers this build writes and the
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
			src, private := run, ""
			for i, pool := range []string{"", filepath.Join(t.TempDir(), "POOL"), filepath.Join(t.TempDir(), "POOL")} {
				if i == 2 {
					src = private // a layout this build writes, after a put and a GC pass
				}
				dst := migrated(t, src, pool)
				if i == 0 {
					private = dst
				}
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

// TestReplayNeverWrites replays and samples every committed fixture,
// migrated, and two runs recorded now, one private and one in a shared
// pool, and asserts that every file is byte-identical before and after: a
// hindsight query only reads the run it asks about. (The fixtures
// themselves refuse to open at all: TestLegacyLayoutsRefuseWritesAndStillRead.)
func TestReplayNeverWrites(t *testing.T) {
	type target struct {
		name, root string
		factory    func() *flor.Program
	}
	var targets []target
	for _, fx := range legacyFixtures {
		run, _ := fixtureRun(copyFixture(t, fx.name))
		targets = append(targets, target{fx.name, migrated(t, run, ""), fx.factory})
	}
	pooledFixture := filepath.Join(t.TempDir(), "tree")
	run, _ := fixtureRun(copyFixture(t, "pool4"))
	if err := core.Migrate(run, filepath.Join(pooledFixture, "run"), filepath.Join(pooledFixture, "POOL")); err != nil {
		t.Fatal(err)
	}
	targets = append(targets, target{"pool4 migrated into a pool", pooledFixture, counterFactory(6, 3)})
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
