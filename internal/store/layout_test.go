package store

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
)

// TestFormatMarkerWrittenOnceAtOpen pins when the FORMAT marker is written:
// by a writable open, once, and never by a put, a GC pass or a reopen —
// after each, the marker is the same file with the same bytes. A fresh
// run's marker is "2 pool shards=1 dirs packlog", whether it is its own pool
// or attached to a shared one, and so is one after a GC pass of either kind
// (Store.GCWith, GCPool over its pool).
// A store an older build left keeps its marker, and every other byte: its
// writable open is refused before anything is written.
func TestFormatMarkerWrittenOnceAtOpen(t *testing.T) {
	base := t.TempDir()
	for _, c := range []struct {
		name, dir string
		o         Options
		want      string
	}{
		{"fresh", filepath.Join(base, "fresh"), Options{}, formatMarker},
		{"pooled", filepath.Join(base, "pooled"), Options{Pool: filepath.Join(base, "POOL")}, formatMarker},
		{"private packlog", legacyFixture(t, "private2packlog"), Options{}, "2 dirs packlog\n"},
		{"sharded", legacyFixture(t, "sharded"), Options{}, "2 shards=4 dirs\n"},
		{"manifest chunks", legacyFixture(t, "private2dirs"), Options{}, "2 dirs\n"},
		{"gc", legacyFixture(t, "gztwins"), Options{}, "2 gc\n"},
		{"lz4", legacyFixture(t, filepath.Join("framestyles", "lz4")), Options{}, "2 lz4\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(c.dir, formatFile)
			marker := func() (os.FileInfo, string) {
				t.Helper()
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return fi, string(raw)
			}
			if c.want != formatMarker {
				opened, _ := marker()
				before := dirBytes(t, c.dir)
				if _, err := OpenWith(c.dir, c.o); !errors.Is(err, ErrLegacyLayout) {
					t.Fatalf("writable open: %v, want ErrLegacyLayout", err)
				}
				if fi, raw := marker(); !os.SameFile(opened, fi) || raw != c.want || !maps.Equal(before, dirBytes(t, c.dir)) {
					t.Fatalf("the refused open changed the store (FORMAT %q)", raw)
				}
				return
			}
			s, err := OpenWith(c.dir, c.o)
			if err != nil {
				t.Fatal(err)
			}
			opened, raw := marker()
			if raw != c.want {
				t.Fatalf("FORMAT after a writable open = %q, want %q", raw, c.want)
			}
			unchanged := func(after string) {
				t.Helper()
				fi, raw := marker()
				if !os.SameFile(opened, fi) || raw != c.want {
					t.Fatalf("FORMAT after %s: %q, same file %v; want %q untouched", after, raw, os.SameFile(opened, fi), c.want)
				}
			}
			key := Key{LoopID: "marker", Exec: 0}
			for i := range 2 {
				if _, err := s.PutSections(key, mutatingSections(uint64(40+i)), 0, 0, 0); err != nil {
					t.Fatal(err)
				}
				unchanged("a put")
			}
			res, err := s.GCWith(GCOptions{PackRetention: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			if res.CompactedShards == 0 {
				t.Fatalf("GC compacted nothing: %+v", res)
			}
			unchanged("a GC pass")
			if _, err := GCPool(s.pool.root, GCOptions{PackRetention: time.Hour}); err != nil {
				t.Fatal(err)
			}
			unchanged("a pool GC pass")
			if _, err := Open(c.dir); err != nil {
				t.Fatal(err)
			}
			unchanged("a writable reopen")
		})
	}
}

// TestLegacyLayoutsRefuseWritableOpens takes every layout this build does
// not write — each committed fixture (the "2 dirs index" run and the
// "pool1 shards=16" pool the build before this one wrote included), the
// markers older builds planted in a fresh directory before its first put
// (with a SHARDS file of extra roots, and pools at fanout 4 and 16), and
// stores under this build's marker whose manifest holds segment-file
// checkpoints, private and pooled — through Open, OpenWith and
// OpenReadOnly: each fails with ErrLegacyLayout, naming the migrate command,
// and leaves every byte where it was; GCPool refuses the older pools, and a
// fresh pool that leases a recorded run, naming the run. ReadLegacy, the one
// reader of every layout, still reads every checkpoint, the pooled run under
// this build's marker included; the private one's INDEX holds chunk records
// of a compacted pack but no pack record, so its reader scans the generation-0
// pack, whose frames the checkpoints no longer name, and fails as corrupt.
func TestLegacyLayoutsRefuseWritableOpens(t *testing.T) {
	type layout struct {
		name, run, tree string // the run directory, and the tree that must not change
		o               Options
		readErr         error // what ReadLegacy fails with; nil: it reads every checkpoint
	}
	var cases []layout
	for _, fx := range []string{"v1run", "framestyles/deflate", "framestyles/lz4", "gztwins", "sharded", "private2dirs", "private2index", "private2packlog"} {
		dir := legacyFixture(t, filepath.FromSlash(fx))
		cases = append(cases, layout{fx, dir, dir, Options{}, nil})
	}
	multi := legacyFixture(t, "multiroot")
	cases = append(cases, layout{"multiroot", filepath.Join(multi, "run"), multi, Options{}, nil})
	for _, fx := range []string{"pool4", "pool16", "pool16packlog"} {
		pool := legacyFixture(t, fx)
		cases = append(cases,
			layout{fx, filepath.Join(pool, "run"), pool, Options{}, nil},
			layout{fx + " attach", filepath.Join(t.TempDir(), "run"), pool, Options{Pool: pool}, nil})
	}
	for _, marker := range []string{"2", "2 gc", "2 lz4", "2 dirs", "2 shards=8", "2 shards=8 dirs", "2 shards=8 dirs index", "2 gc dirs", "2 lz4 dirs", "2 pool shards=4 dirs", "2 pool shards=16 dirs index", "2 dirs index", "2 pool shards=16 dirs", "2 pool shards=16 dirs packlog", "2 dirs packlog"} {
		dir := t.TempDir()
		plant(t, dir, formatFile, marker+"\n")
		cases = append(cases, layout{"planted " + marker, dir, dir, Options{}, nil})
	}
	roots := t.TempDir()
	plant(t, filepath.Join(roots, "run"), "SHARDS", "../rootA\n")
	cases = append(cases, layout{"planted SHARDS", filepath.Join(roots, "run"), roots, Options{}, nil})
	for _, marker := range []string{"pool1 shards=4", "pool1 shards=16", "pool2 shards=16"} {
		planted := t.TempDir()
		plant(t, planted, poolMarkerFile, marker+"\n")
		cases = append(cases, layout{"planted " + marker, filepath.Join(t.TempDir(), "run"), planted, Options{Pool: planted}, nil})
	}

	// This build's marker over segment-file checkpoints: the gztwins store
	// with its chunk records moved to its INDEX, and a run of a fresh pool
	// whose directories were moved out to segment files, the form older
	// builds wrote.
	segs := legacyFixture(t, "gztwins")
	chunksToIndex(t, segs)
	cases = append(cases, layout{"2 dirs over segments", segs, segs, Options{}, codec.ErrCorrupt})
	pooledSegs := t.TempDir()
	run := filepath.Join(pooledSegs, "run")
	s := openPooled(t, run, filepath.Join(pooledSegs, "POOL"))
	if _, err := s.PutSections(Key{LoopID: "train", Exec: 0}, mutatingSections(7), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	toSegments(t, run)
	cases = append(cases, layout{"pooled over segments", run, pooledSegs, Options{}, nil})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := dirBytes(t, c.tree)
			_, statErr := os.Stat(c.run)
			opens := []func() (*Store, error){
				func() (*Store, error) { return OpenWith(c.run, c.o) },
			}
			if c.o.Pool == "" {
				opens = append(opens, func() (*Store, error) { return Open(c.run) })
			}
			if statErr == nil {
				opens = append(opens, func() (*Store, error) { return OpenReadOnly(c.run) })
			}
			for _, open := range opens {
				_, err := open()
				if !errors.Is(err, ErrLegacyLayout) || !errors.Is(err, ErrReadOnly) || !strings.Contains(err.Error(), "florctl migrate") {
					t.Fatalf("open: %v, want ErrLegacyLayout naming florctl migrate", err)
				}
			}
			if c.o.Pool != "" {
				if _, err := GCPool(c.o.Pool, GCOptions{}); !errors.Is(err, ErrLegacyLayout) {
					t.Fatalf("GCPool: %v, want ErrLegacyLayout", err)
				}
			}
			if !maps.Equal(before, dirBytes(t, c.tree)) {
				t.Fatal("a refused open changed the store")
			}
			if _, err := os.Stat(c.run); errors.Is(statErr, os.ErrNotExist) && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("a refused writable open created the run directory: %v", err)
			}
			if _, err := os.Stat(filepath.Join(roots, "rootA")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("a refused open made a pack root: %v", err)
			}
			if _, err := os.Stat(filepath.Join(c.run, manifestFile)); err != nil {
				return // nothing recorded at c.run
			}
			leasing := filepath.Join(t.TempDir(), "POOL")
			p, err := openPool(leasing, false, false, nil)
			if err == nil {
				err = p.writeLease(c.run)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := GCPool(leasing, GCOptions{}); !errors.Is(err, ErrLegacyLayout) || !strings.Contains(err.Error(), c.run) {
				t.Fatalf("GCPool over a pool leasing the run: %v, want ErrLegacyLayout naming %s", err, c.run)
			}
			n := 0
			err = ReadLegacy(c.run, func(m Meta, secs []Section) error {
				n++
				return nil
			})
			switch {
			case c.readErr != nil && !errors.Is(err, c.readErr):
				t.Fatalf("ReadLegacy: %v, want %v", err, c.readErr)
			case c.readErr == nil && (err != nil || n == 0):
				t.Fatalf("ReadLegacy read %d checkpoints: %v", n, err)
			}
			if !maps.Equal(before, dirBytes(t, c.tree)) {
				t.Fatal("ReadLegacy changed the store")
			}
		})
	}
}

// toSegments moves the directories of a run's meta records out to segment
// files, the form older builds wrote: each record then carries none.
func toSegments(t *testing.T, run string) {
	t.Helper()
	raw, recs := manifestRecords(t, run)
	for i, rec := range recs {
		if rec.tag == recMeta {
			plant(t, run, filepath.Base(segmentPath(run, rec.e.Seq)), string(codec.Frame(ckptfmt.EncodeDirectory(rec.e.dir))))
			rec.e.dir = nil
			raw[i] = encodeRecord(rec)
		}
	}
	plant(t, run, manifestFile, string(bytes.Join(raw, nil)))
}

// TestDirBackendPlacementPinned pins which root ReadLegacy reads each pack
// object of a store an older build spread over extra roots from: the FNV-1a
// hash of its name modulo the root count, as 64-bit builds have always
// placed them (values computed with the arithmetic of earlier builds on
// amd64). A 32-bit build must agree, or it would look for an older store's
// packs in the wrong directory.
func TestDirBackendPlacementPinned(t *testing.T) {
	for _, c := range []struct {
		name     string
		of2, of3 int
	}{
		{"CHUNKS", 1, 0},
		{"CHUNKS-00", 0, 2},
		{"CHUNKS-01", 1, 1},
		{"CHUNKS-02", 0, 1},
		{"CHUNKS-03", 1, 0},
		{"CHUNKS-04", 0, 0},
		{"CHUNKS-05", 1, 2},
		{"CHUNKS-07", 1, 1},
		{"CHUNKS-0a", 1, 0},
		{"CHUNKS-0b", 0, 0},
		{"CHUNKS-0f", 0, 1},
		{"CHUNKS-ff", 0, 2},
		{"CHUNKS-03.g1", 1, 1},
		{"CHUNKS-0a.g2", 0, 2},
	} {
		for _, roots := range [][]string{{"r0", "r1"}, {"r0", "r1", "r2"}} {
			want := c.of2
			if len(roots) == 3 {
				want = c.of3
			}
			r := &legacyRun{roots: roots}
			if got := r.packPath(c.name); got != filepath.Join(roots[want], c.name) {
				t.Errorf("%s over %d roots: %s, want root %d", c.name, len(roots), got, want)
			}
		}
	}
}

// FuzzFormatMarker fuzzes the layout files every open reads before anything
// else — a run's FORMAT marker and a pool's POOL marker — through the
// classification that decides whether the layout is one this build opens.
// Nothing panics; only the run marker a writable open leaves ("2 pool
// shards=1 dirs packlog") and the pool marker "pool2 shards=1" open,
// whatever the whitespace around their tokens; "2 dirs packlog", the
// private marker of the build before, is a legacy one. Every other marker is
// ErrLegacyLayout exactly when it is in the grammar older builds wrote
// (legacy.go; FuzzLegacyMarker fuzzes that grammar), and ErrUnknownFormat
// or an unknown-pool-marker error otherwise.
func FuzzFormatMarker(f *testing.F) {
	for _, seed := range [][2]string{
		{"2 dirs packlog\n", poolMarker},
		{formatMarker, "pool1 shards=4\n"},
		{"2 dirs index", "pool1 shards=16\n"},
		{"2 pool shards=16 dirs", " pool2  shards=16 "},
		{"2 dirs packlog index", "pool2 shards=4"},
		{"2 shards=4 dirs\n", "pool1 shards=1"},
		{"2 gc\n", "pool1 shards=16 gc"},
		{"2 lz4 dirs", "pool1"},
		{"2 dirs", "pool1 shards=16"},
		{"2 pool shards=16 dirs index", "pool1 shards=16"},
		{"2 pool shards=4 dirs", "pool1 shards=256"},
		{"2", "pool1 shards=016"},
		{"2 pool shards=16", "pool2 shards=16"},
		{"2 pool shards=16 dirs packlog", "pool2 shards=16\n"},
		{" 2  pool shards=1 dirs  packlog ", " pool2  shards=1 "},
		{"2 pool shards=1 dirs index", "pool2 shards=01"},
		{"2 shards=1 dirs packlog", "pool3 shards=1"},
		{"", ""},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	norm := func(b []byte) string { return strings.Join(strings.Fields(string(b)), " ") }
	f.Fuzz(func(t *testing.T, format, pool []byte) {
		err := parseFormatMarker("run", format)
		switch n := norm(format); {
		case n == "2 pool shards=1 dirs packlog":
			if err != nil {
				t.Fatalf("FORMAT %q: %v; want it opened", format, err)
			}
		case err == nil:
			t.Fatalf("FORMAT %q opens", format)
		default:
			_, legacy := parseLegacyMarker(format)
			if errors.Is(err, ErrLegacyLayout) != legacy || errors.Is(err, ErrUnknownFormat) == legacy {
				t.Fatalf("FORMAT %q: %v; in the older grammar: %v", format, err, legacy)
			}
		}
		err = checkPoolMarker("pool", pool)
		_, legacy := parseLegacyPoolMarker(pool)
		switch {
		case norm(pool) == "pool2 shards=1":
			if err != nil {
				t.Fatalf("POOL %q: %v; want it opened", pool, err)
			}
		case err == nil:
			t.Fatalf("POOL %q opens", pool)
		case errors.Is(err, ErrLegacyLayout) != legacy:
			t.Fatalf("POOL %q: %v; in the older grammar: %v", pool, err, legacy)
		}
	})
}

// mustOpen opens dir writable.
func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// multirootFixture copies testdata/multiroot — counterFactory(6, 3)
// recorded by an older build into a fanout-4 store whose SHARDS file lists
// ../rootA and ../rootB — and returns the run directory and its two extra
// roots.
func multirootFixture(t *testing.T) (dir, rootA, rootB string) {
	t.Helper()
	base := legacyFixture(t, "multiroot")
	return filepath.Join(base, "run"), filepath.Join(base, "rootA"), filepath.Join(base, "rootB")
}

// TestShardDirsSpreadAndPersist takes the committed store an older build
// spread over extra root directories: its packs lie in all three roots,
// every open (writable and read-only) is refused with ErrLegacyLayout, and
// ReadLegacy finds the packs through the SHARDS file and reads every
// checkpoint as it reads the committed single-root store of the same
// recording (testdata/sharded), without a byte changing.
func TestShardDirsSpreadAndPersist(t *testing.T) {
	dir, extraA, extraB := multirootFixture(t)
	for _, root := range []string{dir, extraA, extraB} {
		if m, _ := filepath.Glob(filepath.Join(root, "CHUNKS-0?")); len(m) == 0 {
			t.Fatalf("no pack in root %s", root)
		}
	}
	before := dirBytes(t, filepath.Dir(dir))
	if _, err := Open(dir); !errors.Is(err, ErrLegacyLayout) {
		t.Fatalf("writable open of a multi-root store: %v, want ErrLegacyLayout", err)
	}
	if _, err := OpenReadOnly(dir); !errors.Is(err, ErrLegacyLayout) {
		t.Fatalf("read-only open of a multi-root store: %v, want ErrLegacyLayout", err)
	}
	got, _, err := readLegacy(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := readLegacy(legacyFixture(t, "sharded"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || len(want) != 6 {
		t.Fatalf("%d and %d checkpoints, want 6 each", len(got), len(want))
	}
	for key, w := range want {
		g := got[key]
		if len(g) != len(w) {
			t.Fatalf("%s via SHARDS file: %d sections, want %d", key, len(g), len(w))
		}
		for i := range w {
			if g[i].Name != w[i].Name || !bytes.Equal(g[i].Data, w[i].Data) || g[i].Hash != w[i].Hash {
				t.Fatalf("%s section %q differs from the single-root store's", key, w[i].Name)
			}
		}
	}
	if !maps.Equal(before, dirBytes(t, filepath.Dir(dir))) {
		t.Fatal("the refused opens or the read changed the multi-root fixture")
	}
}

// TestShardDirRelocationRefused pins that a multi-root store's root list is
// part of its bytes: placement hashes each pack's name over the list, so
// ReadLegacy reads the store only under the list it was written with — a
// different, reordered, shortened or grown list fails the read, never
// reads the wrong packs.
func TestShardDirRelocationRefused(t *testing.T) {
	dir, extraA, extraB := multirootFixture(t)
	for _, bad := range [][]string{
		{t.TempDir()},         // different roots
		{extraB, extraA},      // reordered (placement is order-sensitive)
		{extraA},              // dropped
		{extraA, extraB, dir}, // grown
	} {
		plant(t, dir, "SHARDS", strings.Join(bad, "\n")+"\n")
		if _, _, err := readLegacy(dir); err == nil {
			t.Fatalf("ReadLegacy with shard dirs %v succeeded, want a failure", bad)
		}
	}
	plant(t, dir, "SHARDS", "../rootA\n../rootB\n")
	if got, _, err := readLegacy(dir); err != nil || len(got) != 6 {
		t.Fatalf("ReadLegacy under the written list: %d checkpoints, %v", len(got), err)
	}
}

func TestUnknownFormatMarkerTyped(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	putBlob(s, Key{LoopID: "L", Exec: 0}, []byte("precious"), 0, 0, 0)
	os.WriteFile(filepath.Join(dir, "FORMAT"), []byte("9 quantum=yes\n"), 0o644)

	for _, open := range []func() (*Store, error){
		func() (*Store, error) { return Open(dir) },
		func() (*Store, error) { return OpenReadOnly(dir) },
	} {
		_, err := open()
		if !errors.Is(err, ErrUnknownFormat) {
			t.Fatalf("open err = %v, want ErrUnknownFormat", err)
		}
		var ufe *UnknownFormatError
		if !errors.As(err, &ufe) || ufe.Marker != "9 quantum=yes" {
			t.Fatalf("err %v does not carry the detected marker", err)
		}
	}
	if err := DetectLayout(dir); !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("DetectLayout err = %v, want ErrUnknownFormat", err)
	}
	// The refusal must not have truncated anything: restoring the marker
	// restores the run.
	os.WriteFile(filepath.Join(dir, "FORMAT"), []byte(formatMarker), 0o644)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := getBlob(s2, Key{LoopID: "L", Exec: 0}); err != nil || string(got) != "precious" {
		t.Fatalf("data lost under unknown marker: %q, %v", got, err)
	}
}

// TestDetectLayoutVariants pins what DetectLayout and PoolRef report: the
// layout this build writes, for a run that is its own pool and a run of a
// shared one, which PoolRef tells apart, and every committed fixture of an
// older layout as ErrLegacyLayout.
func TestDetectLayoutVariants(t *testing.T) {
	v2dir := t.TempDir()
	Open(v2dir)
	base := t.TempDir()
	pooled := openPooled(t, filepath.Join(base, "run"), filepath.Join(base, "POOL"))
	for _, c := range []struct {
		dir  string
		own  bool
		root string
	}{{v2dir, true, v2dir}, {pooled.Dir(), false, filepath.Join(base, "POOL")}} {
		if err := DetectLayout(c.dir); err != nil {
			t.Fatalf("DetectLayout(%s): %v", c.dir, err)
		}
		want, _ := canonicalPath(c.root)
		if root, own, err := PoolRef(c.dir); err != nil || own != c.own || root != want {
			t.Fatalf("PoolRef(%s) = %s, own %v, %v; want %s, own %v", c.dir, root, own, err, want, c.own)
		}
	}
	multi, _, _ := multirootFixture(t)
	for _, dir := range []string{
		v1Fixture(t), legacyFixture(t, "sharded"), multi,
		filepath.Join(legacyFixture(t, "pool4"), "run"), legacyFixture(t, "private2dirs"),
		legacyFixture(t, "private2packlog"),
	} {
		if err := DetectLayout(dir); !errors.Is(err, ErrLegacyLayout) {
			t.Fatalf("DetectLayout(%s): %v; want ErrLegacyLayout", dir, err)
		}
	}
}
