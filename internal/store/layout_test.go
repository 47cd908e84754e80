package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestFormatMarkerWrittenOnceAtOpen pins when the FORMAT marker is written:
// by a writable open, once, and never by a put or a GC pass — after either,
// the marker is the same file with the same bytes. A fresh store's marker is
// "2 dirs"; a store an older build left keeps its layout and its gc and lz4
// tokens, and gains "dirs".
func TestFormatMarkerWrittenOnceAtOpen(t *testing.T) {
	base := t.TempDir()
	sharded := filepath.Join(base, "sharded")
	PlantLayout(t, sharded, 16)
	lz4 := filepath.Join(base, "lz4")
	if err := os.CopyFS(lz4, os.DirFS(filepath.Join("..", "..", "testdata", "framestyles", "lz4"))); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, dir string
		o         Options
		want      string
	}{
		{"fresh", filepath.Join(base, "fresh"), Options{}, "2 dirs\n"},
		{"pooled", filepath.Join(base, "pooled"), Options{Pool: filepath.Join(base, "POOL")}, "2 pool shards=16 dirs\n"},
		{"sharded", sharded, Options{}, "2 shards=16 dirs\n"},
		{"gc", legacyFixture(t, "gztwins"), Options{}, "2 gc dirs\n"},
		{"lz4", lz4, Options{}, "2 lz4 dirs\n"},
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
			if !s.Pooled() && res.CompactedShards == 0 {
				t.Fatalf("GC compacted nothing: %+v", res)
			}
			unchanged("a GC pass")
			if s.Pooled() {
				if _, err := GCPool(s.PoolRoot(), GCOptions{PackRetention: time.Hour}); err != nil {
					t.Fatal(err)
				}
				unchanged("a pool GC pass")
			}
			if _, err := Open(c.dir); err != nil {
				t.Fatal(err)
			}
			unchanged("a writable reopen")
		})
	}
}

// TestLegacyLayoutsStayWritable takes the layouts only an older build could
// create — a fanout-16 private store, a fanout-4 one whose packs spread over
// the run directory and two more roots, and a run in a fanout-4 pool, each
// planted as that build left it before its first put — through record,
// writable reopen, append, GC and replay. Each keeps its layout and reads
// back what a fresh fanout-1 store given the same puts reads back, byte for
// byte, with the same metas. A fresh directory cannot be given extra roots.
func TestLegacyLayoutsStayWritable(t *testing.T) {
	base := t.TempDir()
	record := func(t *testing.T, dir string, o Options) (*Store, []Meta, map[Key][]Section) {
		t.Helper()
		s, err := OpenWith(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		put := func(s *Store, exec int, secs []Section) {
			t.Helper()
			if _, err := s.PutSections(Key{LoopID: "train", Exec: exec}, secs, 0, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		put(s, 0, mutatingSections(1))
		put(s, 1, mutatingSections(2))
		if s, err = Open(dir); err != nil {
			t.Fatalf("writable reopen: %v", err)
		}
		put(s, 1, mutatingSections(3))
		put(s, 2, []Section{{Name: "w", Data: mutatingSections(1)[0].Data}, {Name: "b", Data: []byte("bias")}})
		if _, err := s.GCWith(GCOptions{PackRetention: time.Hour}); err != nil {
			t.Fatal(err)
		}
		if s.Pooled() {
			if _, err := GCPool(s.PoolRoot(), GCOptions{PackRetention: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
		ro, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		var metas []Meta
		secs := map[Key][]Section{}
		for _, m := range ro.Metas() {
			m.MaterNs, m.SnapNs = 0, 0
			metas = append(metas, *m)
			if secs[m.Key], err = ReadAll(ro, m.Key, nil); err != nil {
				t.Fatalf("%s: %v", m.Key, err)
			}
		}
		return ro, metas, secs
	}
	_, wantMetas, wantSecs := record(t, filepath.Join(base, "fresh"), Options{})
	if len(wantMetas) != 3 {
		t.Fatalf("fresh store holds %d live checkpoints, want 3", len(wantMetas))
	}

	pool := filepath.Join(base, "POOL4")
	PlantPool(t, pool, 4)
	for _, l := range []struct {
		name   string
		plant  func(dir string)
		o      Options
		fanout int
		marker string
	}{
		{"fanout-16", func(dir string) { PlantLayout(t, dir, 16) }, Options{}, 16, "2 shards=16 dirs\n"},
		{"multi-root", func(dir string) { PlantLayout(t, dir, 4, "../rootA", "../rootB") }, Options{}, 4, "2 shards=4 dirs\n"},
		{"fanout-4-pool", func(string) {}, Options{Pool: pool}, 4, "2 pool shards=4 dirs\n"},
	} {
		t.Run(l.name, func(t *testing.T) {
			dir := filepath.Join(base, l.name, "run")
			l.plant(dir)
			ro, metas, secs := record(t, dir, l.o)
			if ro.ShardFanout() != l.fanout {
				t.Fatalf("fanout %d after reopen, want %d", ro.ShardFanout(), l.fanout)
			}
			if raw, _ := os.ReadFile(filepath.Join(dir, formatFile)); string(raw) != l.marker {
				t.Fatalf("FORMAT %q, want %q", raw, l.marker)
			}
			if !slices.Equal(metas, wantMetas) {
				t.Fatalf("metas\n%+v\nfresh store's\n%+v", metas, wantMetas)
			}
			for k, want := range wantSecs {
				got := secs[k]
				if len(got) != len(want) {
					t.Fatalf("%s: %d sections, want %d", k, len(got), len(want))
				}
				for i := range want {
					if got[i].Name != want[i].Name || !bytes.Equal(got[i].Data, want[i].Data) {
						t.Fatalf("%s section %d: %q differs from the fresh store's %q", k, i, got[i].Name, want[i].Name)
					}
				}
			}
			if l.name == "multi-root" {
				if raw, _ := os.ReadFile(filepath.Join(dir, "SHARDS")); string(raw) != "../rootA\n../rootB\n" {
					t.Fatalf("SHARDS %q changed", raw)
				}
				packs := 0
				for _, root := range []string{dir, filepath.Join(dir, "..", "rootA"), filepath.Join(dir, "..", "rootB")} {
					if m, _ := filepath.Glob(filepath.Join(root, "CHUNKS-*")); len(m) > 0 {
						packs++
					}
				}
				if packs < 2 {
					t.Fatalf("packs in %d of the 3 roots, want them spread", packs)
				}
			}
		})
	}
	if raw, _ := os.ReadFile(filepath.Join(pool, poolMarkerFile)); string(raw) != "pool1 shards=4\n" {
		t.Fatalf("POOL %q changed", raw)
	}

	// Nothing can add a root to a store, a fresh one included.
	fresh, root := filepath.Join(base, "refused"), filepath.Join(base, "rootX")
	if _, err := OpenWith(fresh, Options{ShardDirs: []string{root}}); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("fresh directory given shard dirs: %v, want a refusal", err)
	}
	for _, p := range []string{filepath.Join(fresh, "SHARDS"), filepath.Join(fresh, formatFile), root} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("refused open left %s: %v", p, err)
		}
	}
}

// TestDirBackendPlacementPinned pins which root a multi-root DirBackend puts
// each pack object on: the FNV-1a hash of its name modulo the root count, as
// 64-bit builds have always placed them (values computed with the arithmetic
// of earlier builds on amd64). A 32-bit build must agree, or it would look
// for an older store's packs in the wrong directory.
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
			b := &DirBackend{roots: roots}
			if got := b.path(c.name); got != filepath.Join(roots[want], c.name) {
				t.Errorf("%s over %d roots: %s, want root %d", c.name, len(roots), got, want)
			}
		}
	}
}
