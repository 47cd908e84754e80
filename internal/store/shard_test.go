package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
)

// openSharded opens a fresh run of a fresh shared pool, the one sharded
// layout this build writes, and returns it with the run directory and the
// pool root, where its shard packs live.
func openSharded(t *testing.T) (s *Store, dir, pool string) {
	t.Helper()
	base := t.TempDir()
	dir, pool = filepath.Join(base, "run"), filepath.Join(base, "POOL")
	return openPooled(t, dir, pool), dir, pool
}

func TestShardedRoundTripAndReopen(t *testing.T) {
	s, dir, pool := openSharded(t)
	if s.ShardFanout() != 16 {
		t.Fatalf("fanout = %d, want 16", s.ShardFanout())
	}
	// Enough chunks to land on many shards.
	big := noise(8*ckptfmt.DefaultChunkSize+99, 21)
	secs := []Section{
		{Name: "net", Data: big},
		{Name: "rng", Data: []byte("rng state")},
	}
	key := Key{LoopID: "train", Exec: 0}
	if _, err := s.PutSections(key, secs, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(s, key, nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got[0].Data, big) || string(got[1].Data) != "rng state" {
		t.Fatal("section data mismatch")
	}
	// Chunks actually spread across more than one shard pack.
	packs := 0
	for i := 0; i < 16; i++ {
		if st, err := os.Stat(filepath.Join(pool, fmt.Sprintf("CHUNKS-%02x", i))); err == nil && st.Size() > 0 {
			packs++
		}
	}
	if packs < 2 {
		t.Fatalf("chunks landed in %d shard packs, want spread", packs)
	}
	for _, d := range []string{dir, pool} {
		if _, err := os.Stat(filepath.Join(d, "CHUNKS")); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("sharded store grew an unsharded CHUNKS pack")
		}
	}

	// A plain reopen (no options), from disk, must detect the sharded layout
	// and read everything back; the dedup index must survive.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.ShardFanout() != 16 {
		t.Fatalf("reopened fanout = %d", s2.ShardFanout())
	}
	got, err = ReadAll(s2, key, nil)
	if err != nil || !bytes.Equal(got[0].Data, big) {
		t.Fatalf("reopen read: %v", err)
	}
	m, err := s2.PutSections(Key{LoopID: "train", Exec: 1}, secs, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.StoredBytes > int64(len(big))/2 {
		t.Fatalf("post-reopen put stored %d bytes; shard index not rebuilt", m.StoredBytes)
	}

	// Read-only open (the daemon path) serves the same bytes.
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err = ReadAll(ro, key, nil)
	if err != nil || !bytes.Equal(got[0].Data, big) {
		t.Fatalf("read-only read: %v", err)
	}
	if _, err := ro.PutSections(key, secs, 0, 0, 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only write err = %v", err)
	}
}

func TestShardedDedupAcrossCheckpoints(t *testing.T) {
	s, _, _ := openSharded(t)
	frozen := noise(4*ckptfmt.DefaultChunkSize, 7)
	var later int64
	for e := 0; e < 4; e++ {
		m, err := s.PutSections(Key{LoopID: "L", Exec: e}, []Section{
			{Name: "net", Data: frozen},
			{Name: "step", Data: []byte(fmt.Sprintf("epoch-%d", e))},
		}, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if e > 0 {
			later += m.StoredBytes
		}
	}
	if later >= int64(len(frozen)) {
		t.Fatalf("later checkpoints stored %d bytes; frozen section not deduped across shards", later)
	}
	if r := s.Dedup().Ratio(); r < 2 {
		t.Fatalf("dedup ratio = %.2f", r)
	}
}

// TestShardedConcurrentPuts drives PutSections from many goroutines: the
// per-shard append locks must keep packs, index, and manifest consistent,
// and every checkpoint must read back intact after a reopen.
func TestShardedConcurrentPuts(t *testing.T) {
	s, dir, _ := openSharded(t)
	const writers, epochs = 4, 3
	shared := noise(2*ckptfmt.DefaultChunkSize, 77) // cross-writer dedup races
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				own := noise(3*ckptfmt.DefaultChunkSize+w*17, uint64(100+w*10+e))
				_, err := s.PutSections(Key{LoopID: fmt.Sprintf("w%d", w), Exec: e}, []Section{
					{Name: "own", Data: own},
					{Name: "shared", Data: shared},
				}, 0, 0, 0)
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []*Store{s, mustReopen(t, dir, true)} {
		for w := 0; w < writers; w++ {
			for e := 0; e < epochs; e++ {
				want := noise(3*ckptfmt.DefaultChunkSize+w*17, uint64(100+w*10+e))
				secs, err := ReadAll(st, Key{LoopID: fmt.Sprintf("w%d", w), Exec: e}, nil)
				if err != nil {
					t.Fatalf("w%d@%d: %v", w, e, err)
				}
				if !bytes.Equal(secs[0].Data, want) || !bytes.Equal(secs[1].Data, shared) {
					t.Fatalf("w%d@%d: data mismatch", w, e)
				}
			}
		}
	}
}

// mustReopen opens dir writable, and with fromDisk first forgets every pool
// this process opened, so that a pooled run's pool is read back from disk.
func mustReopen(t *testing.T, dir string, fromDisk bool) *Store {
	t.Helper()
	if fromDisk {
	}
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

// TestMissingShardPackNamesShard deletes one shard's pack: a writable open
// must refuse, naming the shard — appending to a rewound pack would poison
// the manifest — while a read-only open degrades gracefully (the daemon
// keeps serving what survives) and reads touching the shard fail with an
// error naming it.
func TestMissingShardPackNamesShard(t *testing.T) {
	s, dir, pool := openSharded(t)
	big := noise(8*ckptfmt.DefaultChunkSize, 13)
	key := Key{LoopID: "L", Exec: 0}
	if _, err := s.PutSections(key, []Section{{Name: "net", Data: big}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// A pack is known to hold bytes once a snapshot covers them: before, a
	// missing pack is an empty one.
	if err := s.WriteIndex(); err != nil {
		t.Fatal(err)
	}
	// Find a populated shard pack and remove it.
	var victim string
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("CHUNKS-%02x", i)
		if st, err := os.Stat(filepath.Join(pool, name)); err == nil && st.Size() > 0 {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("no populated shard pack found")
	}
	if err := os.Remove(filepath.Join(pool, victim)); err != nil {
		t.Fatal(err)
	}
	// Writable open, from disk: refused, naming the shard.
	_, err := Open(dir)
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("writable open with missing shard: err = %v, want codec.ErrCorrupt refusal", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte(victim)) {
		t.Fatalf("refusal %q does not name the missing shard %s", err, victim)
	}
	// Read-only open: graceful; reads touching the shard name it.
	s2, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatalf("read-only open with missing shard must degrade gracefully: %v", err)
	}
	_, err = ReadAll(s2, key, nil)
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("read error %v is not codec.ErrCorrupt", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte(victim)) {
		t.Fatalf("error %q does not name the missing shard %s", err, victim)
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
	if _, err := DetectLayout(dir); !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("DetectLayout err = %v, want ErrUnknownFormat", err)
	}
	// The refusal must not have truncated anything: restoring the marker
	// restores the run.
	os.WriteFile(filepath.Join(dir, "FORMAT"), []byte(markerPrivate), 0o644)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := getBlob(s2, Key{LoopID: "L", Exec: 0}); err != nil || string(got) != "precious" {
		t.Fatalf("data lost under unknown marker: %q, %v", got, err)
	}
}

// TestDetectLayoutVariants pins what DetectLayout reports: the two layouts
// this build writes by name, and every committed fixture of an older one as
// ErrLegacyLayout.
func TestDetectLayoutVariants(t *testing.T) {
	v2dir := t.TempDir()
	Open(v2dir)
	pooled, _, _ := openSharded(t)
	for _, c := range []struct {
		dir  string
		want string
	}{{v2dir, "v2"}, {pooled.Dir(), "v2-pooled/16"}} {
		l, err := DetectLayout(c.dir)
		if err != nil || l.String() != c.want {
			t.Fatalf("DetectLayout(%s) = %s, %v; want %s", c.dir, l, err, c.want)
		}
	}
	multi, _, _ := multirootFixture(t)
	for _, dir := range []string{
		v1Fixture(t), legacyFixture(t, "sharded"), multi,
		filepath.Join(legacyFixture(t, "pool4"), "run"), legacyFixture(t, "private2dirs"),
	} {
		if l, err := DetectLayout(dir); !errors.Is(err, ErrLegacyLayout) {
			t.Fatalf("DetectLayout(%s) = %s, %v; want ErrLegacyLayout", dir, l, err)
		}
	}
}
