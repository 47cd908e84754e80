package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
)

func openSharded(t *testing.T, fanout int) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{ShardFanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func TestShardedRoundTripAndReopen(t *testing.T) {
	s, dir := openSharded(t, 16)
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
	got, ok, err := s.GetSections(key, nil)
	if err != nil || !ok {
		t.Fatalf("GetSections: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got[0].Data, big) || string(got[1].Data) != "rng state" {
		t.Fatal("section data mismatch")
	}
	// Chunks actually spread across more than one shard pack.
	packs := 0
	for i := 0; i < 16; i++ {
		if st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("CHUNKS-%02x", i))); err == nil && st.Size() > 0 {
			packs++
		}
	}
	if packs < 2 {
		t.Fatalf("chunks landed in %d shard packs, want spread", packs)
	}
	if _, err := os.Stat(filepath.Join(dir, "CHUNKS")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("sharded store grew an unsharded CHUNKS pack")
	}

	// A plain reopen (no options) must detect the sharded layout and read
	// everything back; the dedup index must survive.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.ShardFanout() != 16 {
		t.Fatalf("reopened fanout = %d", s2.ShardFanout())
	}
	got, ok, err = s2.GetSections(key, nil)
	if err != nil || !ok || !bytes.Equal(got[0].Data, big) {
		t.Fatalf("reopen read: ok=%v err=%v", ok, err)
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
	got, ok, err = ro.GetSections(key, nil)
	if err != nil || !ok || !bytes.Equal(got[0].Data, big) {
		t.Fatalf("read-only read: ok=%v err=%v", ok, err)
	}
	if _, err := ro.PutSections(key, secs, 0, 0, 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only write err = %v", err)
	}
}

func TestShardedDedupAcrossCheckpoints(t *testing.T) {
	s, _ := openSharded(t, 8)
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
	s, dir := openSharded(t, 16)
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
	for _, st := range []*Store{s, mustReopen(t, dir)} {
		for w := 0; w < writers; w++ {
			for e := 0; e < epochs; e++ {
				want := noise(3*ckptfmt.DefaultChunkSize+w*17, uint64(100+w*10+e))
				secs, ok, err := st.GetSections(Key{LoopID: fmt.Sprintf("w%d", w), Exec: e}, nil)
				if err != nil || !ok {
					t.Fatalf("w%d@%d: ok=%v err=%v", w, e, ok, err)
				}
				if !bytes.Equal(secs[0].Data, want) || !bytes.Equal(secs[1].Data, shared) {
					t.Fatalf("w%d@%d: data mismatch", w, e)
				}
			}
		}
	}
}

func mustReopen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardDirsSpreadAndPersist opens a sharded store whose packs spread
// over extra root directories, and checks that plain and read-only reopens
// find them through the persisted SHARDS file.
func TestShardDirsSpreadAndPersist(t *testing.T) {
	dir := t.TempDir()
	extraA, extraB := t.TempDir(), t.TempDir()
	s, err := OpenWith(dir, Options{ShardFanout: 16, ShardDirs: []string{extraA, extraB}})
	if err != nil {
		t.Fatal(err)
	}
	big := noise(8*ckptfmt.DefaultChunkSize, 5)
	key := Key{LoopID: "L", Exec: 0}
	if _, err := s.PutSections(key, []Section{{Name: "net", Data: big}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	spread := 0
	for _, root := range []string{dir, extraA, extraB} {
		entries, _ := os.ReadDir(root)
		for _, e := range entries {
			if len(e.Name()) == len("CHUNKS-00") && e.Name()[:7] == "CHUNKS-" {
				spread++
				break
			}
		}
	}
	if spread < 2 {
		t.Fatalf("packs landed in %d roots, want spread over several", spread)
	}
	for _, open := range []func() (*Store, error){
		func() (*Store, error) { return Open(dir) },
		func() (*Store, error) { return OpenReadOnly(dir) },
	} {
		s2, err := open()
		if err != nil {
			t.Fatal(err)
		}
		secs, ok, err := s2.GetSections(key, nil)
		if err != nil || !ok || !bytes.Equal(secs[0].Data, big) {
			t.Fatalf("reopen via SHARDS file: ok=%v err=%v", ok, err)
		}
	}
}

// TestShardDirRelocationRefused pins that a recorded store's root list is
// immutable: reopening with different (or reordered, or newly added) shard
// dirs must be refused — silently adopting them would relocate every pack
// lookup away from the real packs and rewrite SHARDS to match.
func TestShardDirRelocationRefused(t *testing.T) {
	dir := t.TempDir()
	extraA, extraB := t.TempDir(), t.TempDir()
	s, err := OpenWith(dir, Options{ShardFanout: 16, ShardDirs: []string{extraA, extraB}})
	if err != nil {
		t.Fatal(err)
	}
	big := noise(8*ckptfmt.DefaultChunkSize, 41)
	key := Key{LoopID: "L", Exec: 0}
	if _, err := s.PutSections(key, []Section{{Name: "net", Data: big}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{t.TempDir()},         // different roots
		{extraB, extraA},      // reordered (placement is order-sensitive)
		{extraA},              // dropped
		{extraA, extraB, dir}, // grown
	} {
		if _, err := OpenWith(dir, Options{ShardDirs: bad}); err == nil {
			t.Fatalf("reopen with shard dirs %v succeeded, want refusal", bad)
		}
	}
	// The matching list still opens, and plain opens are untouched.
	for _, open := range []func() (*Store, error){
		func() (*Store, error) { return OpenWith(dir, Options{ShardDirs: []string{extraA, extraB}}) },
		func() (*Store, error) { return Open(dir) },
	} {
		s2, err := open()
		if err != nil {
			t.Fatal(err)
		}
		secs, ok, err := s2.GetSections(key, nil)
		if err != nil || !ok || !bytes.Equal(secs[0].Data, big) {
			t.Fatalf("reopen after refusals: ok=%v err=%v", ok, err)
		}
	}
}

// TestMissingShardPackNamesShard deletes one shard's pack: a writable open
// must refuse, naming the shard — appending to a rewound pack would poison
// the manifest — while a read-only open degrades gracefully (the daemon
// keeps serving what survives) and reads touching the shard fail with an
// error naming it.
func TestMissingShardPackNamesShard(t *testing.T) {
	s, dir := openSharded(t, 4)
	big := noise(8*ckptfmt.DefaultChunkSize, 13)
	key := Key{LoopID: "L", Exec: 0}
	if _, err := s.PutSections(key, []Section{{Name: "net", Data: big}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Find a populated shard pack and remove it.
	var victim string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("CHUNKS-%02x", i)
		if st, err := os.Stat(filepath.Join(dir, name)); err == nil && st.Size() > 0 {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("no populated shard pack found")
	}
	if err := os.Remove(filepath.Join(dir, victim)); err != nil {
		t.Fatal(err)
	}
	// Writable open: refused, naming the shard.
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
	_, _, err = s2.GetSections(key, nil)
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
	s.Put(Key{LoopID: "L", Exec: 0}, []byte("precious"), 0, 0, 0)
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
	os.WriteFile(filepath.Join(dir, "FORMAT"), []byte("2\n"), 0o644)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(Key{LoopID: "L", Exec: 0}); err != nil || string(got) != "precious" {
		t.Fatalf("data lost under unknown marker: %q, %v", got, err)
	}
}

func TestReshardRefusedOnRecordedStore(t *testing.T) {
	s, dir := openSharded(t, 8)
	if _, err := s.PutSections(Key{LoopID: "L", Exec: 0}, []Section{{Name: "w", Data: noise(512, 3)}}, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(dir, Options{ShardFanout: 16}); err == nil {
		t.Fatal("resharding a recorded store succeeded")
	}
	if _, err := OpenWith(dir, Options{ShardFanout: 8}); err != nil {
		t.Fatalf("matching fanout refused: %v", err)
	}
	// Fanout validation.
	if _, err := OpenWith(t.TempDir(), Options{ShardFanout: 12}); err == nil {
		t.Fatal("non-power-of-two fanout accepted")
	}
	// Extra roots without a sharded layout would relocate the single CHUNKS
	// pack while the FORMAT marker still claims plain v2 — refuse.
	if _, err := OpenWith(t.TempDir(), Options{ShardDirs: []string{t.TempDir()}}); err == nil {
		t.Fatal("shard dirs accepted on an unsharded store")
	}
}

func TestDetectLayoutVariants(t *testing.T) {
	v1dir := v1Fixture(t)
	v2dir := t.TempDir()
	Open(v2dir)
	shdir := t.TempDir()
	OpenWith(shdir, Options{ShardFanout: 16})

	cases := []struct {
		dir  string
		want string
	}{{v1dir, "v1"}, {v2dir, "v2"}, {shdir, "v2-sharded/16"}}
	for _, c := range cases {
		l, err := DetectLayout(c.dir)
		if err != nil {
			t.Fatal(err)
		}
		if l.String() != c.want {
			t.Fatalf("DetectLayout(%s) = %s, want %s", c.dir, l, c.want)
		}
	}
}
