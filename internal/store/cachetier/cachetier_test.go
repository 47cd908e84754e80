package cachetier_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"flor.dev/flor/internal/store/cachetier"
)

// exact copies b into a buffer whose capacity is its length, as a remote GET
// reads into one: the cache charges an extent its buffer's capacity.
func exact(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// source builds a deterministic backing object and a fetch function over it
// that counts remote reads. Like every remote GET, fetch returns a buffer of
// its own, which the cache may adopt and give to the arena.
func source(size int64, seed int64) ([]byte, func(off, n int64) ([]byte, error), *int64) {
	data := make([]byte, size)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(data)
	var fetches int64
	fetch := func(off, n int64) ([]byte, error) {
		fetches++
		if off < 0 || n < 0 || off+n > size {
			return nil, errors.New("out of range")
		}
		return exact(data[off : off+n]), nil
	}
	return data, fetch, &fetches
}

// TestCacheTierPropertyQuick drives random extent schedules through the
// cache and checks the invariants that make the tier safe to trust:
// an extent's bytes equal the backing object's, hit + miss + singleflight
// bytes account for exactly the bytes served, resident bytes never exceed
// the budget, and a slice handed out earlier still holds the source's bytes
// after later reads and evictions while its reader holds it — an extent is
// never written while anyone holds it.
func TestCacheTierPropertyQuick(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		prop := func(seed int64, reads [24]uint8) bool {
			const budget = 16 << 10
			c, err := cachetier.New("", budget)
			if err != nil {
				t.Fatal(err)
			}
			// Two objects sharing the cache, each with six extents (they
			// may overlap) that together overflow the budget, so hits,
			// misses and evictions all happen.
			type extent struct{ obj, off, n int64 }
			sizes := []int64{12<<10 + 37, 9<<10 + 1}
			objs := make([][]byte, len(sizes))
			fetchers := make([]func(off, n int64) ([]byte, error), len(sizes))
			var table []extent
			rng := rand.New(rand.NewSource(seed))
			for i, sz := range sizes {
				objs[i], fetchers[i], _ = source(sz, seed+int64(i))
				for k := 0; k < 6; k++ {
					off := rng.Int63n(sz)
					table = append(table, extent{int64(i), off, 1 + rng.Int63n(min(sz-off, 6<<10))})
				}
			}
			type held struct {
				e       extent
				data    []byte
				release func()
			}
			var out []held
			var served int64
			for r, rv := range reads {
				e := table[int(rv)%len(table)]
				size := sizes[e.obj]
				data, release, _, err := c.ReadExtent(string(rune('a'+e.obj)), size, e.off, e.n, fetchers[e.obj])
				if err != nil {
					t.Logf("read %d: %v", r, err)
					return false
				}
				if !bytes.Equal(data, objs[e.obj][e.off:e.off+e.n]) {
					t.Logf("read %d: bytes differ from source", r)
					return false
				}
				served += e.n
				out = append(out, held{e, data, release})
				if st := c.Stats(); st.Bytes > budget {
					t.Logf("read %d: resident %d > budget %d", r, st.Bytes, budget)
					return false
				}
			}
			for i, h := range out {
				if !bytes.Equal(h.data, objs[h.e.obj][h.e.off:h.e.off+h.e.n]) {
					t.Logf("read %d: its slice changed after later reads", i)
					return false
				}
				h.release()
			}
			st := c.Stats()
			if st.HitBytes+st.MissBytes+st.SingleflightBytes != served {
				t.Logf("stats: hit %d + miss %d + singleflight %d != served %d", st.HitBytes, st.MissBytes, st.SingleflightBytes, served)
				return false
			}
			if st.Evictions > 0 && st.EvictedBytes <= 0 {
				t.Logf("stats: %d evictions of %d bytes", st.Evictions, st.EvictedBytes)
				return false
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCacheTierHitServesRemoteBytes pins the unit of remote traffic: a miss
// issues one fetch of exactly the extent asked for — not a block around it —
// overlapping extents are distinct entries, and a repeated extent is served
// from cache with zero fetches, as the very slice admitted.
func TestCacheTierHitServesRemoteBytes(t *testing.T) {
	c, err := cachetier.New("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data, fetch, _ := source(40<<10, 7)
	var asked [][2]int64
	counted := func(off, n int64) ([]byte, error) {
		asked = append(asked, [2]int64{off, n})
		return fetch(off, n)
	}
	size := int64(len(data))
	first, release, src, err := c.ReadExtent("o", size, 1000, 5000, counted)
	if err != nil || src != cachetier.Fetched || !bytes.Equal(first, data[1000:6000]) {
		t.Fatalf("cold: source %v, err %v", src, err)
	}
	release()
	_, release, src, err = c.ReadExtent("o", size, 3000, 100, counted)
	if err != nil || src != cachetier.Fetched {
		t.Fatalf("overlapping extent: source %v, err %v; want its own fetch", src, err)
	}
	release()
	if want := [][2]int64{{1000, 5000}, {3000, 100}}; len(asked) != 2 || asked[0] != want[0] || asked[1] != want[1] {
		t.Fatalf("fetched %v, want exactly %v", asked, want)
	}
	again, release, src, err := c.ReadExtent("o", size, 1000, 5000, counted)
	if err != nil || src != cachetier.Hit || len(asked) != 2 {
		t.Fatalf("warm: source %v, err %v, %d fetches", src, err, len(asked))
	}
	if &again[0] != &first[0] {
		t.Fatal("a memory-mode hit copied the resident extent")
	}
	release()
	if _, _, _, err := c.ReadExtent("o", size, size-10, 11, counted); err == nil {
		t.Fatal("an extent past the object's length was served")
	}
	st := c.Stats()
	if st.Hits != 1 || st.HitBytes != 5000 || st.Misses != 2 || st.MissBytes != 5100 || st.Bytes != 5100 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCacheTierAdmissionEviction pins the budget mechanics: extents larger
// than the budget are served but not admitted, and filling past the budget
// evicts the least recently used extents rather than growing.
func TestCacheTierAdmissionEviction(t *testing.T) {
	const budget, ext = 8 << 10, 4 << 10
	data, fetch, _ := source(3*ext, 2)
	size := int64(len(data))
	small, err := cachetier.New("", 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	_, release, _, err := small.ReadExtent("o", size, 0, ext, fetch)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if st := small.Stats(); st.Rejected != 1 || st.Bytes != 0 {
		t.Fatalf("oversized extent admitted: %+v", st)
	}

	// Three extents through a two-extent budget: eviction, not growth.
	c, err := cachetier.New("", budget)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		_, release, _, err := c.ReadExtent("o", size, i*ext, ext, fetch)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	st := c.Stats()
	if st.Bytes > budget || st.Evictions != 1 || st.EvictedBytes != ext {
		t.Fatalf("after overflow: %+v, want one eviction of %d bytes", st, ext)
	}
	// The least recently used extent went: the first is a miss again.
	_, release, src, err := c.ReadExtent("o", size, 0, ext, fetch)
	if err != nil || src != cachetier.Fetched {
		t.Fatalf("evicted extent: source %v, err %v", src, err)
	}
	release()
}

// TestCacheTierKeepsNoFiles pins that the tier lives in memory only: New
// refuses a directory and creates none.
func TestCacheTierKeepsNoFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if c, err := cachetier.New(dir, 1<<20); err == nil || c != nil {
		t.Fatalf("New(%q) = %v, %v; want an error", dir, c, err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("New made %s (stat: %v)", dir, err)
	}
}

// TestCacheTierBudgetBoundsResidentMemory pins that the budget bounds the
// memory resident extents keep alive, not just their lengths. A remote GET
// reads into an arena span that may be far larger than its extent: a span
// over twice the extent is not pinned (the entry keeps an exact copy), and
// one within that is charged its whole capacity.
func TestCacheTierBudgetBoundsResidentMemory(t *testing.T) {
	const ext, budget = 1 << 10, 4 << 10
	data := make([]byte, 8*ext)
	rand.New(rand.NewSource(9)).Read(data)
	size := int64(len(data))
	for _, tc := range []struct {
		slack     int64 // the fetched span's capacity, in extents
		resident  int   // extents the budget then holds
		keptBytes int   // capacity of each resident extent's buffer
	}{{64, 4, ext}, {2, 2, 2 * ext}} {
		c, err := cachetier.New("", budget)
		if err != nil {
			t.Fatal(err)
		}
		fetch := func(off, n int64) ([]byte, error) {
			b := make([]byte, n, tc.slack*n)
			copy(b, data[off:off+n])
			return b, nil
		}
		for i := int64(0); i < 8; i++ {
			_, release, _, err := c.ReadExtent("o", size, i*ext, ext, fetch)
			if err != nil {
				t.Fatal(err)
			}
			release()
		}
		st := c.Stats()
		// The resident extents are the most recently read; a hit hands out
		// the very buffer the cache keeps.
		held := 0
		for i := int64(7); i >= 8-int64(tc.resident); i-- {
			got, release, src, err := c.ReadExtent("o", size, i*ext, ext, fetch)
			if err != nil || src != cachetier.Hit || !bytes.Equal(got, data[i*ext:(i+1)*ext]) {
				t.Fatalf("slack %d: extent %d: source %v, err %v", tc.slack, i, src, err)
			}
			if cap(got) != tc.keptBytes {
				t.Errorf("slack %d: extent %d keeps a %d-byte buffer, want %d", tc.slack, i, cap(got), tc.keptBytes)
			}
			held += cap(got)
			release()
		}
		if st.Entries != int64(tc.resident) || st.Bytes != int64(held) || held > budget {
			t.Fatalf("slack %d: %+v, resident buffers hold %d bytes; want %d entries within %d", tc.slack, st, held, tc.resident, budget)
		}
	}
}

// TestCacheTierVersioning pins the stale-read guard: the same object name at
// a different length is a different cache key, so a rewritten object can
// never be served stale bytes.
func TestCacheTierVersioning(t *testing.T) {
	c, err := cachetier.New("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	v1, fetch1, _ := source(8<<10, 3)
	_, release, _, err := c.ReadExtent("o", int64(len(v1)), 0, int64(len(v1)), fetch1)
	if err != nil {
		t.Fatal(err)
	}
	release()
	// Same name, one byte longer, different content.
	v2, fetch2, _ := source(8<<10+1, 4)
	got, release, src, err := c.ReadExtent("o", int64(len(v2)), 0, int64(len(v1)), fetch2)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if src == cachetier.Hit {
		t.Fatal("new version served a stale cached extent")
	}
	if !bytes.Equal(got, v2[:len(v1)]) {
		t.Fatal("new version returned wrong bytes")
	}
}

// TestCacheTierSingleflightSharedFetch pins the cross-reader dedup: when
// several readers miss on the same extent while one fetch is in flight, only
// the leader touches the remote; everyone else either joins the flight
// (shared bytes) or hits the freshly admitted extent.
func TestCacheTierSingleflightSharedFetch(t *testing.T) {
	const size = 8 << 10
	data, _, _ := source(size, 7)
	c, err := cachetier.New("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	var fetches atomic.Int32
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	fetch := func(off, n int64) ([]byte, error) {
		if fetches.Add(1) == 1 {
			close(leaderIn)
			<-gate // hold the flight open so followers can join it
		}
		return exact(data[off : off+n]), nil
	}

	const readers = 8
	var wg sync.WaitGroup
	var bySource [3]atomic.Int64
	start := func() {
		defer wg.Done()
		got, release, src, err := c.ReadExtent("o", size, 0, size, fetch)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("reader got wrong bytes")
		}
		release()
		bySource[src].Add(size)
	}
	wg.Add(1)
	go start()
	<-leaderIn
	wg.Add(readers - 1)
	for i := 0; i < readers-1; i++ {
		go start()
	}
	// Give the followers a moment to reach the flight, then release it.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := fetches.Load(); n != 1 {
		t.Fatalf("%d remote fetches for one extent under %d readers, want 1", n, readers)
	}
	shared := bySource[cachetier.Shared].Load()
	if shared == 0 {
		t.Fatal("no reader joined the in-flight fetch")
	}
	if got := bySource[0].Load() + bySource[1].Load() + shared; got != readers*size {
		t.Fatalf("attributed %d bytes across sources, want %d", got, readers*size)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Singleflights == 0 || st.SingleflightBytes != shared {
		t.Fatalf("stats after shared fetch: %+v", st)
	}
}

// TestCacheTierSingleflightLeaderFailure pins two behaviors at once: a
// follower whose leader's fetch failed falls back to its own fetch rather
// than caching the error, and the concurrent fallback admissions that
// result never double-count the extent in the budget (idempotent admit).
func TestCacheTierSingleflightLeaderFailure(t *testing.T) {
	const size = 4 << 10
	data, _, _ := source(size, 9)
	c, err := cachetier.New("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	var fetches atomic.Int32
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	fetch := func(off, n int64) ([]byte, error) {
		if fetches.Add(1) == 1 {
			close(leaderIn)
			<-gate
			return nil, errors.New("injected leader failure")
		}
		return exact(data[off : off+n]), nil
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.ReadExtent("o", size, 0, size, fetch)
		leaderErr <- err
	}()
	<-leaderIn

	const followers = 6
	var wg sync.WaitGroup
	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func() {
			defer wg.Done()
			if got, release, _, err := c.ReadExtent("o", size, 0, size, fetch); err != nil {
				t.Errorf("follower: %v", err)
			} else {
				if !bytes.Equal(got, data) {
					t.Error("follower got wrong bytes")
				}
				release()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if err := <-leaderErr; err == nil {
		t.Fatal("leader's failed fetch reported no error")
	}

	st := c.Stats()
	if st.Bytes != size {
		t.Fatalf("resident %d bytes after concurrent admissions of one %d-byte extent", st.Bytes, size)
	}
	if st.Admitted != 1 {
		t.Fatalf("extent admitted %d times, want 1 (idempotent admit): %+v", st.Admitted, st)
	}
	// The extent is genuinely resident: a fresh read is a pure hit.
	before := fetches.Load()
	got, release, src, err := c.ReadExtent("o", size, 0, size, fetch)
	if err != nil || src != cachetier.Hit || fetches.Load() != before || !bytes.Equal(got, data) {
		t.Fatalf("post-fallback read not served from cache: source %v, err %v", src, err)
	}
	release()
}
