package cachetier_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"flor.dev/flor/internal/store/cachetier"
)

// source builds a deterministic backing object and a fetch function over it
// that counts remote reads. Like every remote GET, fetch returns a freshly
// allocated copy, which the cache may adopt.
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
		return append([]byte(nil), data[off:off+n]...), nil
	}
	return data, fetch, &fetches
}

// TestCacheTierPropertyQuick drives random extent schedules through disk and
// memory caches and checks the invariants that make the tier safe to trust:
// an extent's bytes equal the backing object's, hit + miss + singleflight
// bytes account for exactly the bytes served, resident bytes never exceed
// the budget, and a slice handed out earlier still holds the source's bytes
// after later reads and evictions — a resident extent is never written.
func TestCacheTierPropertyQuick(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			prop := func(seed int64, reads [24]uint8) bool {
				dir := ""
				if disk {
					dir = t.TempDir()
				}
				const budget = 16 << 10
				c, err := cachetier.New(dir, budget)
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
					e    extent
					data []byte
				}
				var out []held
				var served int64
				for r, rv := range reads {
					e := table[int(rv)%len(table)]
					size := sizes[e.obj]
					data, _, err := c.ReadExtent(string(rune('a'+e.obj)), size, e.off, e.n, fetchers[e.obj])
					if err != nil {
						t.Logf("read %d: %v", r, err)
						return false
					}
					if !bytes.Equal(data, objs[e.obj][e.off:e.off+e.n]) {
						t.Logf("read %d: bytes differ from source", r)
						return false
					}
					served += e.n
					out = append(out, held{e, data})
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
	first, src, err := c.ReadExtent("o", size, 1000, 5000, counted)
	if err != nil || src != cachetier.Fetched || !bytes.Equal(first, data[1000:6000]) {
		t.Fatalf("cold: source %v, err %v", src, err)
	}
	if _, src, err = c.ReadExtent("o", size, 3000, 100, counted); err != nil || src != cachetier.Fetched {
		t.Fatalf("overlapping extent: source %v, err %v; want its own fetch", src, err)
	}
	if want := [][2]int64{{1000, 5000}, {3000, 100}}; len(asked) != 2 || asked[0] != want[0] || asked[1] != want[1] {
		t.Fatalf("fetched %v, want exactly %v", asked, want)
	}
	again, src, err := c.ReadExtent("o", size, 1000, 5000, counted)
	if err != nil || src != cachetier.Hit || len(asked) != 2 {
		t.Fatalf("warm: source %v, err %v, %d fetches", src, err, len(asked))
	}
	if &again[0] != &first[0] {
		t.Fatal("a memory-mode hit copied the resident extent")
	}
	if _, _, err := c.ReadExtent("o", size, size-10, 11, counted); err == nil {
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
	if _, _, err := small.ReadExtent("o", size, 0, ext, fetch); err != nil {
		t.Fatal(err)
	}
	if st := small.Stats(); st.Rejected != 1 || st.Bytes != 0 {
		t.Fatalf("oversized extent admitted: %+v", st)
	}

	// Three extents through a two-extent budget: eviction, not growth.
	c, err := cachetier.New("", budget)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if _, _, err := c.ReadExtent("o", size, i*ext, ext, fetch); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > budget || st.Evictions != 1 || st.EvictedBytes != ext {
		t.Fatalf("after overflow: %+v, want one eviction of %d bytes", st, ext)
	}
	// The least recently used extent went: the first is a miss again.
	if _, src, err := c.ReadExtent("o", size, 0, ext, fetch); err != nil || src != cachetier.Fetched {
		t.Fatalf("evicted extent: source %v, err %v", src, err)
	}

	// Invalidate drops residency to zero.
	c.Invalidate("o")
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("after invalidate: %+v", st)
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
	if _, _, err := c.ReadExtent("o", int64(len(v1)), 0, int64(len(v1)), fetch1); err != nil {
		t.Fatal(err)
	}
	// Same name, one byte longer, different content.
	v2, fetch2, _ := source(8<<10+1, 4)
	got, src, err := c.ReadExtent("o", int64(len(v2)), 0, int64(len(v1)), fetch2)
	if err != nil {
		t.Fatal(err)
	}
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
		return append([]byte(nil), data[off:off+n]...), nil
	}

	const readers = 8
	var wg sync.WaitGroup
	var bySource [3]atomic.Int64
	start := func() {
		defer wg.Done()
		got, src, err := c.ReadExtent("o", size, 0, size, fetch)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("reader got wrong bytes")
		}
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
// result never double-count the extent in the budget (idempotent admit,
// exercised on the disk path where the write happens outside the lock).
func TestCacheTierSingleflightLeaderFailure(t *testing.T) {
	const size = 4 << 10
	data, _, _ := source(size, 9)
	c, err := cachetier.New(t.TempDir(), 1<<20)
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
		return append([]byte(nil), data[off:off+n]...), nil
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.ReadExtent("o", size, 0, size, fetch)
		leaderErr <- err
	}()
	<-leaderIn

	const followers = 6
	var wg sync.WaitGroup
	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func() {
			defer wg.Done()
			if got, _, err := c.ReadExtent("o", size, 0, size, fetch); err != nil {
				t.Errorf("follower: %v", err)
			} else if !bytes.Equal(got, data) {
				t.Error("follower got wrong bytes")
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
	got, src, err := c.ReadExtent("o", size, 0, size, fetch)
	if err != nil || src != cachetier.Hit || fetches.Load() != before || !bytes.Equal(got, data) {
		t.Fatalf("post-fallback read not served from cache: source %v, err %v", src, err)
	}
}
