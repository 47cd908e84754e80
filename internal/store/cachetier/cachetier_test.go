package cachetier_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"flor.dev/flor/internal/store/cachetier"
)

// source builds a deterministic backing object and a fetch function over it
// that counts remote reads.
func source(size int64, seed int64) ([]byte, func(off, n int64) ([]byte, error), *int64) {
	data := make([]byte, size)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(data)
	var fetches int64
	fetch := func(off, n int64) ([]byte, error) {
		fetches++
		if off < 0 || off+n > size {
			return nil, errors.New("out of range")
		}
		return data[off : off+n], nil
	}
	return data, fetch, &fetches
}

// TestCacheTierPropertyQuick drives random read schedules through disk and
// memory caches and checks the invariants that make the tier safe to trust:
// reads through the cache are byte-identical to the backing object, cached
// plus fetched always accounts for exactly the bytes returned, and resident
// bytes never exceed the configured budget.
func TestCacheTierPropertyQuick(t *testing.T) {
	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			prop := func(seed int64, reads [12]uint32) bool {
				dir := ""
				if disk {
					dir = t.TempDir()
				}
				const budget, block = 16 << 10, 2 << 10
				c, err := cachetier.NewWithBlockSize(dir, budget, block)
				if err != nil {
					t.Fatal(err)
				}
				// Two objects sharing the cache, sized to overflow the budget
				// together so eviction is exercised.
				sizes := []int64{12<<10 + 37, 9<<10 + 1}
				objs := make([][]byte, len(sizes))
				fetchers := make([]func(off, n int64) ([]byte, error), len(sizes))
				for i, sz := range sizes {
					objs[i], fetchers[i], _ = source(sz, seed+int64(i))
				}
				var served int64
				for r, rv := range reads {
					oi := int(rv) % len(sizes)
					size := sizes[oi]
					off := int64(rv>>1) % size
					n := 1 + int64(rv>>3)%(size-off)
					p := make([]byte, n)
					cached, fetched, shared, err := c.ReadThrough(fmt.Sprintf("obj-%d", oi), size, off, p, fetchers[oi])
					if err != nil {
						t.Logf("read %d: %v", r, err)
						return false
					}
					if cached+fetched+shared != n {
						t.Logf("read %d: cached %d + fetched %d + shared %d != n %d", r, cached, fetched, shared, n)
						return false
					}
					served += n
					if !bytes.Equal(p, objs[oi][off:off+n]) {
						t.Logf("read %d: bytes differ from source", r)
						return false
					}
					if st := c.Stats(); st.Bytes > budget {
						t.Logf("read %d: resident %d > budget %d", r, st.Bytes, budget)
						return false
					}
				}
				if st := c.Stats(); st.HitBytes+st.MissBytes+st.SingleflightBytes != served {
					t.Logf("stats: hit %d + miss %d + singleflight %d != served %d", st.HitBytes, st.MissBytes, st.SingleflightBytes, served)
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

// TestCacheTierHitServesRemoteBytes pins the hit path: a repeated read is
// served fully from cache with zero remote fetches and identical bytes.
func TestCacheTierHitServesRemoteBytes(t *testing.T) {
	c, err := cachetier.NewWithBlockSize("", 1<<20, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	data, fetch, fetches := source(40<<10, 7)
	p := make([]byte, 40<<10)
	cached, fetched, _, err := c.ReadThrough("o", int64(len(data)), 0, p, fetch)
	if err != nil || cached != 0 || fetched != int64(len(p)) {
		t.Fatalf("cold: cached=%d fetched=%d err=%v", cached, fetched, err)
	}
	before := *fetches
	q := make([]byte, 40<<10)
	cached, fetched, _, err = c.ReadThrough("o", int64(len(data)), 0, q, fetch)
	if err != nil || fetched != 0 || cached != int64(len(q)) {
		t.Fatalf("warm: cached=%d fetched=%d err=%v", cached, fetched, err)
	}
	if *fetches != before {
		t.Fatalf("warm read fetched remotely %d times", *fetches-before)
	}
	if !bytes.Equal(p, q) || !bytes.Equal(p, data) {
		t.Fatal("hit returned different bytes than miss")
	}
	st := c.Stats()
	if st.Hits == 0 || st.HitBytes != int64(len(q)) {
		t.Fatalf("stats after warm read: %+v", st)
	}
}

// TestCacheTierAdmissionEviction pins the budget mechanics: oversized blocks
// are rejected outright, and filling past the budget evicts the least
// recently used blocks rather than growing.
func TestCacheTierAdmissionEviction(t *testing.T) {
	const budget, block = 8 << 10, 4 << 10
	c, err := cachetier.NewWithBlockSize("", budget, block)
	if err != nil {
		t.Fatal(err)
	}
	// An object read with a huge block size would exceed the budget per
	// block; simulate with a cache whose block is bigger than its budget.
	big, err := cachetier.NewWithBlockSize("", 1<<10, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	data, fetch, _ := source(4<<10, 1)
	p := make([]byte, len(data))
	if _, _, _, err := big.ReadThrough("o", int64(len(data)), 0, p, fetch); err != nil {
		t.Fatal(err)
	}
	if st := big.Stats(); st.Rejected == 0 || st.Bytes != 0 {
		t.Fatalf("oversized block admitted: %+v", st)
	}

	// Three full blocks through a two-block budget: eviction, not growth.
	data, fetch, _ = source(3*block, 2)
	for i := int64(0); i < 3; i++ {
		p := make([]byte, block)
		if _, _, _, err := c.ReadThrough("o", int64(len(data)), i*block, p, fetch); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("resident %d > budget %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overflow: %+v", st)
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
	c, err := cachetier.NewWithBlockSize("", 1<<20, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	v1, fetch1, _ := source(8<<10, 3)
	p := make([]byte, len(v1))
	if _, _, _, err := c.ReadThrough("o", int64(len(v1)), 0, p, fetch1); err != nil {
		t.Fatal(err)
	}
	// Same name, one byte longer, different content.
	v2, fetch2, _ := source(8<<10+1, 4)
	q := make([]byte, len(v2))
	cached, _, _, err := c.ReadThrough("o", int64(len(v2)), 0, q, fetch2)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 0 {
		t.Fatalf("new version served %d stale cached bytes", cached)
	}
	if !bytes.Equal(q, v2) {
		t.Fatal("new version returned wrong bytes")
	}
}

// TestCacheTierSingleflightSharedFetch pins the cross-reader dedup: when
// several readers miss on the same block while one fetch is in flight, only
// the leader touches the remote; everyone else either joins the flight
// (shared bytes) or hits the freshly admitted block.
func TestCacheTierSingleflightSharedFetch(t *testing.T) {
	const size = 8 << 10
	data, _, _ := source(size, 7)
	c, err := cachetier.NewWithBlockSize("", 1<<20, size)
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
		return data[off : off+n], nil
	}

	const readers = 8
	var wg sync.WaitGroup
	var cachedB, fetchedB, sharedB atomic.Int64
	start := func() {
		defer wg.Done()
		p := make([]byte, size)
		cached, fetched, shared, err := c.ReadThrough("o", size, 0, p, fetch)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(p, data) {
			t.Error("reader got wrong bytes")
		}
		cachedB.Add(cached)
		fetchedB.Add(fetched)
		sharedB.Add(shared)
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
		t.Fatalf("%d remote fetches for one block under %d readers, want 1", n, readers)
	}
	if sharedB.Load() == 0 {
		t.Fatal("no reader joined the in-flight fetch")
	}
	if got := cachedB.Load() + fetchedB.Load() + sharedB.Load(); got != readers*size {
		t.Fatalf("attributed %d bytes across tiers, want %d", got, readers*size)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Singleflights == 0 || st.SingleflightBytes != sharedB.Load() {
		t.Fatalf("stats after shared fetch: %+v", st)
	}
}

// TestCacheTierSingleflightLeaderFailure pins two behaviors at once: a
// follower whose leader's fetch failed falls back to its own fetch rather
// than caching the error, and the concurrent fallback admissions that
// result never double-count the block in the budget (idempotent admit,
// exercised on the disk path where the write happens outside the lock).
func TestCacheTierSingleflightLeaderFailure(t *testing.T) {
	const size = 4 << 10
	data, _, _ := source(size, 9)
	c, err := cachetier.NewWithBlockSize(t.TempDir(), 1<<20, size)
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
		return data[off : off+n], nil
	}

	leaderErr := make(chan error, 1)
	go func() {
		p := make([]byte, size)
		_, _, _, err := c.ReadThrough("o", size, 0, p, fetch)
		leaderErr <- err
	}()
	<-leaderIn

	const followers = 6
	var wg sync.WaitGroup
	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func() {
			defer wg.Done()
			p := make([]byte, size)
			if _, _, _, err := c.ReadThrough("o", size, 0, p, fetch); err != nil {
				t.Errorf("follower: %v", err)
			} else if !bytes.Equal(p, data) {
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
		t.Fatalf("resident %d bytes after concurrent admissions of one %d-byte block", st.Bytes, size)
	}
	if st.Admitted != 1 {
		t.Fatalf("block admitted %d times, want 1 (idempotent admit): %+v", st.Admitted, st)
	}
	// The block is genuinely resident: a fresh read is a pure hit.
	before := fetches.Load()
	p := make([]byte, size)
	cached, _, _, err := c.ReadThrough("o", size, 0, p, fetch)
	if err != nil || cached != size || fetches.Load() != before {
		t.Fatalf("post-fallback read not served from cache: cached=%d err=%v", cached, err)
	}
}
