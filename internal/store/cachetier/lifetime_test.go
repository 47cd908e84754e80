package cachetier_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flor.dev/flor/internal/store/cachetier"
)

// ledger watches every buffer the cache hands out and gives back. Buffers
// are identified by their first byte's address; the put hook keeps them out
// of the arena, so no address is reused while a ledger is installed.
type ledger struct {
	t        *testing.T
	obj      []byte
	slack    int64 // a fetched buffer's capacity in extents (0: exact)
	mu       sync.Mutex
	fetched  map[*byte]bool // buffers a fetch produced
	lent     map[*byte]bool // buffers a reader was handed
	held     map[*byte]int  // readers decoding out of the buffer now
	returned map[*byte]int  // times the cache gave the buffer back
}

// newLedger installs a ledger over a random object of size bytes until the
// test ends.
func newLedger(t *testing.T, size int) *ledger {
	l := &ledger{
		t: t, obj: make([]byte, size),
		fetched: map[*byte]bool{}, lent: map[*byte]bool{}, held: map[*byte]int{}, returned: map[*byte]int{},
	}
	rand.New(rand.NewSource(int64(size))).Read(l.obj)
	t.Cleanup(cachetier.SetPut(l.put))
	return l
}

// fetch is a remote GET of the ledger's object: a fresh buffer of its own,
// as large as a pooled arena span may be when slack is set.
func (l *ledger) fetch(off, n int64) ([]byte, error) {
	b := exact(l.obj[off : off+n])
	if l.slack > 0 {
		b = append(make([]byte, 0, l.slack*n), b...)
	}
	l.mu.Lock()
	l.fetched[&b[0]] = true
	l.mu.Unlock()
	return b, nil
}

// put is the cache's arena put: a buffer a reader still holds, or one given
// back twice, is a lifetime bug. The buffer is poisoned, so a reader that
// decodes out of it after it went back sees other bytes.
func (l *ledger) put(b []byte) {
	p := &b[:1][0]
	l.mu.Lock()
	if l.held[p] > 0 {
		l.t.Errorf("buffer %p given back while %d readers hold it", p, l.held[p])
	}
	l.returned[p]++
	if l.returned[p] > 1 {
		l.t.Errorf("buffer %p given back %d times", p, l.returned[p])
	}
	l.mu.Unlock()
	for i := range b {
		b[i] = 0xa5
	}
}

// read is one reader: it reads [off, off+n) through c, checks the bytes
// while it holds them (yielding mid-check, as a decode would be
// preempted), and releases them.
func (l *ledger) read(c *cachetier.Cache, off, n int64, during func()) error {
	data, release, _, err := c.ReadExtent("o", int64(len(l.obj)), off, n, l.fetch)
	if err != nil {
		return err
	}
	p := &data[0]
	l.mu.Lock()
	l.lent[p] = true
	l.held[p]++
	l.mu.Unlock()
	runtime.Gosched()
	if during != nil {
		during()
	}
	ok := bytes.Equal(data, l.obj[off:off+n])
	l.mu.Lock()
	l.held[p]--
	l.mu.Unlock()
	release()
	if !ok {
		return fmt.Errorf("extent [%d,%d) changed under its reader", off, off+n)
	}
	return nil
}

// settle evicts every resident extent, dropping the cache's own
// references, and checks that every buffer a
// fetch produced or a reader was handed went back exactly once.
func (l *ledger) settle(c *cachetier.Cache) {
	cachetier.EvictAll(c)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, set := range []map[*byte]bool{l.fetched, l.lent} {
		for p := range set {
			if l.returned[p] != 1 {
				l.t.Errorf("buffer %p given back %d times, want once", p, l.returned[p])
			}
		}
	}
	if len(l.fetched) == 0 {
		l.t.Error("no fetch ran: the schedule exercised nothing")
	}
}

// readers runs g goroutines of k reads each over the extents, in random
// order, and reports the first failure.
func (l *ledger) readers(c *cachetier.Cache, g, k int, extents [][2]int64) {
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < k; i++ {
				e := extents[rng.Intn(len(extents))]
				if err := l.read(c, e[0], e[1], nil); err != nil {
					l.t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestCacheTierExtentLifetime pins the lease discipline: every buffer a
// fetch produced goes back to the arena exactly once, and never while a
// reader still holds it — under overlapping concurrent readers, fetched
// spans larger than their extents, a budget of one extent (every admission
// evicts), the whole tier evicted mid-read, a failing flight leader and a
// zero budget. CI runs it under -race -count=20.
func TestCacheTierExtentLifetime(t *testing.T) {
	const ext = 2 << 10
	// Overlapping extents of several sizes over a 12 KiB object.
	overlapping := [][2]int64{{0, ext}, {ext / 2, ext}, {ext, ext}, {0, 3 * ext}, {4 * ext, ext / 2}, {4 * ext, 2 * ext}}
	sameSize := [][2]int64{{0, ext}, {ext, ext}, {2 * ext, ext}, {3 * ext, ext}}

	t.Run("overlapping", func(t *testing.T) {
		l := newLedger(t, 12<<10)
		c, err := cachetier.New("", 5*ext)
		if err != nil {
			t.Fatal(err)
		}
		l.readers(c, 6, 40, overlapping)
		l.settle(c)
	})
	t.Run("one-extent budget", func(t *testing.T) {
		l := newLedger(t, 12<<10)
		c, err := cachetier.New("", ext)
		if err != nil {
			t.Fatal(err)
		}
		l.readers(c, 6, 40, sameSize)
		if st := c.Stats(); st.Evictions == 0 {
			t.Fatalf("nothing evicted under a one-extent budget: %+v", st)
		}
		l.settle(c)
	})
	t.Run("oversized spans", func(t *testing.T) {
		// Spans of 2x (adopted) and 8x (copied, given back by their last
		// reader) their extent.
		for _, slack := range []int64{2, 8} {
			l := newLedger(t, 12<<10)
			l.slack = slack
			c, err := cachetier.New("", 5*ext)
			if err != nil {
				t.Fatal(err)
			}
			l.readers(c, 6, 40, overlapping)
			l.settle(c)
		}
	})
	t.Run("zero budget", func(t *testing.T) {
		l := newLedger(t, 12<<10)
		c, err := cachetier.New("", 0)
		if err != nil {
			t.Fatal(err)
		}
		l.readers(c, 6, 40, overlapping)
		if st := c.Stats(); st.Admitted != 0 {
			t.Fatalf("a zero budget admitted: %+v", st)
		}
		l.settle(c)
	})
	t.Run("evict mid-read", func(t *testing.T) {
		l := newLedger(t, 12<<10)
		c, err := cachetier.New("", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		// A resident extent dropped while its reader holds it stays intact
		// until the reader lets go.
		if err := l.read(c, 0, ext, nil); err != nil {
			t.Fatal(err)
		}
		if err := l.read(c, 0, ext, func() { cachetier.EvictAll(c) }); err != nil {
			t.Fatal(err)
		}
		// And concurrently with readers of every extent.
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					cachetier.EvictAll(c)
					runtime.Gosched()
				}
			}
		}()
		l.readers(c, 6, 40, overlapping)
		close(stop)
		<-done
		l.settle(c)
	})
	t.Run("leader fails", func(t *testing.T) {
		for _, failure := range []string{"error", "short"} {
			t.Run(failure, func(t *testing.T) {
				l := newLedger(t, 12<<10)
				c, err := cachetier.New("", 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				var fetches atomic.Int32
				leaderIn, gate := make(chan struct{}), make(chan struct{})
				fetch := func(off, n int64) ([]byte, error) {
					if fetches.Add(1) == 1 {
						close(leaderIn)
						<-gate
						if failure == "error" {
							return nil, errors.New("injected leader failure")
						}
						b, _ := l.fetch(off, n)
						return b[:n-1], nil
					}
					return l.fetch(off, n)
				}
				size := int64(len(l.obj))
				leaderErr := make(chan error, 1)
				go func() {
					_, _, _, err := c.ReadExtent("o", size, 0, ext, fetch)
					leaderErr <- err
				}()
				<-leaderIn
				var wg sync.WaitGroup
				for i := 0; i < 6; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						data, release, _, err := c.ReadExtent("o", size, 0, ext, fetch)
						if err != nil {
							t.Errorf("joiner: %v", err)
							return
						}
						if !bytes.Equal(data, l.obj[:ext]) {
							t.Error("joiner got wrong bytes")
						}
						release()
					}()
				}
				// Let the joiners reach the flight. One that arrives after it
				// ends hits or fetches on its own, and the ledger holds either way.
				time.Sleep(10 * time.Millisecond)
				close(gate)
				wg.Wait()
				if err := <-leaderErr; err == nil {
					t.Fatal("the failed leader reported no error")
				}
				l.settle(c)
			})
		}
	})
}
