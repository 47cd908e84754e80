package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"flor.dev/flor/internal/replay"
)

// TestStoreCacheOpensRunOnce: however many first queries of a run race, the
// run is opened once, counted as one miss, and everybody shares the entry.
func TestStoreCacheOpensRunOnce(t *testing.T) {
	const callers = 8
	c := newStoreCache(4, 0, nil)
	var loads atomic.Int32
	release := make(chan struct{})
	load := func() (*replay.Recording, error) {
		loads.Add(1)
		<-release // hold the open until every caller is in get
		return &replay.Recording{}, nil
	}
	ents := make([]*cacheEntry, callers)
	var entered, wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		entered.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Done()
			ent, _, err := c.get("run", "", load)
			if err != nil {
				t.Error(err)
			}
			ents[i] = ent
		}(i)
	}
	entered.Wait()
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("run opened %d times, want 1", n)
	}
	for i, ent := range ents {
		if ent == nil || ent != ents[0] {
			t.Fatalf("caller %d got entry %p, caller 0 got %p", i, ent, ents[0])
		}
	}
	if st := c.stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
}

// TestStoreCacheFailedOpenIsRetried: a failed open is its caller's error
// alone; the callers that waited on it open the run themselves and never see
// a nil entry.
func TestStoreCacheFailedOpenIsRetried(t *testing.T) {
	const callers = 6
	c := newStoreCache(4, 0, nil)
	boom := errors.New("boom")
	var loads atomic.Int32
	release := make(chan struct{})
	load := func() (*replay.Recording, error) {
		if loads.Add(1) == 1 {
			<-release
			return nil, boom
		}
		return &replay.Recording{}, nil
	}
	var failed atomic.Int32
	var entered, wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		entered.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Done()
			ent, _, err := c.get("run", "", load)
			switch {
			case errors.Is(err, boom) && ent == nil:
				failed.Add(1)
			case err != nil || ent == nil:
				t.Errorf("get = (%p, %v)", ent, err)
			}
		}()
	}
	entered.Wait()
	close(release)
	wg.Wait()
	if failed.Load() != 1 || loads.Load() != 2 {
		t.Fatalf("%d callers failed over %d opens, want 1 over 2", failed.Load(), loads.Load())
	}
	if st := c.stats(); st.Misses != 2 || st.Open != 1 {
		t.Fatalf("stats = %+v, want 2 misses and the run resident", st)
	}
}
