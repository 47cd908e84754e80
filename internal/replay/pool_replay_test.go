package replay_test

import (
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/sched"
)

// TestReplaySampleSharedCacheHits runs the same sample twice against one
// shared cache and checks the second pass restores entirely from memory.
func TestReplaySampleSharedCacheHits(t *testing.T) {
	factory := trainFactory(8, 3)
	rec := record(t, factory)
	probed := addOuterProbe(factory)
	cache := backmat.NewPayloadCache(0)
	pool := sched.NewPool(2)

	opts := replay.SampleOptions{Cache: cache, Slots: pool}
	first, err := replay.ReplaySampleWith(rec.Recording, probed, []int{2, 5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := replay.ReplaySampleWith(rec.Recording, probed, []int{2, 5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Logs) == 0 || len(first.Logs) != len(second.Logs) {
		t.Fatalf("log lengths: first %d, second %d", len(first.Logs), len(second.Logs))
	}
	for i := range first.Logs {
		if first.Logs[i] != second.Logs[i] {
			t.Fatalf("log %d diverged: %q vs %q", i, first.Logs[i], second.Logs[i])
		}
	}
	if st := pool.Stats(); st.InUse != 0 || st.Acquires != 2 {
		t.Fatalf("pool stats = %+v", st)
	}
}
