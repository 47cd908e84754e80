//go:build !race

package replay_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

// TestFreshWorkerReusesReleasedBuffers pins what recycling saves a fresh
// worker: once an earlier query's programs were released, the next fresh
// worker's setup builds a model the benchmark's size allocating under a
// tenth of its parameter bytes, where the first one allocated them all. Two
// collections first empty the pools, and the model's layer shapes are its
// own, so the first worker finds no buffer of its lengths. Without -race
// (the detector makes sync.Pool drop buffers at random), on one P (a buffer
// released on one P is not always found from another) and with the
// collector off after that (a collection empties the pools), so the measure
// is the recycler's and nothing else's.
func TestFreshWorkerReusesReleasedBuffers(t *testing.T) {
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const epochs = 4
	var built []uint64 // bytes each setup's model build allocated
	var paramBytes int64
	measured := func(rng *xrand.RNG) nn.Module {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		m := nn.NewResidualMLP(rng, 24, 72, 72, 6, 9)
		runtime.ReadMemStats(&ms)
		built = append(built, ms.TotalAlloc-before)
		paramBytes = int64((&value.Model{M: m}).SizeBytes())
		return m
	}
	factory := sgdModelFactory(epochs, measured)
	rec := record(t, factory)
	probe := withLog(factory, "wnorm", func(e *script.Env) (string, error) {
		return fmt.Sprintf("%.17g", nn.WeightNorm(e.MustGet("net").(*value.Model).M)), nil
	})
	built = nil
	for range 2 {
		if _, err := replay.Replay(rec.Recording, probe, replay.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if len(built) != 2 {
		t.Fatalf("%d setups ran, want one per query", len(built))
	}
	if first := built[0]; first < uint64(paramBytes) {
		t.Fatalf("the first fresh worker allocated %d bytes for a model of %d: too few for the pin to mean anything", first, paramBytes)
	}
	if got := built[1]; got > uint64(paramBytes)/10 {
		t.Fatalf("a fresh worker after a released query allocated %d bytes for a model of %d parameter bytes (%.0f%%); must stay under 10%%",
			got, paramBytes, 100*float64(got)/float64(paramBytes))
	}
	t.Logf("model of %d parameter bytes: the first fresh worker allocated %d, the next %d", paramBytes, built[0], built[1])
}
