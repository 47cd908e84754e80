package skipblock

import (
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"flor.dev/flor/internal/adapt"
	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/store/cachetier"
	"flor.dev/flor/internal/store/remote"
)

// countedObjects counts the ranged GETs that reach an object store and the
// bytes they ask for.
type countedObjects struct {
	remote.ObjectStore
	gets, bytes atomic.Int64
}

func (c *countedObjects) GetRange(key string, off, n int64) ([]byte, error) {
	c.gets.Add(1)
	c.bytes.Add(n)
	return c.ObjectStore.GetRange(key, off, n)
}

// remoteTwin uploads the recording in dir to an in-memory object store and
// opens it as a stateless daemon does: the control plane fetched to a fresh
// directory, pack bytes read by ranged GETs through a cache tier large
// enough to keep every extent. It returns the store, the GET counter and the
// total size of the uploaded packs.
func remoteTwin(t *testing.T, dir string) (*store.Store, *countedObjects, int64) {
	t.Helper()
	cache, err := cachetier.New("", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return remoteTwinWith(t, dir, cache)
}

// remoteTwinWith is remoteTwin behind the given cache tier (nil: none, so
// every extent is a fresh ranged GET).
func remoteTwinWith(t *testing.T, dir string, cache *cachetier.Cache) (*store.Store, *countedObjects, int64) {
	t.Helper()
	mem := remote.NewMemStore()
	if _, err := remote.UploadRun(mem, dir, "runs/q0"); err != nil {
		t.Fatal(err)
	}
	ctl := filepath.Join(t.TempDir(), "ctl")
	if _, err := remote.FetchControlPlane(mem, "runs/q0", ctl); err != nil {
		t.Fatal(err)
	}
	packs, err := mem.List(remote.PacksPrefix("runs/q0"))
	if err != nil || len(packs) == 0 {
		t.Fatalf("uploaded packs %v, err %v", packs, err)
	}
	var packBytes int64
	for _, k := range packs {
		n, err := mem.Size(k)
		if err != nil {
			t.Fatal(err)
		}
		packBytes += n
	}
	objs := &countedObjects{ObjectStore: mem}
	st, err := store.OpenWith(ctl, store.Options{ReadOnly: true, Backend: remote.NewObjectBackend(objs, remote.PacksPrefix("runs/q0"), cache)})
	if err != nil {
		t.Fatal(err)
	}
	return st, objs, packBytes
}

// replayModelOnly replays sgdProgram over st with the outer probe, whose one
// log statement reads the model alone, and returns the runtime and its lines.
// With trace set, the runtime counts its fetch tiers.
func replayModelOnly(t *testing.T, st *store.Store, tracker *adapt.Tracker, epochs int, trace bool, afterEpoch func(int)) (*Runtime, []string) {
	t.Helper()
	p := sgdProgram(epochs, afterEpoch)
	rt := NewRuntime(p, tracker, nil, st)
	rt.SetCache(backmat.NewPayloadCache(1))
	rt.SetMode(ModeReplayExec)
	rt.SetProbes(map[string]bool{"main": true})
	if trace {
		rt.SetTrace(obs.NewTrace(), 0)
	}
	var logs []string
	runProgram(t, p, rt, func(s string) { logs = append(logs, s) })
	return rt, logs
}

// TestRemoteReplayFetchesExactlyTheWantedFrames pins the remote read path's
// unit: a model-only replay of a recording whose checkpoints carry the model
// and an equally large SGD momentum state asks the object store for exactly
// the encoded bytes of the model's frame records — the bytes a local replay
// of the same probe decodes — and for no optimizer byte. A second pass is
// served wholly by the cache tier: not one GET.
func TestRemoteReplayFetchesExactlyTheWantedFrames(t *testing.T) {
	const epochs = 6
	p := sgdProgram(epochs, nil)
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	var recorded []string
	runProgram(t, p, rt, func(s string) { recorded = append(recorded, s) })
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}

	local, _ := replayModelOnly(t, st, tracker, epochs, true, nil)
	wanted := local.FetchSnapshot().TotalBytes()
	twin, objs, packBytes := remoteTwin(t, st.Dir())
	if wanted == 0 || wanted > packBytes*6/10 {
		t.Fatalf("a model-only load decodes %d of %d pack bytes; the optimizer's half should be left out", wanted, packBytes)
	}

	for pass, name := range []string{"cold", "warm"} {
		gets, fetched := objs.gets.Load(), objs.bytes.Load()
		rt2, logs := replayModelOnly(t, twin, tracker, epochs, true, nil)
		if len(logs) != len(recorded) {
			t.Fatalf("%s: %d lines, recorded %d", name, len(logs), len(recorded))
		}
		for i := range logs {
			if logs[i] != recorded[i] {
				t.Fatalf("%s: epoch %d logged %s, record %s", name, i, logs[i], recorded[i])
			}
		}
		f := rt2.FetchSnapshot()
		gets, fetched = objs.gets.Load()-gets, objs.bytes.Load()-fetched
		if pass == 0 {
			if fetched != wanted || f.RemoteBytes != wanted {
				t.Fatalf("cold: %d GETs asked for %d bytes, %d counted remote; the wanted frames are %d bytes", gets, fetched, f.RemoteBytes, wanted)
			}
			continue
		}
		if gets != 0 || f.CacheTierBytes != wanted {
			t.Fatalf("warm: %d GETs for %d bytes, %d cache-tier bytes of %d wanted", gets, fetched, f.CacheTierBytes, wanted)
		}
	}
}

// TestRemoteRestoreSteadyStateAllocation is the remote twin of
// TestRestoreSteadyStateAllocation: once the cache tier holds a run's
// extents, a remote restore decodes where the extents lie, so an epoch's
// load after the second allocates at most a tenth of the bytes it loads.
func TestRemoteRestoreSteadyStateAllocation(t *testing.T) {
	skipUnderRace(t)
	const epochs = 24
	p := sgdProgram(epochs, nil)
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	runProgram(t, p, rt, func(string) {})
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	twin, objs, _ := remoteTwin(t, st.Dir())
	replayModelOnly(t, twin, tracker, epochs, false, nil) // warms the cache tier
	gets := objs.gets.Load()

	// One P, as in the local guard: the arena is a sync.Pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	allocated := make([]uint64, epochs)
	rt2, _ := replayModelOnly(t, twin, tracker, epochs, false, func(epoch int) {
		runtime.ReadMemStats(&ms)
		allocated[epoch] = ms.TotalAlloc
	})
	if n := objs.gets.Load() - gets; n != 0 {
		t.Fatalf("the warm pass issued %d GETs", n)
	}
	b, _ := rt2.Block("train")
	perRestore := uint64(b.Stats().RestoredBytes) / epochs
	if perRestore < 256<<10 {
		t.Fatalf("checkpoints hold %d bytes; too small for the guard to mean anything", perRestore)
	}
	var worst uint64
	for e := 2; e < epochs; e++ {
		got := allocated[e] - allocated[e-1]
		if got > perRestore/10 {
			t.Fatalf("remote restore %d allocated %d bytes to restore %d (%.0f%%); steady state must stay under 10%%",
				e, got, perRestore, 100*float64(got)/float64(perRestore))
		}
		worst = max(worst, got)
	}
	t.Logf("warm remote restores of %d bytes: the second allocated %d, the worst after it %d", perRestore, allocated[1]-allocated[0], worst)
}

// TestRemoteColdRestoreAllocation is TestRemoteRestoreSteadyStateAllocation
// with every restore missing the cache tier: behind a tier smaller than one
// extent, each load GETs its frame runs afresh, and a GET reads into an
// arena span that goes back once the run is decoded — so in steady state a
// cold remote restore allocates, like a local one, under a tenth of the bytes
// it GETs.
func TestRemoteColdRestoreAllocation(t *testing.T) {
	skipUnderRace(t)
	const epochs = 24
	p := sgdProgram(epochs, nil)
	rt, st, mat, tracker := newHarness(t, p, backmat.Fork)
	runProgram(t, p, rt, func(string) {})
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	tier, err := cachetier.New("", 1)
	if err != nil {
		t.Fatal(err)
	}
	twin, objs, _ := remoteTwinWith(t, st.Dir(), tier)

	// One P, as in the local guard: the arena is a sync.Pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	allocated := make([]uint64, epochs)
	fetched := make([]int64, epochs)
	replayModelOnly(t, twin, tracker, epochs, false, func(epoch int) {
		runtime.ReadMemStats(&ms)
		allocated[epoch], fetched[epoch] = ms.TotalAlloc, objs.bytes.Load()
	})
	if s := tier.Stats(); s.Hits != 0 || s.Admitted != 0 {
		t.Fatalf("the cache tier served or kept extents: %+v", s)
	}
	var worst uint64
	for e := 2; e < epochs; e++ {
		got, gets := allocated[e]-allocated[e-1], uint64(fetched[e]-fetched[e-1])
		if gets < 256<<10 {
			t.Fatalf("restore %d GETs %d bytes; too small for the guard to mean anything", e, gets)
		}
		if got > gets/10 {
			t.Fatalf("cold remote restore %d allocated %d bytes for %d bytes of GETs (%.0f%%); steady state must stay under 10%%",
				e, got, gets, 100*float64(got)/float64(gets))
		}
		worst = max(worst, got)
	}
	t.Logf("cold remote restores of %d GET bytes: the second allocated %d, the worst after it %d",
		fetched[epochs-1]-fetched[epochs-2], allocated[1]-allocated[0], worst)
}
