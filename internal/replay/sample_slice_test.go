package replay_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/xrand"
)

// thin returns rec with only the checkpoints of the epochs keep selects,
// copied into a fresh store: a deterministic sparse recording (adaptive
// checkpointing's own sparsity depends on measured time). trainFactory's one
// instrumented loop runs once per epoch, so a key's execution is its epoch.
func thin(t *testing.T, rec *replay.Recording, keep func(epoch int) bool) *replay.Recording {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rec.Store.Metas() {
		if !keep(m.Key.Exec) {
			continue
		}
		secs, err := readAll(rec.Store, m.Key)
		if err != nil {
			t.Fatalf("read %v: %v", m.Key, err)
		}
		if _, err := st.PutSections(m.Key, secs, 0, m.MaterNs, m.ComputNs); err != nil {
			t.Fatal(err)
		}
	}
	return &replay.Recording{Store: st, Shape: rec.Shape, RecordLog: rec.RecordLog, Timings: rec.Timings}
}

// TestSampleIsReplaySlice is the contract of the one query path, as a
// property over seeded random iteration subsets (unsorted, duplicates
// included): a sample's log is exactly the sampled iterations' lines of a
// full replay of the same probed program, tail excluded; the streamed chunks
// arrive one per iteration in ascending order and concatenate to the buffered
// result; and the restore count is what one worker moving forward needs —
// no re-restore between consecutive iterations, a roll forward (not a
// restore backwards) when the nearest anchor is behind the worker, and
// re-execution from iteration 0 when no anchor precedes the target.
func TestSampleIsReplaySlice(t *testing.T) {
	const epochs, steps = 12, 2
	factory := trainFactory(epochs, steps)
	dense := record(t, factory).Recording
	for _, prog := range []struct {
		name string
		rec  *replay.Recording
		has  func(epoch int) bool // the epoch's checkpoint exists
	}{
		{"dense", dense, func(int) bool { return true }},
		// Checkpoints at epochs 3, 7, 11 only: nothing anchors a target below
		// 4 (strong fallback), and between anchors the worker's own position
		// is often nearer than the anchor (forward roll).
		{"sparse", thin(t, dense, func(e int) bool { return e%4 == 3 }), func(e int) bool { return e%4 == 3 }},
	} {
		for _, variant := range []struct {
			name         string
			factory      func() *script.Program
			perIter      int  // log lines per main-loop iteration
			probedInside bool // the instrumented loop re-executes in work mode
		}{
			{"unprobed", factory, 1, false},
			{"outer", addOuterProbe(factory), 2, false},
			{"inner", addInnerProbe(factory), steps + 1, true},
		} {
			full, err := replay.Replay(prog.rec, variant.factory, replay.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Logs) != epochs*variant.perIter+1 {
				t.Fatalf("%s/%s: full replay logged %d lines, want %d per iteration plus the tail", prog.name, variant.name, len(full.Logs), variant.perIter)
			}
			slice := func(it int) []string { return full.Logs[it*variant.perIter : (it+1)*variant.perIter] }

			rng := xrand.New(21)
			for trial := 0; trial < 25; trial++ {
				asked := make([]int, 1+rng.Intn(8))
				for i := range asked {
					asked[i] = rng.Intn(epochs)
				}
				sample := slices.Compact(slices.Sorted(slices.Values(asked)))
				var want []string
				for _, it := range sample {
					want = append(want, slice(it)...)
				}
				// What a single forward-moving worker restores: per jump, the
				// checkpointed epochs from the nearest anchor — or from where
				// it already sits, if that is nearer — up to the target; per
				// sampled iteration, its own checkpoint unless the probe makes
				// the loop re-execute.
				restores, pos := 0, 0
				for _, it := range sample {
					if it != pos {
						from := 0
						for e := it - 1; e > 0; e-- {
							if prog.has(e) {
								from = e
								break
							}
						}
						for e := max(from, pos); e < it; e++ {
							if prog.has(e) {
								restores++
							}
						}
					}
					if !variant.probedInside && prog.has(it) {
						restores++
					}
					pos = it + 1
				}
				id := fmt.Sprintf("%s/%s sample %v", prog.name, variant.name, asked)

				buffered, err := replay.ReplaySample(prog.rec, variant.factory, asked)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if !reflect.DeepEqual(buffered.Iterations, sample) {
					t.Fatalf("%s: iterations = %v, want %v", id, buffered.Iterations, sample)
				}
				if !slices.Equal(buffered.Logs, want) {
					t.Fatalf("%s: logs are not the full replay's slices:\n got: %q\nwant: %q", id, buffered.Logs, want)
				}
				if buffered.Restored != restores {
					t.Fatalf("%s: restored %d checkpoints, a forward-moving worker needs %d", id, buffered.Restored, restores)
				}

				var order []int
				var chunks []string
				streamed, err := replay.ReplaySampleStream(prog.rec, variant.factory, asked, replay.SampleOptions{},
					func(it int, logs []string) error {
						if !slices.Equal(logs, slice(it)) {
							t.Errorf("%s: chunk %d = %q, want %q", id, it, logs, slice(it))
						}
						order = append(order, it)
						chunks = append(chunks, logs...)
						return nil
					})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if !slices.Equal(order, sample) {
					t.Fatalf("%s: chunks arrived for %v, want %v", id, order, sample)
				}
				if !slices.Equal(chunks, buffered.Logs) || !slices.Equal(streamed.Logs, buffered.Logs) {
					t.Fatalf("%s: streamed chunks %q / result %q differ from the buffered %q", id, chunks, streamed.Logs, buffered.Logs)
				}
			}
		}
	}
}
