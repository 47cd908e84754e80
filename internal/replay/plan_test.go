package replay_test

import (
	"reflect"
	"sync"
	"testing"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/sched"
	"flor.dev/flor/internal/script"
)

// TestPlanIsWhatReplayPartitions pins the one replay cost model: on a dense
// and a sparse recording, for an unprobed, an outer-probed and an
// inner-probed program, Plan returns exactly the costs and anchors a Replay
// of the same program partitions with — when Replay builds the recording's
// plan first, when Plan does, and when both run at once.
func TestPlanIsWhatReplayPartitions(t *testing.T) {
	factory := skewedFactory(24, 2)
	dense, sparse := t.TempDir(), t.TempDir()
	if _, err := core.Record(dense, factory, core.RecordOptions{DisableAdaptive: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Record(sparse, factory, core.RecordOptions{}); err != nil {
		t.Fatal(err)
	}
	load := func(t *testing.T, dir string) *replay.Recording {
		t.Helper()
		rec, err := core.LoadRecordingShared(dir)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	plan := func(t *testing.T, rec *replay.Recording, f func() *script.Program) (*sched.Costs, []int) {
		t.Helper()
		costs, anchors, err := replay.Plan(rec, f)
		if err != nil {
			t.Fatal(err)
		}
		return costs, anchors
	}
	run := func(t *testing.T, rec *replay.Recording, f func() *script.Program) {
		t.Helper()
		res, err := replay.Replay(rec, f, replay.Options{Workers: 2, Init: replay.Weak})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Anomalies) != 0 {
			t.Fatalf("deferred check found anomalies: %v", res.Anomalies[0])
		}
	}
	for _, recording := range []struct{ name, dir string }{{"dense", dense}, {"sparse", sparse}} {
		for _, probe := range []struct {
			name  string
			f     func() *script.Program
			inner bool
		}{
			{"unprobed", factory, false},
			{"outer", addOuterProbe(factory), false},
			{"inner", addInnerProbe(factory), true},
		} {
			t.Run(recording.name+"/"+probe.name, func(t *testing.T) {
				// Replay first: the plan it leaves in the memo is the one it
				// partitioned with, and Plan hands out that very plan.
				rec := load(t, recording.dir)
				run(t, rec, probe.f)
				used, usedAnchors := replay.Planned(rec, probe.inner)
				if used == nil || usedAnchors == nil {
					t.Fatal("replay left no plan")
				}
				costs, anchors := plan(t, rec, probe.f)
				if costs != used || !reflect.DeepEqual(anchors, usedAnchors) {
					t.Fatal("Plan returned a different plan from the one Replay partitioned with")
				}
				if probe.inner {
					if !reflect.DeepEqual(costs.WorkNs, rec.Timings.IterNs) {
						t.Fatalf("inner probe: work %v is not the recorded iteration times %v", costs.WorkNs, rec.Timings.IterNs)
					}
				} else if !reflect.DeepEqual(costs.WorkNs, costs.CatchupNs) {
					t.Fatalf("%s: work %v is not priced as catch-up %v", probe.name, costs.WorkNs, costs.CatchupNs)
				}
				if dense := len(anchors) == costs.N(); dense != (recording.name == "dense") {
					t.Fatalf("%s recording anchors %d of %d iterations", recording.name, len(anchors), costs.N())
				}

				// Plan first: Replay partitions with the plan Plan built, and
				// it equals the one built the other way round.
				rec = load(t, recording.dir)
				first, firstAnchors := plan(t, rec, probe.f)
				run(t, rec, probe.f)
				if again, _ := replay.Planned(rec, probe.inner); again != first {
					t.Fatal("Replay rebuilt the plan Plan had built")
				}
				if first.SetupNs != costs.SetupNs || !reflect.DeepEqual(first.WorkNs, costs.WorkNs) ||
					!reflect.DeepEqual(first.CatchupNs, costs.CatchupNs) || !reflect.DeepEqual(firstAnchors, anchors) {
					t.Fatal("the plans of two loads of one recording differ")
				}

				// Both at once: one plan, whichever builds it.
				rec = load(t, recording.dir)
				var wg sync.WaitGroup
				var concurrent *sched.Costs
				wg.Add(1)
				go func() {
					defer wg.Done()
					concurrent, _, _ = replay.Plan(rec, probe.f)
				}()
				run(t, rec, probe.f)
				wg.Wait()
				if shared, _ := replay.Planned(rec, probe.inner); concurrent == nil || concurrent != shared {
					t.Fatal("concurrent Plan and Replay built two plans")
				}
			})
		}
	}
}
