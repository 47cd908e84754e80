package replay_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
)

// TestGeneratorAnyGEqualsSequential is the generator-level property of
// docs/ARCHITECTURE.md's "Replay" paragraph: for any worker count G ≥ 1, the
// merged replay log is identical to the G=1 log, probed or unprobed, strong
// or weak init.
func TestGeneratorAnyGEqualsSequential(t *testing.T) {
	factory := trainFactory(12, 2)
	rec := record(t, factory)
	variants := map[string]func() *script.Program{
		"unprobed": factory,
		"outer":    addOuterProbe(factory),
		"inner":    addInnerProbe(factory),
	}
	for vname, vf := range variants {
		seq, err := replay.Replay(rec.Recording, vf, replay.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s seq: %v", vname, err)
		}
		base := strings.Join(seq.Logs, "\n")
		for _, g := range []int{2, 5, 12} {
			for _, init := range []replay.InitMode{replay.Strong, replay.Weak} {
				par, err := replay.Replay(rec.Recording, vf, replay.Options{Workers: g, Init: init})
				if err != nil {
					t.Fatalf("%s G=%d %v: %v", vname, g, init, err)
				}
				if strings.Join(par.Logs, "\n") != base {
					t.Fatalf("%s G=%d init=%v: merged logs differ from sequential", vname, g, init)
				}
				if len(par.Anomalies) != 0 {
					t.Fatalf("%s G=%d init=%v anomalies: %v", vname, g, init, par.Anomalies)
				}
			}
		}
	}
}

// TestWorkerLeasesAccountable verifies the leases the workers executed (the
// trace's work spans) are a disjoint ordered cover of the epoch range and
// that each worker's log volume corresponds to the epochs it ran.
func TestWorkerLeasesAccountable(t *testing.T) {
	factory := trainFactory(9, 2)
	rec := record(t, factory)
	tr := obs.NewTrace()
	res, err := replay.Replay(rec.Recording, addOuterProbe(factory), replay.Options{Workers: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	var leases []obs.Span
	epochs := map[int]int{} // per worker
	tailWorker := -1
	for _, sp := range tr.Spans() {
		if sp.Name == "work" {
			leases = append(leases, sp)
			epochs[sp.Worker] += int(sp.Attrs["end"] - sp.Attrs["start"])
			if sp.Attrs["end"] == 9 {
				tailWorker = sp.Worker
			}
		}
	}
	sort.Slice(leases, func(i, j int) bool { return leases[i].Attrs["start"] < leases[j].Attrs["start"] })
	next := int64(0)
	for _, sp := range leases {
		if sp.Attrs["start"] != next {
			t.Fatalf("lease %v starts at %d, want %d", sp.Attrs, sp.Attrs["start"], next)
		}
		next = sp.Attrs["end"]
	}
	if next != 9 {
		t.Fatalf("leases cover up to %d, want 9", next)
	}
	for _, w := range res.Workers {
		// Two log lines per epoch (probe + loss); the worker whose lease
		// ends the loop adds the tail line.
		want := 2 * epochs[w.PID]
		if w.PID == tailWorker {
			want++
		}
		if len(w.Logs) != want {
			t.Fatalf("worker %d: %d log lines for %d epochs (want %d):\n%s",
				w.PID, len(w.Logs), epochs[w.PID], want, strings.Join(w.Logs, "\n"))
		}
	}
}

// TestReplayEmptyMainLoop exercises the degenerate zero-iteration program.
func TestReplayEmptyMainLoop(t *testing.T) {
	factory := trainFactory(1, 1)
	rec := record(t, factory)
	res, err := replay.Replay(rec.Recording, factory, replay.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workers) != 1 {
		t.Fatalf("one-epoch program used %d workers", len(res.Workers))
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", res.Anomalies)
	}
}

// TestRestoreStatsReported checks the plumbing the bench harness relies on:
// unprobed replays report restore counts and times.
func TestRestoreStatsReported(t *testing.T) {
	factory := trainFactory(6, 2)
	rec := record(t, factory)
	res, err := replay.Replay(rec.Recording, factory, replay.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Workers[0]
	if w.Restored != 6 || w.RestoreNs <= 0 {
		t.Fatalf("restore stats: %+v", w)
	}
	if w.SetupNs <= 0 {
		t.Fatalf("setup time missing: %+v", w)
	}
	_ = fmt.Sprintf("%+v", w)
}
