package sched

import (
	"bytes"
	"encoding/json"
	"testing"

	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/xrand"
)

// seededCosts builds a skewed cost vector from a seeded RNG — "same seed"
// means two independently built vectors are identical, so two simulations
// over them must be too.
func seededCosts(n int, seed uint64) *Costs {
	rng := xrand.New(seed)
	c := &Costs{SetupNs: 2_000_000}
	for i := 0; i < n; i++ {
		c.WorkNs = append(c.WorkNs, 1_000_000+int64(rng.Float64()*9_000_000))
		c.CatchupNs = append(c.CatchupNs, 500_000+int64(rng.Float64()*500_000))
	}
	return c
}

// simNDJSON runs one traced virtual-time simulation and returns the
// canonical NDJSON span log.
func simNDJSON(t *testing.T, costs *Costs, g int) []byte {
	t.Helper()
	tr := obs.NewVirtualTrace()
	vr := Simulate(costs, g, Weak, allAnchored(costs.N()), tr)
	if vr.MakespanNs <= 0 {
		t.Fatalf("simulation produced no makespan: %+v", vr)
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSimTraceDeterministic pins the simulator's determinism guarantee: two
// same-seed virtual-time simulation runs emit byte-identical span logs.
func TestSimTraceDeterministic(t *testing.T) {
	a := simNDJSON(t, seededCosts(64, 7), 5)
	b := simNDJSON(t, seededCosts(64, 7), 5)
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed traces differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if len(bytes.TrimSpace(a)) == 0 {
		t.Error("trace empty")
	}
	// Different seeds must actually change the trace, or the equality above
	// proves nothing.
	if c := simNDJSON(t, seededCosts(64, 8), 5); bytes.Equal(a, c) {
		t.Error("traces identical across different seeds")
	}
}

// TestSimTraceAccounting cross-checks the trace against the simulation's own
// numbers: per-worker span sums equal WorkerNs, work spans
// cover every iteration exactly once, and stolen work spans match Steals.
func TestSimTraceAccounting(t *testing.T) {
	costs := seededCosts(64, 7)
	tr := obs.NewVirtualTrace()
	vr := Simulate(costs, 5, Weak, allAnchored(64), tr)

	covered := make([]int, 64)
	stolenWork := 0
	finish := map[int]int64{}
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "work":
			for i := sp.Attrs["start"]; i < sp.Attrs["end"]; i++ {
				covered[i]++
			}
			if sp.Attrs["stolen"] == 1 {
				stolenWork++
			}
			fallthrough
		case "setup", "init":
			if end := sp.StartNs + sp.DurNs; end > finish[sp.Worker] {
				finish[sp.Worker] = end
			}
		}
	}
	for i, n := range covered {
		if n != 1 {
			t.Errorf("iteration %d executed %d times in trace", i, n)
		}
	}
	if stolenWork != vr.Steals {
		t.Errorf("trace has %d stolen work spans, simulation reports %d steals", stolenWork, vr.Steals)
	}
	for w, ns := range vr.WorkerNs {
		if finish[w] != ns {
			t.Errorf("worker %d: trace finishes at %d, WorkerNs = %d", w, finish[w], ns)
		}
	}
}

// TestSimTraceSpansWellFormed checks every span line parses and uses virtual
// time (no wall-clock leakage: all starts within the makespan).
func TestSimTraceSpansWellFormed(t *testing.T) {
	costs := seededCosts(32, 3)
	tr := obs.NewVirtualTrace()
	vr := Simulate(costs, 4, Weak, allAnchored(32), tr)
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var sp obs.Span
		if err := json.Unmarshal(line, &sp); err != nil {
			t.Fatalf("bad span line %s: %v", line, err)
		}
		if sp.StartNs < 0 || sp.StartNs > vr.MakespanNs {
			t.Errorf("span %s starts at %d outside virtual makespan %d", sp.Name, sp.StartNs, vr.MakespanNs)
		}
	}
}
