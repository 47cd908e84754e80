package bench

import (
	"bytes"
	"strings"
	"testing"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/cluster"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/workloads"
)

// smokeSession builds a session at smoke scale with single-trial timing so
// the unit tests stay fast; the shape assertions do not depend on timing
// precision.
func smokeSession(t *testing.T) *Session {
	t.Helper()
	old := Trials
	Trials = 1
	t.Cleanup(func() { Trials = old })
	return NewSession(t.TempDir(), workloads.Smoke, &bytes.Buffer{})
}

func TestRunCachesWorkloads(t *testing.T) {
	s := smokeSession(t)
	a, err := s.Run("ImgN")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run("ImgN")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Run did not return the cached run")
	}
	if a.VanillaNs <= 0 || a.Record == nil {
		t.Fatal("run missing measurements")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	s := smokeSession(t)
	if _, err := s.Run("Ghost"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestDeriveFillsIterationCosts(t *testing.T) {
	s := smokeSession(t)
	wr, err := s.Run("Jasp")
	if err != nil {
		t.Fatal(err)
	}
	if wr.Epochs() != wr.Spec.Epochs(workloads.Smoke) {
		t.Fatalf("epochs = %d", wr.Epochs())
	}
	costs := wr.IterationCosts()
	if len(costs.ComputNs) != wr.Epochs() {
		t.Fatalf("cost vector length %d", len(costs.ComputNs))
	}
	for i, c := range costs.ComputNs {
		if c <= 0 {
			t.Fatalf("epoch %d has no compute cost", i)
		}
	}
}

func TestTable3Output(t *testing.T) {
	var buf bytes.Buffer
	s := NewSession(t.TempDir(), workloads.Smoke, &buf)
	s.Table3()
	out := buf.String()
	for _, name := range workloads.Names() {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 3 output missing %s", name)
		}
	}
	if !strings.Contains(out, "200") || !strings.Contains(out, "Fine-Tune") {
		t.Fatal("Table 3 missing epoch counts or modes")
	}
}

func TestFig5Shape(t *testing.T) {
	s := smokeSession(t)
	rep, err := s.Fig5(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Baseline", "IPC-Queue", "IPC-Plasma", "Fork"} {
		if rep.CallerBlockedNs[name] <= 0 {
			t.Fatalf("missing strategies: %+v", rep.CallerBlockedNs)
		}
	}
	// The paper's ordering, as where each strategy's work lands rather than
	// as a race between four stopwatches: Baseline serializes and writes on
	// the caller and has no background; Queue serializes on the caller and
	// writes in the background; Fork and Plasma pay only the snapshot on the
	// caller (no separate serialization) and write in the background.
	if st := rep.Stats["Baseline"]; st.SerializeNs <= 0 || st.BackgroundNs != 0 {
		t.Fatalf("Baseline should serialize on the caller with no background work: %+v", st)
	}
	if st := rep.Stats["IPC-Queue"]; st.SerializeNs <= 0 || st.BackgroundNs <= 0 {
		t.Fatalf("Queue should serialize on the caller and write in the background: %+v", st)
	}
	for _, name := range []string{"Fork", "IPC-Plasma"} {
		if st := rep.Stats[name]; st.SerializeNs != 0 || st.BackgroundNs <= 0 {
			t.Fatalf("%s should only snapshot on the caller and write in the background: %+v", name, st)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	s := smokeSession(t)
	rep, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		// Disabled mode checkpoints every epoch.
		if r.DisabledCkpts == 0 {
			t.Fatalf("%s: disabled run materialized nothing", r.Name)
		}
		if r.Checkpoints > r.DisabledCkpts {
			t.Fatalf("%s: adaptive materialized more than disabled (%d > %d)",
				r.Name, r.Checkpoints, r.DisabledCkpts)
		}
	}
}

// syntheticCosts is a fixed full-scale-shaped run: 24 uneven epochs of about
// a tenth of a second, restores at a twentieth of that, a short setup. The
// figures' shape claims are asserted over it, where the scheduler simulation
// is deterministic; over costs measured at smoke scale (microsecond epochs
// on a shared host) they are not claims the code can keep.
func syntheticCosts() *cluster.IterationCosts {
	c := &cluster.IterationCosts{SetupNs: 20e6}
	for e := 0; e < 24; e++ {
		c.ComputNs = append(c.ComputNs, 100e6+7e6*int64(e%5))
		c.RestoreNs = append(c.RestoreNs, 5e6)
	}
	return c
}

func TestFig10FractionsBounded(t *testing.T) {
	const g = 4
	costs := syntheticCosts()
	strong := cluster.Simulate(costs, g, replay.Strong, true, nil)
	weak := cluster.Simulate(costs, g, replay.Weak, true, nil)
	strongFraction := float64(strong.MakespanNs) / float64(strong.SequentialNs)
	weakFraction := float64(weak.MakespanNs) / float64(weak.SequentialNs)
	if floor := 1.0 / g; weakFraction < floor {
		t.Fatalf("weak fraction %.3f below the ideal floor %.3f", weakFraction, floor)
	}
	if strongFraction < weakFraction {
		t.Fatalf("strong fraction %.3f below weak %.3f (strong does strictly more init work)", strongFraction, weakFraction)
	}
	if weakFraction > 0.5 {
		t.Fatalf("4-way parallel replay at %.3f of sequential shows no parallelism", weakFraction)
	}

	// Over measured costs: one well-formed row per workload.
	rep, err := smokeSession(t).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(workloads.Names()) || rep.Workers != g {
		t.Fatalf("report has %d rows at G=%d, want %d at G=%d", len(rep.Rows), rep.Workers, len(workloads.Names()), g)
	}
	for _, r := range rep.Rows {
		if !(r.StrongFraction > 0) || !(r.WeakFraction > 0) || !(r.FloorFraction > 0 && r.FloorFraction <= 1) {
			t.Fatalf("%s: malformed row %+v", r.Name, r)
		}
	}
}

func TestFig13NearIdealVirtualScaling(t *testing.T) {
	costs := syntheticCosts()
	n := len(costs.ComputNs)
	prev := 0.0
	for _, g := range []int{1, 4, 8, 12, 16} {
		speedup := cluster.Simulate(costs, g, replay.Weak, true, nil).SpeedupFactor
		if ideal := replay.MaxSpeedup(n, g); speedup > ideal*1.001 {
			t.Fatalf("G=%d speedup %.2f exceeds ideal %.2f", g, speedup, ideal)
		}
		if speedup < prev*0.999 {
			t.Fatalf("speedup not monotone: G=%d %.2f after %.2f", g, speedup, prev)
		}
		prev = speedup
	}
	// 24 epochs on 16 GPUs run in two waves: ideal is 12x.
	if prev < 8 {
		t.Fatalf("max speedup %.2f is far from the ideal 12x", prev)
	}

	// Over measured costs: a well-formed sweep with its real-time anchor.
	rep, err := smokeSession(t).Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.GPUs) != 5 || len(rep.Speedup) != 5 || len(rep.Ideal) != 5 || !(rep.RealWallSpeedup2 > 0) {
		t.Fatalf("malformed report %+v", rep)
	}
	for i, g := range rep.GPUs {
		if !(rep.Speedup[i] > 0) || rep.Ideal[i] < 1 {
			t.Fatalf("G=%d: malformed point: speedup %.2f ideal %.2f", g, rep.Speedup[i], rep.Ideal[i])
		}
	}
}

func TestFig14CostsComparable(t *testing.T) {
	costs := syntheticCosts()
	serial := cluster.Simulate(costs, 1, replay.Weak, true, nil)
	_, serialCost := cluster.ReplayCost(serial, cluster.P32xLarge())
	par := cluster.Simulate(costs, paperGPUPool, replay.Weak, true, nil)
	machines, parCost := cluster.ReplayCost(par, cluster.P38xLarge())
	if par.MakespanNs >= serial.MakespanNs {
		t.Fatalf("parallel replay (%d) not faster than serial (%d)", par.MakespanNs, serial.MakespanNs)
	}
	// Same price per GPU-hour: costs stay within a small factor despite the
	// big wall-clock gap (the paper measures ~1.3x; 24 epochs on 16 GPUs
	// leave a third of the pool idle in the second wave).
	if machines != 4 || parCost > serialCost*2 {
		t.Fatalf("parallel cost %.6f on %d machines far exceeds serial %.6f", parCost, machines, serialCost)
	}

	// Over measured costs: one well-formed row per workload.
	rep, err := smokeSession(t).Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(workloads.Names()) {
		t.Fatalf("report has %d rows, want %d", len(rep.Rows), len(workloads.Names()))
	}
	for _, r := range rep.Rows {
		if r.SerialNs <= 0 || r.ParallelNs <= 0 || !(r.SerialCost > 0) || !(r.ParallelCost > 0) ||
			r.Workers < 1 || r.Machines != (r.Workers+3)/4 {
			t.Fatalf("%s: malformed row %+v", r.Name, r)
		}
	}
}

func TestFig12OuterProbeIsPartialReplay(t *testing.T) {
	// The figure's two halves on the virtual clock: an outer probe leaves
	// every nested loop restoring, so its replay is partial — faster than
	// re-executing, before any parallelism — and an inner probe re-executes
	// everything, so only the pool speeds it up.
	costs := syntheticCosts()
	if outer := cluster.Simulate(costs, 1, replay.Weak, false, nil); outer.SpeedupFactor <= 1 {
		t.Fatalf("sequential outer-probe replay is not partial: speedup %.2f", outer.SpeedupFactor)
	}
	if inner := cluster.Simulate(costs, paperGPUPool, replay.Weak, true, nil); inner.SpeedupFactor < 1 {
		t.Fatalf("virtual parallel replay slower than sequential: %.2f", inner.SpeedupFactor)
	}

	// Over measured costs: one well-formed row per workload.
	rep, err := smokeSession(t).Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(workloads.Names()) {
		t.Fatalf("report has %d rows, want %d", len(rep.Rows), len(workloads.Names()))
	}
	for _, r := range rep.Rows {
		if r.OuterReplayNs <= 0 || r.InnerReplay2Ns <= 0 || r.InnerVirtReplayNs <= 0 ||
			!(r.InnerVirtSpeedup > 0) || !(r.OuterParSpeedup > 0) || r.InnerWorkers < 1 {
			t.Fatalf("%s: missing replay measurements %+v", r.Name, r)
		}
	}
}

func TestSerVsIOBackgroundBeatsOnThread(t *testing.T) {
	// The defining claim of §5.1: moving materialization off the training
	// thread takes the write out of what the thread waits for. Whether that
	// shows as a lower overhead percentage depends on a spare core and a
	// quiet host; where the write ran does not, so that is what is asserted.
	s := smokeSession(t)
	rep, err := s.SerVsIO([]string{"Jasp", "ImgN"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SerializeNs <= 0 || rep.WriteNs <= 0 || !(rep.Ratio > 0) || !(rep.ForkOverhead > 0) || !(rep.BaselineOverhead > 0) {
		t.Fatalf("malformed report %+v", rep)
	}
	wr, err := s.Run("Jasp")
	if err != nil {
		t.Fatal(err)
	}
	record := func(strategy backmat.Strategy) backmat.Stats {
		res, err := core.Record(t.TempDir(), wr.Factory, core.RecordOptions{Strategy: strategy, DisableAdaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.MatStats
	}
	// Baseline: the write sits inside the time the training thread is blocked.
	if st := record(backmat.Baseline); st.BackgroundNs != 0 || st.WriteNs <= 0 || st.CallerNs < st.WriteNs {
		t.Fatalf("Baseline should write on the training thread: %+v", st)
	}
	// Fork: it sits inside the background worker's time instead, and the
	// thread pays no serialization beyond its snapshot.
	if st := record(backmat.Fork); st.SerializeNs != 0 || st.WriteNs <= 0 || st.BackgroundNs < st.WriteNs {
		t.Fatalf("Fork should write in the background: %+v", st)
	}
}

func TestCFactorPositive(t *testing.T) {
	s := smokeSession(t)
	c, err := s.CFactor()
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Fatalf("c = %g", c)
	}
}
