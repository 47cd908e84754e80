package bench

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

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
	base := rep.CallerBlockedNs["Baseline"]
	queue := rep.CallerBlockedNs["IPC-Queue"]
	fork := rep.CallerBlockedNs["Fork"]
	plasma := rep.CallerBlockedNs["IPC-Plasma"]
	if base <= 0 || queue <= 0 || fork <= 0 || plasma <= 0 {
		t.Fatalf("missing strategies: %+v", rep.CallerBlockedNs)
	}
	// The paper's ordering: Baseline pays serialization and write on the
	// caller; Queue pays serialization; Fork and Plasma pay only snapshot.
	if base <= queue {
		t.Fatalf("Baseline (%d) should exceed Queue (%d)", base, queue)
	}
	if queue <= fork || queue <= plasma {
		t.Fatalf("Queue (%d) should exceed Fork (%d) and Plasma (%d)", queue, fork, plasma)
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

func TestFig10FractionsBounded(t *testing.T) {
	s := smokeSession(t)
	rep, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.WeakFraction < r.FloorFraction*0.99 {
			t.Fatalf("%s: weak fraction %.3f below the ideal floor %.3f",
				r.Name, r.WeakFraction, r.FloorFraction)
		}
		if r.StrongFraction < r.WeakFraction*0.99 {
			t.Fatalf("%s: strong fraction %.3f below weak %.3f (strong does strictly more init work)",
				r.Name, r.StrongFraction, r.WeakFraction)
		}
		if r.WeakFraction > 1.01 {
			t.Fatalf("%s: parallel replay slower than sequential: %.3f", r.Name, r.WeakFraction)
		}
	}
}

func TestFig13NearIdealVirtualScaling(t *testing.T) {
	s := smokeSession(t)
	rep, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, g := range rep.GPUs {
		if rep.Speedup[i] > rep.Ideal[i]*1.001 {
			t.Fatalf("G=%d speedup %.2f exceeds ideal %.2f", g, rep.Speedup[i], rep.Ideal[i])
		}
		// At smoke scale (6 epochs) setup dominates, so only monotonicity
		// and the ideal bound are asserted here; near-ideality at 200
		// epochs is demonstrated by florbench at full scale.
		if rep.Speedup[i] < prev*0.999 {
			t.Fatalf("speedup not monotone: G=%d %.2f after %.2f", g, rep.Speedup[i], prev)
		}
		prev = rep.Speedup[i]
	}
	if rep.Speedup[len(rep.Speedup)-1] < 1.5 {
		t.Fatalf("max speedup %.2f shows no parallelism", rep.Speedup[len(rep.Speedup)-1])
	}
}

func TestFig14CostsComparable(t *testing.T) {
	s := smokeSession(t)
	rep, err := s.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.ParallelNs >= r.SerialNs {
			t.Fatalf("%s: parallel replay (%d) not faster than serial (%d)", r.Name, r.ParallelNs, r.SerialNs)
		}
		// Same price per GPU-hour: costs stay within a small factor despite
		// the big wall-clock gap. At smoke scale per-worker setup dominates
		// the one-epoch segments (worst case ~8x: every GPU billed mostly
		// for setup); at full scale florbench measures ~1.3x.
		if r.ParallelCost > r.SerialCost*10 {
			t.Fatalf("%s: parallel cost %.4f far exceeds serial %.4f", r.Name, r.ParallelCost, r.SerialCost)
		}
	}
}

func TestFig12OuterProbeIsPartialReplay(t *testing.T) {
	s := smokeSession(t)
	rep, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.OuterReplayNs <= 0 || r.InnerVirtReplayNs <= 0 {
			t.Fatalf("%s: missing replay measurements %+v", r.Name, r)
		}
		if r.InnerVirtSpeedup < 1 {
			t.Fatalf("%s: virtual parallel replay slower than sequential", r.Name)
		}
	}
}

func TestSerVsIOBackgroundBeatsOnThread(t *testing.T) {
	// The defining claim of §5.1: moving materialization off the training
	// thread reduces the overhead the thread observes. The mechanism needs a
	// core for the background thread to run on; on a single-CPU host it only
	// adds context switches, so the two overheads tie within scheduler noise
	// and the comparison is a coin flip. Exercise the path there, but assert
	// the claim only where it can hold.
	if runtime.NumCPU() < 2 {
		if _, err := smokeSession(t).SerVsIO([]string{"Jasp", "ImgN"}); err != nil {
			t.Fatal(err)
		}
		t.Skip("single-CPU host: background materialization cannot overlap compute")
	}
	// On multi-core hosts the overheads are still percent-level numbers, so
	// the claim is checked over a few attempts rather than one sample.
	var last *SerVsIOReport
	for attempt := 0; attempt < 3; attempt++ {
		s := smokeSession(t)
		rep, err := s.SerVsIO([]string{"Jasp", "ImgN"})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ForkOverhead < rep.BaselineOverhead {
			return
		}
		last = rep
	}
	t.Fatalf("background overhead %.4f not below on-thread %.4f in any attempt",
		last.ForkOverhead, last.BaselineOverhead)
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
