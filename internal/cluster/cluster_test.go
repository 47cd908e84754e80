package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"flor.dev/flor/internal/replay"
)

// uniformCosts builds n iterations of fixed compute and restore cost.
func uniformCosts(n int, computNs, restoreNs, setupNs int64) *IterationCosts {
	c := &IterationCosts{SetupNs: setupNs}
	for i := 0; i < n; i++ {
		c.ComputNs = append(c.ComputNs, computNs)
		c.RestoreNs = append(c.RestoreNs, restoreNs)
	}
	return c
}

func TestMachineCost(t *testing.T) {
	cm := CostModel{}
	hourNs := int64(3_600_000_000_000)
	if got := cm.MachineCost(P32xLarge(), hourNs); math.Abs(got-3.06) > 1e-9 {
		t.Fatalf("1 hour of P3.2xLarge = %g, want 3.06", got)
	}
	if got := cm.MachineCost(P38xLarge(), hourNs/2); math.Abs(got-6.12) > 1e-9 {
		t.Fatalf("30 min of P3.8xLarge = %g, want 6.12", got)
	}
}

func TestStorageCost(t *testing.T) {
	cm := CostModel{}
	// Table 4: 39 GB (RsNt) costs about $0.90/month.
	got := cm.StorageCostPerMonth(39 << 30)
	if math.Abs(got-0.897) > 0.001 {
		t.Fatalf("39GB/month = %g, want ~0.897", got)
	}
	// 130 GB for a month ≈ $3, "the same cost as running a single-GPU
	// instance for an hour" (§6.2).
	monthly := cm.StorageCostPerMonth(130 << 30)
	gpuHour := cm.MachineCost(P32xLarge(), 3_600_000_000_000)
	if monthly > gpuHour*1.05 || monthly < gpuHour*0.9 {
		t.Fatalf("130GB-month = %g vs GPU-hour = %g; paper says roughly equal", monthly, gpuHour)
	}
}

func TestSimulateSequentialBaseline(t *testing.T) {
	costs := uniformCosts(10, 1000, 10, 500)
	vr := Simulate(costs, 1, replay.Strong, true, nil)
	if vr.MakespanNs != 500+10*1000 {
		t.Fatalf("G=1 makespan = %d", vr.MakespanNs)
	}
	if vr.SpeedupFactor != 1 {
		t.Fatalf("G=1 speedup = %g", vr.SpeedupFactor)
	}
}

func TestSimulateNearIdealScaling(t *testing.T) {
	// Restores and setup are cheap relative to compute: parallel replay of a
	// probed inner loop should scale near-ideally (Fig 13).
	costs := uniformCosts(200, 1_000_000, 1000, 10_000)
	for _, g := range []int{4, 8, 16} {
		vr := Simulate(costs, g, replay.Weak, true, nil)
		ideal := replay.MaxSpeedup(200, g)
		if vr.SpeedupFactor < ideal*0.95 {
			t.Fatalf("G=%d speedup %.2f below 95%% of ideal %.2f", g, vr.SpeedupFactor, ideal)
		}
		if vr.SpeedupFactor > ideal*1.001 {
			t.Fatalf("G=%d speedup %.2f exceeds ideal %.2f", g, vr.SpeedupFactor, ideal)
		}
	}
}

func TestSimulateStrongInitCostsMoreThanWeak(t *testing.T) {
	costs := uniformCosts(100, 1_000_000, 10_000, 0)
	strong := Simulate(costs, 4, replay.Strong, true, nil)
	weak := Simulate(costs, 4, replay.Weak, true, nil)
	if strong.MakespanNs <= weak.MakespanNs {
		t.Fatalf("strong makespan %d should exceed weak %d (more init restores)",
			strong.MakespanNs, weak.MakespanNs)
	}
	// But with restores ≪ compute the difference is negligible (paper:
	// "the difference between weak and strong initialization is negligible").
	if float64(strong.MakespanNs) > float64(weak.MakespanNs)*1.05 {
		t.Fatalf("strong %d vs weak %d: more than 5%% apart", strong.MakespanNs, weak.MakespanNs)
	}
}

func TestSimulateUnprobedReplayIsFast(t *testing.T) {
	// Outer-loop probe: every iteration restores instead of computing; the
	// replay should be orders of magnitude faster than sequential.
	costs := uniformCosts(100, 10_000_000, 1000, 0)
	vr := Simulate(costs, 1, replay.Strong, false, nil)
	if vr.SpeedupFactor < 1000 {
		t.Fatalf("partial replay speedup = %.1f, want >= 1000x", vr.SpeedupFactor)
	}
}

func TestSimulateRestoreFallbackToMean(t *testing.T) {
	costs := &IterationCosts{
		ComputNs:  []int64{100, 100, 100, 100},
		RestoreNs: []int64{10, 0, 30, 0}, // gaps
	}
	vr := Simulate(costs, 1, replay.Strong, false, nil)
	// mean restore = 20; iterations restore at 10, 20, 30, 20.
	if vr.MakespanNs != 80 {
		t.Fatalf("makespan = %d, want 80", vr.MakespanNs)
	}
}

func TestReplayCostMachineCount(t *testing.T) {
	costs := uniformCosts(16, 1_000_000, 100, 0)
	vr := Simulate(costs, 16, replay.Weak, true, nil)
	machines, dollars := ReplayCost(vr, P38xLarge())
	if machines != 4 {
		t.Fatalf("16 workers on 4-GPU machines = %d machines, want 4", machines)
	}
	if dollars <= 0 {
		t.Fatalf("dollars = %g", dollars)
	}
	m1, _ := ReplayCost(Simulate(costs, 5, replay.Weak, true, nil), P38xLarge())
	if m1 != 2 {
		t.Fatalf("5 workers = %d machines, want 2", m1)
	}
}

func TestParallelCostNearSerialCost(t *testing.T) {
	// Fig 14's claim: parallel replay finishes in a fraction of the time but
	// costs about the same, because parallelism is near-ideal.
	costs := uniformCosts(64, 10_000_000, 1000, 0)
	serial := Simulate(costs, 1, replay.Weak, true, nil)
	_, serialCost := ReplayCost(serial, P32xLarge())
	par := Simulate(costs, 16, replay.Weak, true, nil)
	_, parCost := ReplayCost(par, P38xLarge())
	// 16 workers on 4×P3.8xLarge: price/GPU-hour identical (3.06), so the
	// costs should be within ~20% of each other (init duplication only).
	if parCost > serialCost*1.2 || parCost < serialCost*0.8 {
		t.Fatalf("parallel cost %g vs serial %g: should be comparable", parCost, serialCost)
	}
	if par.MakespanNs >= serial.MakespanNs/10 {
		t.Fatalf("parallel makespan %d not much faster than serial %d", par.MakespanNs, serial.MakespanNs)
	}
}

func TestFormatDollars(t *testing.T) {
	if got := FormatDollars(0.897); got != "$ 0.90" {
		t.Fatalf("FormatDollars = %q", got)
	}
	if got := FormatDollars(0.001); got != "$ 0.001" {
		t.Fatalf("FormatDollars = %q", got)
	}
}

func TestQuickSimulateWorkerCountAndMakespan(t *testing.T) {
	f := func(nRaw, gRaw uint8) bool {
		n := int(nRaw%100) + 1
		g := int(gRaw%20) + 1
		costs := uniformCosts(n, 1000, 10, 5)
		vr := Simulate(costs, g, replay.Weak, true, nil)
		if len(vr.WorkerNs) == 0 {
			return false
		}
		// Makespan is the max over workers; speedup cannot exceed ideal.
		var maxW int64
		for _, w := range vr.WorkerNs {
			if w > maxW {
				maxW = w
			}
		}
		return maxW == vr.MakespanNs && vr.SpeedupFactor <= float64(g)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// skewedCosts builds a head-heavy cost vector: the first `heavy` iterations
// cost `factor` times the rest.
func skewedCosts(n, heavy int, factor int64) *IterationCosts {
	c := &IterationCosts{}
	for i := 0; i < n; i++ {
		comput := int64(1_000_000)
		if i < heavy {
			comput *= factor
		}
		c.ComputNs = append(c.ComputNs, comput)
		c.RestoreNs = append(c.RestoreNs, 10_000)
	}
	return c
}

// uniformSplitMakespan is the reference Simulate is held against: the
// makespan of the paper's cost-blind ⌈n/G⌉ split with one statically assigned
// worker per segment — what this package computed before the scheduler
// learned to balance and steal.
func uniformSplitMakespan(costs *IterationCosts, g int, init replay.InitMode) int64 {
	sc := costs.schedCosts(true)
	n := sc.N()
	if g > n {
		g = n
	}
	var segs [][2]int
	for i, start := 0, 0; i < g; i++ {
		size := n / g
		if i < n%g {
			size++
		}
		segs = append(segs, [2]int{start, start + size})
		start += size
	}
	return sc.Makespan(segs, init, nil)
}

func TestSimulateBeatsUniformSplitOnSkew(t *testing.T) {
	costs := skewedCosts(128, 16, 50)
	for _, g := range []int{8, 16} {
		ref := uniformSplitMakespan(costs, g, replay.Weak)
		vr := Simulate(costs, g, replay.Weak, true, nil)
		if float64(ref) < 1.5*float64(vr.MakespanNs) {
			t.Fatalf("G=%d: makespan %d not 1.5x better than the uniform split's %d",
				g, vr.MakespanNs, ref)
		}
	}
}

// TestSimulateUniformCostsHeld pins the Figure 10/13/14 numbers where the
// uniform split was already optimal: on uniform costs with G dividing n the
// makespan is exactly setup + one restore of catch-up + n/G iterations, and
// when G does not divide n it is the uniform split's, under either
// initialization (the partitioner hands out the same sizes, larger first,
// and a one-iteration imbalance leaves nothing worth stealing).
func TestSimulateUniformCostsHeld(t *testing.T) {
	const computNs, restoreNs, setupNs = 1_000_000, 1000, 10_000
	costs := uniformCosts(256, computNs, restoreNs, setupNs)
	for _, g := range []int{1, 2, 4, 8, 16} {
		want := int64(setupNs + 256/g*computNs)
		if g > 1 {
			want += restoreNs
		}
		vr := Simulate(costs, g, replay.Weak, true, nil)
		if vr.MakespanNs != want || vr.Steals != 0 {
			t.Errorf("n=256 G=%d: makespan %d with %d steals, want %d with none", g, vr.MakespanNs, vr.Steals, want)
		}
		if ref := uniformSplitMakespan(costs, g, replay.Weak); ref != want {
			t.Errorf("n=256 G=%d: reference %d disagrees with the closed form %d", g, ref, want)
		}
	}
	costs = uniformCosts(200, computNs, restoreNs, setupNs)
	for _, g := range []int{1, 2, 4, 8, 16} {
		for _, init := range []replay.InitMode{replay.Weak, replay.Strong} {
			vr := Simulate(costs, g, init, true, nil)
			if ref := uniformSplitMakespan(costs, g, init); vr.MakespanNs != ref {
				t.Errorf("n=200 G=%d %v: makespan %d, the uniform split's is %d", g, init, vr.MakespanNs, ref)
			}
		}
	}
}

func TestSimulateMakespanIsMaxWorker(t *testing.T) {
	costs := skewedCosts(64, 8, 10)
	vr := Simulate(costs, 4, replay.Strong, true, nil)
	var want int64
	for _, w := range vr.WorkerNs {
		if w > want {
			want = w
		}
	}
	if vr.MakespanNs != want {
		t.Fatalf("makespan %d != max worker %d", vr.MakespanNs, want)
	}
	if len(vr.WorkerNs) != 4 {
		t.Fatalf("worker count %d, want 4", len(vr.WorkerNs))
	}
}
