package bench

import (
	"math"
	"testing"

	"flor.dev/flor/internal/sched"
)

func TestMachineCost(t *testing.T) {
	hourNs := int64(3_600_000_000_000)
	if got := p32xLarge.cost(hourNs); math.Abs(got-3.06) > 1e-9 {
		t.Fatalf("1 hour of P3.2xLarge = %g, want 3.06", got)
	}
	if got := p38xLarge.cost(hourNs / 2); math.Abs(got-6.12) > 1e-9 {
		t.Fatalf("30 min of P3.8xLarge = %g, want 6.12", got)
	}
}

func TestStorageCost(t *testing.T) {
	// Table 4: 39 GB (RsNt) costs about $0.90/month.
	got := storageCostPerMonth(39 << 30)
	if math.Abs(got-0.897) > 0.001 {
		t.Fatalf("39GB/month = %g, want ~0.897", got)
	}
	// 130 GB for a month ≈ $3, "the same cost as running a single-GPU
	// instance for an hour" (§6.2).
	monthly := storageCostPerMonth(130 << 30)
	gpuHour := p32xLarge.cost(3_600_000_000_000)
	if monthly > gpuHour*1.05 || monthly < gpuHour*0.9 {
		t.Fatalf("130GB-month = %g vs GPU-hour = %g; paper says roughly equal", monthly, gpuHour)
	}
}

func TestFormatDollars(t *testing.T) {
	if got := formatDollars(0.897); got != "$ 0.90" {
		t.Fatalf("formatDollars = %q", got)
	}
	if got := formatDollars(0.001); got != "$ 0.001" {
		t.Fatalf("formatDollars = %q", got)
	}
}

// uniformPlan is an inner-probe plan of n iterations of computNs work and
// restoreNs catch-up, every iteration anchored.
func uniformPlan(n int, computNs, restoreNs int64) (*sched.Costs, []int) {
	c := &sched.Costs{}
	var anchors []int
	for i := 0; i < n; i++ {
		c.WorkNs = append(c.WorkNs, computNs)
		c.CatchupNs = append(c.CatchupNs, restoreNs)
		anchors = append(anchors, i)
	}
	return c, anchors
}

func TestReplayCostMachineCount(t *testing.T) {
	costs, anchors := uniformPlan(16, 1_000_000, 100)
	sim := sched.Simulate(costs, 16, sched.Weak, anchors, nil)
	machines, dollars := replayCost(16, sim.MakespanNs, p38xLarge)
	if machines != 4 {
		t.Fatalf("16 workers on 4-GPU machines = %d machines, want 4", machines)
	}
	if dollars <= 0 {
		t.Fatalf("dollars = %g", dollars)
	}
	if m, _ := replayCost(5, sched.Simulate(costs, 5, sched.Weak, anchors, nil).MakespanNs, p38xLarge); m != 2 {
		t.Fatalf("5 workers = %d machines, want 2", m)
	}
}

func TestParallelCostNearSerialCost(t *testing.T) {
	// Fig 14's claim: parallel replay finishes in a fraction of the time but
	// costs about the same, because parallelism is near-ideal.
	costs, anchors := uniformPlan(64, 10_000_000, 1000)
	serial := sched.Simulate(costs, 1, sched.Weak, anchors, nil)
	_, serialCost := replayCost(1, serial.MakespanNs, p32xLarge)
	par := sched.Simulate(costs, 16, sched.Weak, anchors, nil)
	_, parCost := replayCost(16, par.MakespanNs, p38xLarge)
	// 16 workers on 4×P3.8xLarge: price/GPU-hour identical (3.06), so the
	// costs should be within ~20% of each other (init duplication only).
	if parCost > serialCost*1.2 || parCost < serialCost*0.8 {
		t.Fatalf("parallel cost %g vs serial %g: should be comparable", parCost, serialCost)
	}
	if par.MakespanNs >= serial.MakespanNs/10 {
		t.Fatalf("parallel makespan %d not much faster than serial %d", par.MakespanNs, serial.MakespanNs)
	}
}
