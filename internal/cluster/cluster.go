// Package cluster models the paper's evaluation testbed: EC2 machines with
// multiple GPUs, wall-clock makespans for coordination-free parallel work,
// and dollar costs (paper §6, Figures 10, 13, 14; Table 4).
//
// The reproduction host has two cores, so scale-out beyond two workers
// cannot be demonstrated in wall-clock time. Instead, the simulator computes
// virtual makespans from *measured* per-iteration costs: each worker is
// charged the real, recorded durations of the iterations it initializes and
// executes, and the cluster makespan is the maximum over workers (the
// workers share nothing and never communicate, §5.4.4, so max is exact).
// Near-ideal scale-out is then a property of the partitioning algorithm and
// the measured costs — which is precisely the claim Figures 10 and 13 make.
package cluster

import (
	"fmt"

	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/sched"
)

// EC2 instance pricing (2020 us-west-2 on-demand, $/hour) and S3 storage
// pricing used throughout the paper's cost accounting.
const (
	PriceP32xlargeHour = 3.06  // P3.2xLarge: 1 V100 GPU
	PriceP38xlargeHour = 12.24 // P3.8xLarge: 4 V100 GPUs
	GPUsPerP32xlarge   = 1
	GPUsPerP38xlarge   = 4
	// S3PricePerGBMonth is the standard-tier storage price used by Table 4.
	S3PricePerGBMonth = 0.023
)

// Machine describes one instance type in the pool.
type Machine struct {
	Name      string
	GPUs      int
	PricePerH float64
}

// P32xLarge returns the paper's single-GPU instance type.
func P32xLarge() Machine {
	return Machine{Name: "P3.2xLarge", GPUs: GPUsPerP32xlarge, PricePerH: PriceP32xlargeHour}
}

// P38xLarge returns the paper's 4-GPU instance type.
func P38xLarge() Machine {
	return Machine{Name: "P3.8xLarge", GPUs: GPUsPerP38xlarge, PricePerH: PriceP38xlargeHour}
}

// CostModel converts durations and checkpoint sizes into dollars.
type CostModel struct{}

// MachineCost returns the dollar cost of running machine m for ns
// nanoseconds (partial hours are billed pro-rata, per-second billing).
func (CostModel) MachineCost(m Machine, ns int64) float64 {
	hours := float64(ns) / float64(3_600_000_000_000)
	return m.PricePerH * hours
}

// StorageCostPerMonth returns the monthly S3 cost of storing bytes (Table 4).
func (CostModel) StorageCostPerMonth(bytes int64) float64 {
	gb := float64(bytes) / (1 << 30)
	return gb * S3PricePerGBMonth
}

// IterationCosts carries the measured per-iteration timings a record run
// produces: how long each main-loop iteration's compute took, and how long
// the corresponding checkpoint restore takes.
type IterationCosts struct {
	// ComputNs[e] is the measured compute time of main-loop iteration e.
	ComputNs []int64
	// RestoreNs[e] is the measured cost of restoring iteration e's
	// side-effects from checkpoints (0 if never measured; the model falls
	// back to the mean of observed restores).
	RestoreNs []int64
	// SetupNs is the measured cost of running program setup (per worker).
	SetupNs int64
}

// meanRestore returns the average of the non-zero restore costs, or 0.
func (c *IterationCosts) meanRestore() int64 {
	var sum, n int64
	for _, r := range c.RestoreNs {
		if r > 0 {
			sum += r
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// restoreAt returns the restore cost of iteration e with fallback.
func (c *IterationCosts) restoreAt(e int) int64 {
	if e < len(c.RestoreNs) && c.RestoreNs[e] > 0 {
		return c.RestoreNs[e]
	}
	return c.meanRestore()
}

// schedCosts converts the measured iteration costs into the scheduler's
// model: work costs are compute when the inner loop is probed (it
// re-executes) and restores otherwise; catch-up costs are restores. The
// simulator keeps its idealized anchor model (every iteration restorable,
// expressed as nil anchors), matching its pre-existing weak-init accounting.
func (c *IterationCosts) schedCosts(probedInner bool) *sched.Costs {
	sc := &sched.Costs{SetupNs: c.SetupNs}
	for e := range c.ComputNs {
		r := c.restoreAt(e)
		sc.CatchupNs = append(sc.CatchupNs, r)
		if probedInner {
			sc.WorkNs = append(sc.WorkNs, c.ComputNs[e])
		} else {
			sc.WorkNs = append(sc.WorkNs, r)
		}
	}
	return sc
}

// VirtualReplay describes one simulated parallel replay.
type VirtualReplay struct {
	Workers       int
	Init          replay.InitMode
	ProbedInner   bool // inner probe: work iterations execute; else they restore
	WorkerNs      []int64
	MakespanNs    int64
	SequentialNs  int64 // one worker doing everything (vanilla re-execution)
	SpeedupFactor float64
	Steals        int // leases created by stealing
}

// Simulate computes the virtual makespan of replaying the measured
// iterations over g workers. It runs sched.Simulate — the partitioner and
// lease executor the real replay engine runs, under a virtual clock — so the
// scale-out behind Figures 10/13/14 reflects what a replay would actually
// do. Initialization iterations cost restore time (strong) or a single
// restore (weak); work iterations cost compute time when the inner loop is
// probed, restore time otherwise.
//
// A non-nil tr (obs.NewVirtualTrace) receives each simulated worker's setup,
// checkpoint catch-up and work phases as spans stamped with the same virtual
// nanoseconds the makespan uses; two traces of identical inputs are
// byte-identical NDJSON.
func Simulate(costs *IterationCosts, g int, init replay.InitMode, probedInner bool, tr *obs.Trace) *VirtualReplay {
	vr := &VirtualReplay{Workers: g, Init: init, ProbedInner: probedInner}
	vr.SequentialNs = costs.SetupNs
	for _, c := range costs.ComputNs {
		vr.SequentialNs += c
	}
	sim := sched.Simulate(costs.schedCosts(probedInner), g, init, nil, tr)
	vr.WorkerNs = sim.WorkerNs
	vr.MakespanNs = sim.MakespanNs
	vr.Steals = sim.Steals
	if vr.MakespanNs > 0 {
		vr.SpeedupFactor = float64(vr.SequentialNs) / float64(vr.MakespanNs)
	}
	return vr
}

// ReplayCost prices a virtual replay on a pool of identical machines: the
// number of machines is ⌈G / GPUs-per-machine⌉, each billed for the
// makespan.
func ReplayCost(vr *VirtualReplay, m Machine) (machines int, dollars float64) {
	machines = (vr.Workers + m.GPUs - 1) / m.GPUs
	dollars = float64(machines) * CostModel{}.MachineCost(m, vr.MakespanNs)
	return machines, dollars
}

// FormatDollars renders a dollar amount the way the paper's tables do.
func FormatDollars(d float64) string {
	if d < 0.005 && d > 0 {
		return fmt.Sprintf("$ %.3f", d)
	}
	return fmt.Sprintf("$ %.2f", d)
}
