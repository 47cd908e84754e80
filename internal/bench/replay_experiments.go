package bench

import (
	"fmt"
	"runtime"

	"flor.dev/flor/internal/backmat"
	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/sched"
	"flor.dev/flor/internal/workloads"
)

// paperGPUPool is the paper's replay resource pool: four P3.8xLarge
// machines, four GPUs each.
const paperGPUPool = 16

// speedup is the virtual sequential re-execution time seqNs over a
// simulated replay's makespan.
func speedup(seqNs int64, sim *sched.SimResult) float64 {
	if sim.MakespanNs <= 0 {
		return 0
	}
	return float64(seqNs) / float64(sim.MakespanNs)
}

// Fig12Row is one workload's replay-latency measurement.
type Fig12Row struct {
	Name string
	// Real wall-clock measurements.
	VanillaNs      int64
	OuterReplayNs  int64 // partial replay, outer probe, 1 worker (real)
	OuterSpeedup   float64
	InnerReplay2Ns int64 // inner probe, 2 workers (real wall clock)
	// OuterParSpeedup is the virtual-time outer-probe replay speedup with
	// parallelism over the pool (the paper's top plot combines partial AND
	// parallel replay): virtual sequential re-execution / the outer-probe
	// plan's parallel makespan.
	OuterParSpeedup float64
	// Virtual-time inner-probe replay on the paper's pool.
	InnerWorkers      int
	InnerVirtSpeedup  float64
	InnerVirtReplayNs int64
}

// Fig12Report carries both halves of Figure 12.
type Fig12Report struct {
	Rows []Fig12Row
}

// Fig12 reproduces Figure 12: replay latency factored by probe position.
// The top half (outer probe → partial replay) is measured in real wall
// clock. The bottom half (inner probe → full re-execution) is measured in
// real wall clock at G=2 (the host's core count) and in virtual time on the
// paper's 16-GPU pool: sched.Simulate over replay's own plan for each probe.
func (s *Session) Fig12() (*Fig12Report, error) {
	rep := &Fig12Report{}
	for _, name := range workloads.Names() {
		wr, err := s.Run(name)
		if err != nil {
			return nil, err
		}
		row := Fig12Row{Name: name, VanillaNs: wr.VanillaNs}

		outer, err := replay.Replay(wr.Record.Recording, workloads.WithOuterProbe(wr.Factory),
			replay.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		row.OuterReplayNs = outer.WallNs
		row.OuterSpeedup = float64(wr.VanillaNs) / float64(outer.WallNs)

		g := runtime.NumCPU()
		if g > 2 {
			g = 2
		}
		inner, err := replay.Replay(wr.Record.Recording, workloads.WithInnerProbe(wr.Factory),
			replay.Options{Workers: g, Init: replay.Weak, SkipDeferredCheck: true})
		if err != nil {
			return nil, err
		}
		row.InnerReplay2Ns = inner.WallNs

		// Virtual-time scale-out: as many workers as give parallelism gains,
		// bounded by the paper's pool.
		row.InnerWorkers = min(paperGPUPool, wr.Inner.N())
		seq := sequentialNs(wr.Inner)
		vr := sched.Simulate(wr.Inner, row.InnerWorkers, replay.Weak, wr.Anchors, nil)
		row.InnerVirtSpeedup = speedup(seq, vr)
		row.InnerVirtReplayNs = vr.MakespanNs
		row.OuterParSpeedup = speedup(seq, sched.Simulate(wr.Outer, row.InnerWorkers, replay.Weak, wr.Anchors, nil))
		rep.Rows = append(rep.Rows, row)
	}
	s.printf("\nFigure 12: replay latency by probe position.\n")
	s.printf("Top: outer-loop probe (partial + parallel replay).\n")
	s.printf("%-5s %12s %14s %14s %16s\n", "Name", "vanilla", "outer replay", "seq speedup", "parallel speedup")
	for _, r := range rep.Rows {
		s.printf("%-5s %11.3fs %13.3fs %13.1fx %15.1fx\n",
			r.Name, sec(r.VanillaNs), sec(r.OuterReplayNs), r.OuterSpeedup, r.OuterParSpeedup)
	}
	s.printf("Bottom: inner-loop probe (parallel-only replay; G workers, virtual time).\n")
	s.printf("%-5s %4s %14s %10s %20s\n", "Name", "G", "virt replay", "speedup", "real G=2 wall clock")
	for _, r := range rep.Rows {
		s.printf("%-5s %4d %13.3fs %9.2fx %19.3fs\n",
			r.Name, r.InnerWorkers, sec(r.InnerVirtReplayNs), r.InnerVirtSpeedup, sec(r.InnerReplay2Ns))
	}
	return rep, nil
}

// Fig10Row is one workload's parallel-replay fraction.
type Fig10Row struct {
	Name           string
	StrongFraction float64 // replay time / vanilla, strong init, G=4
	WeakFraction   float64
	FloorFraction  float64 // best achievable: ceil(n/G)/n
}

// Fig10Report carries the parallel-replay-fraction comparison.
type Fig10Report struct {
	Rows    []Fig10Row
	Workers int
}

// Fig10 reproduces Figure 10: parallel replay time of entire training jobs
// as a fraction of a vanilla re-execution, on 4 GPUs, weak vs strong
// initialization (virtual time over replay's inner-probe plan).
func (s *Session) Fig10() (*Fig10Report, error) {
	const g = 4
	rep := &Fig10Report{Workers: g}
	for _, name := range workloads.Names() {
		wr, err := s.Run(name)
		if err != nil {
			return nil, err
		}
		costs, anchors := wr.Inner, wr.Anchors
		seq := float64(sequentialNs(costs))
		strong := sched.Simulate(costs, g, replay.Strong, anchors, nil)
		weak := sched.Simulate(costs, g, replay.Weak, anchors, nil)
		n := costs.N()
		per := (n + g - 1) / g
		rep.Rows = append(rep.Rows, Fig10Row{
			Name:           name,
			StrongFraction: float64(strong.MakespanNs) / seq,
			WeakFraction:   float64(weak.MakespanNs) / seq,
			FloorFraction:  float64(per) / float64(n),
		})
	}
	s.printf("\nFigure 10: parallel replay time as fraction of vanilla re-execution (G=%d).\n", g)
	s.printf("%-5s %10s %10s %12s\n", "Name", "strong", "weak", "ideal floor")
	for _, r := range rep.Rows {
		s.printf("%-5s %9.1f%% %9.1f%% %11.1f%%\n",
			r.Name, r.StrongFraction*100, r.WeakFraction*100, r.FloorFraction*100)
	}
	return rep, nil
}

// Fig13Report carries the RsNt scale-out sweep.
type Fig13Report struct {
	Workload string
	GPUs     []int
	Speedup  []float64
	Ideal    []float64
	// RealWallSpeedup2 is the wall-clock speedup measured at 2 real workers
	// (sanity anchor for the virtual model).
	RealWallSpeedup2 float64
}

// Fig13 reproduces Figure 13: RsNt replay scale-out from 4 to 16 GPUs with
// weak initialization, against ideal parallelism.
func (s *Session) Fig13() (*Fig13Report, error) {
	wr, err := s.Run("RsNt")
	if err != nil {
		return nil, err
	}
	rep := &Fig13Report{Workload: "RsNt"}
	costs, anchors := wr.Inner, wr.Anchors
	for _, g := range []int{1, 4, 8, 12, 16} {
		vr := sched.Simulate(costs, g, replay.Weak, anchors, nil)
		rep.GPUs = append(rep.GPUs, g)
		rep.Speedup = append(rep.Speedup, speedup(sequentialNs(costs), vr))
		rep.Ideal = append(rep.Ideal, replay.MaxSpeedup(costs.N(), g))
	}
	// Real 2-worker anchor.
	seq, err := replay.Replay(wr.Record.Recording, workloads.WithInnerProbe(wr.Factory),
		replay.Options{Workers: 1, Init: replay.Weak, SkipDeferredCheck: true})
	if err != nil {
		return nil, err
	}
	par, err := replay.Replay(wr.Record.Recording, workloads.WithInnerProbe(wr.Factory),
		replay.Options{Workers: 2, Init: replay.Weak, SkipDeferredCheck: true})
	if err != nil {
		return nil, err
	}
	rep.RealWallSpeedup2 = float64(seq.WallNs) / float64(par.WallNs)

	s.printf("\nFigure 13: RsNt parallel replay scale-out (weak init, virtual time).\n")
	s.printf("%6s %10s %10s\n", "GPUs", "speedup", "ideal")
	for i := range rep.GPUs {
		s.printf("%6d %9.2fx %9.2fx\n", rep.GPUs[i], rep.Speedup[i], rep.Ideal[i])
	}
	s.printf("real wall-clock anchor at G=2: %.2fx\n", rep.RealWallSpeedup2)
	return rep, nil
}

// Fig14Row compares serial vs parallel replay cost for one workload.
type Fig14Row struct {
	Name         string
	SerialNs     int64
	SerialCost   float64
	ParallelNs   int64
	ParallelCost float64
	Machines     int
	Workers      int
}

// Fig14Report carries the cost-of-parallelism comparison.
type Fig14Report struct {
	Rows []Fig14Row
}

// Fig14 reproduces Figure 14: the dollar cost of performing the same replay
// serially on a P3.2xLarge vs in parallel on P3.8xLarge machines.
func (s *Session) Fig14() (*Fig14Report, error) {
	rep := &Fig14Report{}
	for _, name := range workloads.Names() {
		wr, err := s.Run(name)
		if err != nil {
			return nil, err
		}
		costs, anchors := wr.Inner, wr.Anchors
		serial := sched.Simulate(costs, 1, replay.Weak, anchors, nil)
		_, serialCost := replayCost(1, serial.MakespanNs, p32xLarge)

		g := min(paperGPUPool, costs.N())
		par := sched.Simulate(costs, g, replay.Weak, anchors, nil)
		machines, parCost := replayCost(g, par.MakespanNs, p38xLarge)
		rep.Rows = append(rep.Rows, Fig14Row{
			Name:     name,
			SerialNs: serial.MakespanNs, SerialCost: serialCost,
			ParallelNs: par.MakespanNs, ParallelCost: parCost,
			Machines: machines, Workers: g,
		})
	}
	s.printf("\nFigure 14: cost of serial vs parallel replay.\n")
	s.printf("%-5s %13s %11s %16s %13s %9s\n",
		"Name", "serial time", "cost", "parallel time", "cost", "machines")
	for _, r := range rep.Rows {
		s.printf("%-5s %12.3fs %11s %15.3fs %13s %6d x4GPU\n",
			r.Name, sec(r.SerialNs), formatDollars(r.SerialCost),
			sec(r.ParallelNs), formatDollars(r.ParallelCost), r.Machines)
	}
	return rep, nil
}

// SerVsIOReport carries the §5.1 microbenchmark results.
type SerVsIOReport struct {
	SerializeNs int64
	WriteNs     int64
	Ratio       float64
	// Record overhead with Fork vs Baseline, averaged over the workloads
	// (the paper's 1.74% vs 4.76% comparison).
	ForkOverhead     float64
	BaselineOverhead float64
}

// SerVsIO reproduces §5.1's supporting measurements: the serialization/IO
// cost ratio, and the record overhead reduction from moving materialization
// off the training thread (Fork vs Baseline strategies).
func (s *Session) SerVsIO(names []string) (*SerVsIOReport, error) {
	rep := &SerVsIOReport{}
	var forkSum, baseSum float64
	for _, name := range names {
		wr, err := s.Run(name)
		if err != nil {
			return nil, err
		}
		// Both strategies record with adaptivity disabled: the comparison is
		// about where materialization work lands, so every epoch must
		// materialize under both configurations.
		fork, err := core.Record(s.tempDir("servsio-fork-"+name), wr.Factory,
			core.RecordOptions{Strategy: backmat.Fork, DisableAdaptive: true})
		if err != nil {
			return nil, err
		}
		st := fork.MatStats
		// "Serialization" in the paper's cloudpickle sense covers the object
		// graph traversal (our snapshot) plus byte encoding.
		rep.SerializeNs += st.SnapshotNs + st.SerializeNs
		rep.WriteNs += st.WriteNs
		forkSum += float64(st.CallerNs) / float64(wr.VanillaNs)

		base, err := core.Record(s.tempDir("servsio-base-"+name), wr.Factory,
			core.RecordOptions{Strategy: backmat.Baseline, DisableAdaptive: true})
		if err != nil {
			return nil, err
		}
		baseSum += float64(base.MatStats.CallerNs) / float64(wr.VanillaNs)
	}
	if rep.WriteNs > 0 {
		rep.Ratio = float64(rep.SerializeNs) / float64(rep.WriteNs)
	}
	rep.ForkOverhead = forkSum / float64(len(names))
	rep.BaselineOverhead = baseSum / float64(len(names))
	s.printf("\n§5.1: serialization vs I/O and background materialization benefit.\n")
	s.printf("serialize/write time ratio: %.2fx (paper: 4.3x)\n", rep.Ratio)
	s.printf("record overhead, background (Fork): %.2f%%  on-thread (Baseline): %.2f%%\n",
		rep.ForkOverhead*100, rep.BaselineOverhead*100)
	s.printf("(paper: background materialization brings overhead from 4.76%% to 1.74%%)\n")
	return rep, nil
}

// CFactor reports the restore/materialize scaling factor c across all
// workloads (paper §5.3.2: measured average 1.38, seeded at 1.0): the mean
// of each workload's probe-free replay c, the factor replay's tracker
// re-prices steals with.
func (s *Session) CFactor() (float64, error) {
	var sum float64
	var n int
	for _, name := range workloads.Names() {
		wr, err := s.Run(name)
		if err != nil {
			return 0, err
		}
		if wr.CFactor > 0 {
			sum += wr.CFactor
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("bench: no c observations")
	}
	c := sum / float64(n)
	s.printf("\n§5.3: measured restore/materialize scaling factor c = %.2f (paper: 1.38)\n", c)
	return c, nil
}
