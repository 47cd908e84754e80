// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5–§6). Each benchmark drives the same harness as cmd/florbench, at smoke
// scale so the whole suite stays tractable; run
//
//	go run ./cmd/florbench
//
// for the full-scale (paper epoch counts) regeneration. Headline quantities
// are attached to each benchmark via ReportMetric.
package flor_test

import (
	"bytes"
	"testing"

	"flor.dev/flor/internal/bench"
	"flor.dev/flor/internal/workloads"
)

func newSession(b *testing.B) *bench.Session {
	b.Helper()
	old := bench.Trials
	bench.Trials = 1
	b.Cleanup(func() { bench.Trials = old })
	return bench.NewSession(b.TempDir(), workloads.Smoke, &bytes.Buffer{})
}

// BenchmarkTable3Workloads runs one vanilla training pass of every Table 3
// workload (the substrate cost underlying all other experiments).
func BenchmarkTable3Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession(b)
		if _, err := s.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Materialization compares the four background materialization
// strategies (paper Figure 5).
func BenchmarkFig5Materialization(b *testing.B) {
	s := newSession(b)
	var lastForkMs float64
	for i := 0; i < b.N; i++ {
		rep, err := s.Fig5(5)
		if err != nil {
			b.Fatal(err)
		}
		lastForkMs = float64(rep.CallerBlockedNs["Fork"]) / 1e6
		b.ReportMetric(float64(rep.CallerBlockedNs["Baseline"])/1e6, "baseline-ms")
		b.ReportMetric(lastForkMs, "fork-ms")
	}
}

// BenchmarkFig7AdaptiveCheckpointing measures record overhead with adaptive
// checkpointing on and off (paper Figure 7).
func BenchmarkFig7AdaptiveCheckpointing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession(b)
		rep, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		var worstAdaptive float64
		for _, r := range rep.Rows {
			if r.Overhead > worstAdaptive {
				worstAdaptive = r.Overhead
			}
		}
		b.ReportMetric(worstAdaptive*100, "worst-adaptive-ovhd-%")
	}
}

// BenchmarkFig11RecordOverhead measures training time with and without
// checkpointing (paper Figure 11; paper average 1.47%).
func BenchmarkFig11RecordOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession(b)
		rep, err := s.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.MeanOverhed*100, "mean-ovhd-%")
	}
}

// BenchmarkTable4StorageCost records every workload and spools checkpoints
// to gzip, reporting the total footprint (paper Table 4).
func BenchmarkTable4StorageCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession(b)
		rep, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		var total int64
		for _, r := range rep.Rows {
			total += r.GzBytes
		}
		b.ReportMetric(float64(total)/(1<<20), "gz-total-MB")
	}
}

// BenchmarkFig10ParallelReplayFraction measures parallel replay time as a
// fraction of vanilla re-execution at G=4 (paper Figure 10).
func BenchmarkFig10ParallelReplayFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession(b)
		rep, err := s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rep.Rows {
			if r.WeakFraction > worst {
				worst = r.WeakFraction
			}
		}
		b.ReportMetric(worst*100, "worst-weak-fraction-%")
	}
}

// BenchmarkFig12OuterProbeLatency measures partial replay for outer-loop
// probes (paper Figure 12 top: speedups 7x–1123x).
func BenchmarkFig12OuterProbeLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession(b)
		rep, err := s.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		var best float64
		for _, r := range rep.Rows {
			if r.OuterSpeedup > best {
				best = r.OuterSpeedup
			}
		}
		b.ReportMetric(best, "best-outer-speedup-x")
	}
}

// BenchmarkFig12InnerProbeLatency measures parallel-only replay for
// inner-loop probes (paper Figure 12 bottom).
func BenchmarkFig12InnerProbeLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession(b)
		rep, err := s.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		var best float64
		for _, r := range rep.Rows {
			if r.InnerVirtSpeedup > best {
				best = r.InnerVirtSpeedup
			}
		}
		b.ReportMetric(best, "best-inner-speedup-x")
	}
}

// BenchmarkFig13ScaleOut sweeps RsNt replay from 1 to 16 workers (paper
// Figure 13: near-ideal, capped at 15.38x for 200 epochs on 16 GPUs).
func BenchmarkFig13ScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession(b)
		rep, err := s.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Speedup[len(rep.Speedup)-1], "speedup-max-workers")
	}
}

// BenchmarkFig14CostOfParallelism compares serial vs parallel replay dollar
// cost (paper Figure 14: roughly equal cost, much lower latency).
func BenchmarkFig14CostOfParallelism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession(b)
		rep, err := s.Fig14()
		if err != nil {
			b.Fatal(err)
		}
		var worstRatio float64
		for _, r := range rep.Rows {
			if r.SerialCost > 0 {
				if ratio := r.ParallelCost / r.SerialCost; ratio > worstRatio {
					worstRatio = ratio
				}
			}
		}
		b.ReportMetric(worstRatio, "worst-cost-ratio")
	}
}

// BenchmarkSerializationVsIO reproduces §5.1's measurements: the
// serialization/write ratio and the benefit of background materialization
// (paper: overhead 4.76% on-thread vs 1.74% in background).
func BenchmarkSerializationVsIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession(b)
		rep, err := s.SerVsIO([]string{"Jasp", "ImgN"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Ratio, "ser-vs-write-ratio")
		b.ReportMetric(rep.BaselineOverhead*100, "onthread-ovhd-%")
		b.ReportMetric(rep.ForkOverhead*100, "background-ovhd-%")
	}
}
