package main

import (
	"maps"
	"slices"
	"testing"
)

// benchmarkJSON is where the repository's root BENCHMARK.json sits relative
// to this package.
const benchmarkJSON = "../../BENCHMARK.json"

// TestMetricsMatchBenchmarkJSON runs every workload at test size, untraced
// and traced, and holds the names and units it emits to BENCHMARK.json: none
// missing, none extra. Every operation must match the oracle.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, florperf's %v", names, workloadNames())
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range names {
		for _, traced := range []bool{false, true} {
			rep, err := run(config{workload: w, seed: 7, seconds: 0.4, trace: traced, smoke: true, dir: t.TempDir()}, nil)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
			}
			if !maps.Equal(got, want[traced]) {
				t.Errorf("%s traced=%v: metrics differ from BENCHMARK.json:\n got  %v\n want %v", w, traced, got, want[traced])
			}
			if !traced {
				for name, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, name, m.Value)
					}
				}
			}
		}
	}
}

// TestWrongOracleLineCountsAsFailure corrupts one line of the oracle after
// set-up: the replies and recordings that no longer match it must be counted
// as failed operations, on a query workload and on a record workload.
func TestWrongOracleLineCountsAsFailure(t *testing.T) {
	for _, w := range []string{"query_hot", "record_ckpt"} {
		rep, err := run(config{workload: w, seed: 7, seconds: 0.3, smoke: true, dir: t.TempDir()}, func(e *benchEnv) {
			for _, r := range e.runs {
				r.golden[1] += " tampered"
				r.base[1] += " tampered"
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: a tampered oracle went unnoticed: correct=%v failed=%d of %d", w, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
