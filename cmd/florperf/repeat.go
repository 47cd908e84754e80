package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the repeat check reads: the
// bounds live there and nowhere else.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is what
// the benchmark's driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runChild runs one workload once in a child process and returns its result
// line.
func runChild(cfg config, workload string, seed uint64) (*result, error) {
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(cfg.seconds), "--trace", "0"}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	if cfg.dir != "" {
		args = append(args, "-dir", cfg.dir)
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// repeatRuns is how many runs per workload make one set: the driver's number.
const repeatRuns = 10

// checkRepeat does what the benchmark's driver does before it accepts the
// benchmark, twice over: ten untraced runs of every workload, one seed each,
// and for each end-to-end metric the distance between the quartiles as a
// share of the median, next to the metric's bound from BENCHMARK.json; then a
// second such set. It fails when a spread exceeds its bound (setup_s
// excepted, as the driver excepts it) or a second median is worse than the
// first by more than the bound.
func checkRepeat(cfg config) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	// values[set][workload][metric]
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < repeatRuns; i++ {
			seed := cfg.seed + uint64(set*repeatRuns+i)
			for _, w := range bf.Workloads {
				res, err := runChild(cfg, w.Name, seed)
				if err != nil {
					return err
				}
				if values[set][w.Name] == nil {
					values[set][w.Name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d seed %d %s done\n", set+1, seed, w.Name)
			}
		}
	}
	var bad []string
	for set := range values {
		fmt.Printf("set %d: %d runs per workload, %g s each\n", set+1, repeatRuns, cfg.seconds)
		fmt.Printf("  %-13s %-24s %12s %9s %7s %s\n", "workload", "metric", "median", "iqr/med", "bound", "")
		for _, w := range bf.Workloads {
			for _, m := range bf.EndToEnd {
				xs := values[set][w.Name][m.Name]
				med := median(xs)
				q1, q3 := quartiles(xs)
				spread := ratio(q3-q1, med)
				note := ""
				switch {
				case m.Name == "setup_s":
				case spread > m.Bound:
					note = "SPREAD OVER BOUND"
					bad = append(bad, fmt.Sprintf("set %d %s %s: spread %.3f over bound %.3f", set+1, w.Name, m.Name, spread, m.Bound))
				case spread > m.Bound/3:
					note = "over a third of the bound"
				}
				fmt.Printf("  %-13s %-24s %12.6g %9.4f %7.3f %s\n", w.Name, m.Name, med, spread, m.Bound, note)
				fmt.Printf("    %.5g\n", xs)
			}
		}
	}
	fmt.Println("second set against first:")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := median(values[0][w.Name][m.Name]), median(values[1][w.Name][m.Name])
			worse := ratio(b-a, a)
			if m.Better == "higher" {
				worse = ratio(a-b, a)
			}
			note := ""
			if worse > m.Bound {
				note = "WORSE BY MORE THAN THE BOUND"
				bad = append(bad, fmt.Sprintf("%s %s: second median %.6g against %.6g", w.Name, m.Name, b, a))
			}
			fmt.Printf("  %-13s %-24s %12.6g %12.6g %+8.4f %7.3f %s\n", w.Name, m.Name, a, b, worse, m.Bound, note)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("the benchmark does not repeat within its bounds:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
