// Command florbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	florbench [-exp all|table3|fig5|fig7|fig10|fig11|fig12|fig13|fig14|table4|ser-vs-io|cfactor|ckpt-throughput|serve-throughput]
//	          [-scale full|smoke] [-dir DIR] [-benchdir DIR]
//
// The ckpt-throughput and serve-throughput experiments additionally persist
// their reports as BENCH_ckpt.json and BENCH_serve.json in -benchdir
// (default: the working directory),
// forming the repository's benchmark trajectory; README.md documents the
// schemas.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"flor.dev/flor/internal/bench"
	"flor.dev/flor/internal/workloads"
)

// writeBenchJSON persists an experiment report for the benchmark trajectory.
func writeBenchJSON(dir, name string, report any) error {
	js, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(js, '\n'), 0o644)
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma separated): all, table3, fig5, fig7, fig10, fig11, fig12, fig13, fig14, table4, ser-vs-io, cfactor, ckpt-throughput, serve-throughput")
	scale := flag.String("scale", "full", "workload scale: full (paper epoch counts) or smoke")
	dir := flag.String("dir", "", "run directory (default: a temp directory)")
	benchdir := flag.String("benchdir", ".", "directory for BENCH_*.json trajectory files")
	flag.Parse()

	sc := workloads.Full
	if *scale == "smoke" {
		sc = workloads.Smoke
	}
	base := *dir
	if base == "" {
		tmp, err := os.MkdirTemp("", "florbench-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		base = tmp
	}
	s := bench.NewSession(base, sc, os.Stdout)

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := func(name string, f func() error) {
		if !all && !want[name] {
			return
		}
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("table3", func() error { s.Table3(); return nil })
	run("fig5", func() error { _, err := s.Fig5(10); return err })
	run("fig7", func() error { _, err := s.Fig7(); return err })
	run("fig11", func() error { _, err := s.Fig11(); return err })
	run("table4", func() error { _, err := s.Table4(); return err })
	run("fig12", func() error { _, err := s.Fig12(); return err })
	run("fig10", func() error { _, err := s.Fig10(); return err })
	run("fig13", func() error { _, err := s.Fig13(); return err })
	run("fig14", func() error { _, err := s.Fig14(); return err })
	run("ser-vs-io", func() error {
		_, err := s.SerVsIO([]string{"Wiki", "RsNt", "RnnT", "Jasp"})
		return err
	})
	run("cfactor", func() error { _, err := s.CFactor(); return err })
	run("ckpt-throughput", func() error {
		rep, err := s.CkptThroughput(12)
		if err != nil {
			return err
		}
		return writeBenchJSON(*benchdir, "BENCH_ckpt.json", rep)
	})
	run("serve-throughput", func() error {
		rep, err := s.ServeThroughput()
		if err != nil {
			return err
		}
		return writeBenchJSON(*benchdir, "BENCH_serve.json", rep)
	})

	fmt.Fprintln(os.Stderr, "florbench: done")
}
