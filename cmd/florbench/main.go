// Command florbench regenerates every table and figure of the paper's
// evaluation (docs/ARCHITECTURE.md, "Concept → package", maps each to the
// package it exercises; bench.Experiments is the index).
//
// Usage:
//
//	florbench [-exp all|<name>[,<name>...]] [-scale full|smoke] [-dir DIR]
//
// An unknown experiment name is an error (exit status 2) before any work
// starts.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"flor.dev/flor/internal/bench"
	"flor.dev/flor/internal/workloads"
)

// expNames returns the accepted -exp names, "all" first.
func expNames() []string {
	names := []string{"all"}
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
	}
	return names
}

// selectExperiments resolves a comma-separated -exp list against
// bench.Experiments, keeping the harness's own order.
func selectExperiments(list string) ([]bench.Experiment, error) {
	names := expNames()
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(names, name) {
			return nil, fmt.Errorf("unknown experiment %q; accepted: %s", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	var sel []bench.Experiment
	for _, e := range bench.Experiments {
		if want["all"] || want[e.Name] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

func main() {
	exp := flag.String("exp", "all", "experiments to run, comma separated: "+strings.Join(expNames(), ", "))
	scale := flag.String("scale", "full", "workload scale: full (paper epoch counts) or smoke")
	dir := flag.String("dir", "", "run directory (default: a temp directory)")
	flag.Parse()

	sel, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "florbench:", err)
		os.Exit(2)
	}
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
	for _, e := range sel {
		if err := e.Run(s); err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
	}
	fmt.Fprintln(os.Stderr, "florbench: done")
}
