// Command florbench regenerates every table and figure of the paper's
// evaluation (docs/ARCHITECTURE.md, "Concept → package", maps each to the
// package it exercises; bench.Experiments is the index).
//
// Usage:
//
//	florbench [-exp all|<name>[,<name>...]] [-scale full|smoke] [-dir DIR]
//
// An unknown experiment name or scale is an error (exit status 2) before any
// work starts.
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

// config is a parsed florbench command line.
type config struct {
	sel   []bench.Experiment
	scale workloads.Scale
	dir   string
}

// parseArgs parses florbench's flags. An unknown experiment or scale is an
// error naming the accepted values.
func parseArgs(args []string) (*config, error) {
	fs := flag.NewFlagSet("florbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiments to run, comma separated: "+strings.Join(expNames(), ", "))
	scale := fs.String("scale", "full", "workload scale: full (paper epoch counts) or smoke")
	dir := fs.String("dir", "", "run directory (default: a temp directory)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg := &config{dir: *dir}
	var err error
	if cfg.sel, err = selectExperiments(*exp); err != nil {
		return nil, err
	}
	if cfg.scale, err = workloads.ParseScale(*scale); err != nil {
		return nil, err
	}
	return cfg, nil
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "florbench:", err)
		}
		os.Exit(2)
	}
	base := cfg.dir
	if base == "" {
		tmp, err := os.MkdirTemp("", "florbench-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		base = tmp
	}
	s := bench.NewSession(base, cfg.scale, os.Stdout)
	for _, e := range cfg.sel {
		if err := e.Run(s); err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
	}
	fmt.Fprintln(os.Stderr, "florbench: done")
}
