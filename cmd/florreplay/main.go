// Command florreplay performs hindsight logging against a run directory
// created by florrun: it inserts a probe (a new log statement) into the
// recorded workload's code and replays to produce the probe's output.
//
// Usage:
//
//	florreplay -workload RsNt -dir ./run-rsnt -probe outer|inner|none
//	           [-workers 4] [-init strong|weak] [-scale smoke|full]
//
// The outer probe logs the model's weight norm each epoch (satisfied by
// partial replay: the training loop is skipped). The inner probe logs the
// gradient norm at every training step (the training loop re-executes, in
// parallel across -workers).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	flor "flor.dev/flor"
	"flor.dev/flor/internal/workloads"
)

func main() {
	name := flag.String("workload", "Cifr", "Table 3 workload name")
	dir := flag.String("dir", "", "run directory recorded by florrun (required)")
	probe := flag.String("probe", "outer", "hindsight probe position: outer, inner, none")
	workers := flag.Int("workers", 1, "degree of hindsight parallelism")
	initMode := flag.String("init", "strong", "worker initialization: strong or weak")
	scale := flag.String("scale", "full", "workload scale used at record time")
	flag.Parse()

	if *dir == "" {
		log.Fatal("florreplay: -dir is required")
	}
	spec, ok := workloads.Get(*name)
	if !ok {
		log.Fatalf("florreplay: unknown workload %q (have %v)", *name, workloads.Names())
	}
	sc, err := workloads.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "florreplay:", err)
		os.Exit(2)
	}
	factory := spec.Build(sc)
	switch *probe {
	case "outer":
		factory = workloads.WithOuterProbe(factory)
	case "inner":
		factory = workloads.WithInnerProbe(factory)
	case "none":
	default:
		log.Fatalf("florreplay: unknown probe %q", *probe)
	}

	opts := []flor.Option{flor.Workers(*workers)}
	if *initMode == "weak" {
		opts = append(opts, flor.Init(flor.WeakInit))
	}

	res, err := flor.Replay(*dir, factory, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %s with %q probe on %d worker(s) [%d steals] in %.3fs\n",
		spec.Name, *probe, res.Workers, res.Steals, float64(res.WallNs)/1e9)
	if len(res.ProbedLoops) > 0 {
		fmt.Printf("probed loops: %v\n", res.ProbedLoops)
	}
	for _, l := range res.Logs {
		fmt.Println(l)
	}
	if len(res.Anomalies) == 0 {
		fmt.Println("deferred check: replay matches record exactly (no anomalies)")
	} else {
		fmt.Printf("deferred check: %d anomalies!\n", len(res.Anomalies))
		for _, a := range res.Anomalies {
			fmt.Println("  " + a.String())
		}
	}
}
