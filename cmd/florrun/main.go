// Command florrun records one of the Table 3 workloads with Flor
// instrumentation, leaving a run directory that florreplay can query with
// hindsight log statements.
//
// Usage:
//
//	florrun -workload RsNt -dir ./run-rsnt [-scale smoke|full]
//	        [-epsilon 0.0667] [-no-adaptive] [-strategy fork|baseline|queue|plasma]
//	        [-pool ./project/POOL]
//
// -pool records into a shared chunk pool, deduplicating checkpoint chunks
// against every other run attached to the same pool (fine-tuning families
// over one frozen backbone store it once); without it the run is its own
// pool, its chunks in its own directory. The pool may not be another run's
// directory (store.ErrWrongPool). Several florrun processes may record into
// one pool at once: each commit holds the pool's lock, an exclusive flock on
// the pool directory. Replay needs no matching flags — the run's manifest
// names its pool.
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
	name := flag.String("workload", "Cifr", "Table 3 workload name (RTE, CoLA, Cifr, RsNt, Wiki, Jasp, ImgN, RnnT)")
	dir := flag.String("dir", "", "run directory to create (required)")
	scale := flag.String("scale", "full", "workload scale: full or smoke")
	epsilon := flag.Float64("epsilon", 0, "record overhead tolerance (default 1/15)")
	noAdaptive := flag.Bool("no-adaptive", false, "materialize every loop execution")
	strategy := flag.String("strategy", "fork", "materialization strategy: fork, baseline, queue, plasma")
	pool := flag.String("pool", "", "shared chunk-pool root, not another run's directory: dedup checkpoint chunks across every run attached to the same pool")
	flag.Parse()

	if *dir == "" {
		log.Fatal("florrun: -dir is required")
	}
	spec, ok := workloads.Get(*name)
	if !ok {
		log.Fatalf("florrun: unknown workload %q (have %v)", *name, workloads.Names())
	}
	sc, err := workloads.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "florrun:", err)
		os.Exit(2)
	}

	opts := []flor.Option{}
	if *epsilon > 0 {
		opts = append(opts, flor.Epsilon(*epsilon))
	}
	if *noAdaptive {
		opts = append(opts, flor.DisableAdaptiveCheckpointing())
	}
	switch *strategy {
	case "fork":
		opts = append(opts, flor.WithStrategy(flor.StrategyFork))
	case "baseline":
		opts = append(opts, flor.WithStrategy(flor.StrategyBaseline))
	case "queue":
		opts = append(opts, flor.WithStrategy(flor.StrategyQueue))
	case "plasma":
		opts = append(opts, flor.WithStrategy(flor.StrategyPlasma))
	default:
		log.Fatalf("florrun: unknown strategy %q", *strategy)
	}
	if *pool != "" {
		opts = append(opts, flor.Pool(*pool))
	}

	res, err := flor.Record(*dir, spec.Build(sc), opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %s (%s scale) into %s\n", spec.Name, *scale, *dir)
	fmt.Printf("  wall time:    %.3fs\n", float64(res.WallNs)/1e9)
	fmt.Printf("  checkpoints:  %d (%.2f MB)\n", res.Checkpoints, float64(res.CheckpointBytes)/(1<<20))
	fmt.Printf("  log lines:    %d\n", len(res.Logs))
	for _, l := range res.Logs {
		fmt.Fprintln(os.Stderr, l)
	}
}
