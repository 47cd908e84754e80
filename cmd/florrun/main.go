// Command florrun records one of the Table 3 workloads with Flor
// instrumentation, leaving a run directory that florreplay can query with
// hindsight log statements.
//
// Usage:
//
//	florrun -workload RsNt -dir ./run-rsnt [-scale smoke|full]
//	        [-epsilon 0.0667] [-no-adaptive] [-strategy fork|baseline|queue|plasma]
//	        [-shards 16] [-shard-dirs /mnt/a,/mnt/b] [-pool ./project/POOL]
//
// -shards records into a hash-prefix sharded checkpoint store (see
// docs/FORMATS.md); -shard-dirs spreads its packs over extra root
// directories. -pool records into a shared chunk pool, deduplicating
// checkpoint chunks against every other run attached to the same pool
// (fine-tuning families over one frozen backbone store it once). Replay
// needs no matching flags — the layout is detected from the run directory.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

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
	shards := flag.Int("shards", 0, "hash-prefix shard fanout for the checkpoint store (power of two in [2,256]; 0 = single pack)")
	shardDirs := flag.String("shard-dirs", "", "comma-separated extra root dirs for shard packs (requires -shards)")
	pool := flag.String("pool", "", "shared chunk-pool root: dedup checkpoint chunks across every run attached to the same pool")
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
	if *shards > 0 {
		opts = append(opts, flor.Shards(*shards))
	}
	if *shardDirs != "" {
		if *shards <= 1 {
			log.Fatal("florrun: -shard-dirs requires -shards")
		}
		if *pool != "" {
			log.Fatal("florrun: -shard-dirs and -pool are mutually exclusive (pooled packs live in the pool)")
		}
		var dirs []string
		for _, d := range strings.Split(*shardDirs, ",") {
			if d = strings.TrimSpace(d); d != "" {
				dirs = append(dirs, d)
			}
		}
		opts = append(opts, flor.ShardDirs(dirs...))
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
