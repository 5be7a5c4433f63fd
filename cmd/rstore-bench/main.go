// Command rstore-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	rstore-bench -exp fig8            # one experiment
//	rstore-bench -all                 # everything, paper order
//	rstore-bench -all -scale full     # heavier datasets
//	rstore-bench -list                # catalog of experiments
//	rstore-bench -exp antientropy -json . # also write BENCH_antientropy.json
//
// Output is printed as aligned text tables, one per paper artifact, each
// annotated with the paper's reported shape for comparison. With -json, a
// machine-readable BENCH_<exp>.json snapshot (workload parameters, tables,
// and key metrics such as throughput and latency percentiles) is written
// per experiment into the given directory, so the perf trajectory is
// tracked across changes instead of quoted in prose.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rstore/internal/bench"
)

func main() { os.Exit(run()) }

// run carries the real main: its result is the exit status.
func run() int {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiments")
		scale   = flag.String("scale", "quick", "dataset scale: quick|full")
		queries = flag.Int("queries", 0, "override query sample size")
		seed    = flag.Int64("seed", 0, "override RNG seed")
		jsonDir = flag.String("json", "", "write a BENCH_<exp>.json snapshot per experiment into this directory")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Description)
		}
		return 0
	}

	opts := bench.Quick()
	if *scale == "full" {
		opts = bench.Full()
	}
	if *queries > 0 {
		opts.Queries = *queries
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	var runs []bench.Experiment
	switch {
	case *all:
		runs = bench.Experiments()
	case *exp != "":
		e, err := bench.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		runs = []bench.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "rstore-bench: need -exp <id>, -all, or -list")
		return 2
	}

	for _, e := range runs {
		start := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rstore-bench: %s: %v\n", e.ID, err)
			return 1
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		elapsed := time.Since(start)
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_"+e.ID+".json")
			snap := bench.NewSnapshot(e.ID, opts, elapsed, tables)
			if err := snap.WriteFile(path); err != nil {
				fmt.Fprintln(os.Stderr, "rstore-bench:", err)
				return 1
			}
			fmt.Printf("(snapshot written to %s)\n", path)
		}
		fmt.Printf("(%s completed in %s)\n\n", e.ID, elapsed.Round(time.Millisecond))
	}
	return 0
}
