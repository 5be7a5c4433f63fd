// Command benchmark measures rstore through its whole stack — HTTP client,
// application server, core, replicated key-value store, storage wire and
// engine — and says which layer the time went to. README.md describes the
// workloads, every metric and how to read a trace; BENCHMARK.json at the
// root of the checkout is the contract the numbers are judged by.
//
//	bash benchmark/run.sh --workload version-scan --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload ingest --seed 1 --seconds 20 --trace 1 --trace-out spans.ndjson
//	bash benchmark/run.sh --selfcheck
//	bash benchmark/run.sh --compare old.ndjson new.ndjson
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		cfg       config
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload as two alternating sets and compare them within the bounds")
		compare   = flag.Bool("compare", false, "compare two files written with -out: benchmark -compare old new")
		runs      = flag.Int("runs", 3, "runs per set and workload for -selfcheck, each with its own seed")
		out       = flag.String("out", "", "append this run's result line, tagged with workload, seed and trace, to a file")
	)
	flag.StringVar(&cfg.workload, "workload", "", "version-scan, key-lookup, ingest or mixed-rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "every input is derived from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.Float64Var(&cfg.scale, "scale", 1, "shrink datasets and lists (tests only)")
	flag.StringVar(&cfg.dataRoot, "data-root", "", "where data directories go (default: .bench_data in the checkout)")
	flag.StringVar(&cfg.backend, "backend", "lsm", "storage engine under engined: lsm or disklog (BENCHMARK.json pins lsm)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write the spans there, one JSON object per line")
	flag.Parse()
	cfg.trace = *trace != 0
	cfg.logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

	if err := mainErr(cfg, *selfcheck, *compare, *runs, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config, selfcheck, compare bool, runs int, out string) error {
	switch {
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case selfcheck:
		return runSelfcheck(cfg, runs, out)
	}
	if cfg.dataRoot == "" {
		root, err := checkoutRoot()
		if err != nil {
			return err
		}
		cfg.dataRoot = filepath.Join(root, ".bench_data")
	}
	res, err := execute(context.Background(), cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if out != "" {
		if err := appendRecord(out, savedRun{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, result: *res}); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	return nil
}
