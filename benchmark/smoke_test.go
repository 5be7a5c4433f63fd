package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every workload, in both modes, at a scale that takes a fraction of a
// second: all answers verified, no operation failed, every metric of the
// mode measured, the store reopened from disk.
func TestEveryWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var log []string
				cfg := config{
					workload: w.name, seed: 11, seconds: 0.5, trace: trace, scale: 0.05,
					dataRoot: t.TempDir(), backend: "lsm",
					logf: func(format string, args ...any) { log = append(log, format) },
				}
				if trace {
					cfg.traceOut = filepath.Join(t.TempDir(), "spans.ndjson")
				}
				res, err := execute(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 10 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: %+v", d.Name, v)
					}
				}
				if !trace {
					for _, d := range defs {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v: must never be 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				} else {
					for _, name := range []string{"client.primary_self_ms", "remote.primary_self_ms", "lsm.primary_self_ms", "trace.primary_ms", "remote.roundtrips_per_op"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("traced run measured %s = %v", name, res.Metrics[name].Value)
						}
					}
					if st, err := os.Stat(cfg.traceOut); err != nil || st.Size() == 0 {
						t.Errorf("trace file: %v", err)
					}
				}
				if left, _ := os.ReadDir(cfg.dataRoot); len(left) != 0 {
					t.Errorf("run left %d entries in its data root", len(left))
				}
				for _, line := range log {
					if strings.HasPrefix(line, "FAILED") {
						t.Errorf("log: %s", line)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadAndBackend(t *testing.T) {
	cfg := config{workload: "nope", seconds: 0.1, scale: 0.05, dataRoot: t.TempDir(), backend: "lsm", logf: func(string, ...any) {}}
	if _, err := execute(context.Background(), cfg); err == nil {
		t.Error("unknown workload accepted")
	}
	cfg.workload, cfg.backend = "ingest", "papyrus"
	if _, err := execute(context.Background(), cfg); err == nil {
		t.Error("unknown backend accepted")
	}
}

// -trace-out names a file to start afresh; a directory given by mistake is
// refused and keeps its contents.
func TestTraceOutRefusesADirectory(t *testing.T) {
	dir := t.TempDir()
	keep := filepath.Join(dir, "keep")
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{workload: "ingest", seconds: 0.1, scale: 0.05, trace: true, traceOut: dir, dataRoot: t.TempDir(), backend: "lsm", logf: func(string, ...any) {}}
	if _, err := execute(context.Background(), cfg); err == nil {
		t.Error("a directory was accepted as -trace-out")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("the directory lost its contents: %v", err)
	}
}
