package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// metricDef names one metric of BENCHMARK.json. The bounds live only in
// BENCHMARK.json; a test keeps these tables and that file in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what the driver gates: set-up time and the paper's own
// yardsticks, span and storage cost, which repeat (exactly on the read
// workloads, within 3 % on ingest, whose bytes the seed draws). Latency is
// not among them: on the reference box no latency repeats within 10 % from
// run to run, which is where ISSUE 14 draws the line between a gated timing
// and a per-layer one (README.md has the measurements).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "chunks_per_read", Unit: "count", Better: "lower"},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
}

// perLayer comes from the traced run (README.md says what each should
// move). Every workload emits all of them (the driver's contract), so the
// latencies are named by role: which operation is primary and which
// secondary is the workload's definition (workloads.go, README.md). All
// are interquartile means of the class's latencies (see typical in
// stats.go); client.{primary,secondary}_ms are those of the operations
// that carried no trace header.
var perLayer = []metricDef{
	{Name: "client.primary_ms", Unit: "ms", Better: "lower"},
	{Name: "client.secondary_ms", Unit: "ms", Better: "lower"},
	{Name: "client.primary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "client.secondary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.primary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.secondary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.primary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.secondary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "kvstore.primary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "kvstore.secondary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "remote.primary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "remote.secondary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "lsm.primary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "lsm.secondary_self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.primary_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.secondary_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "client.primary_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.secondary_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.stall_pct", Unit: "%", Better: "lower"},
	{Name: "client.payload_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "server.http_bytes_per_payload_byte", Unit: "ratio", Better: "lower"},
	{Name: "core.wasted_chunk_pct", Unit: "%", Better: "lower"},
	{Name: "core.fetched_bytes_per_payload_byte", Unit: "ratio", Better: "lower"},
	{Name: "core.load_ms", Unit: "ms", Better: "lower"},
	{Name: "kvstore.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "kvstore.bytes_put_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "kvstore.repair_writes", Unit: "count", Better: "lower"},
	{Name: "kvstore.breaker_trips", Unit: "count", Better: "lower"},
	{Name: "remote.roundtrips_per_op", Unit: "count", Better: "lower"},
	{Name: "remote.value_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "lsm.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "lsm.sync_writes_per_commit", Unit: "count", Better: "lower"},
	{Name: "lsm.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "lsm.live_ratio", Unit: "ratio", Better: "higher"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "host.cpu_s_per_wall_s", Unit: "ratio", Better: "lower"},
	{Name: "host.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects one run's values and checks them against a table.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // a class this run took no sample of; JSON has no NaN
			}
			m.values[name] = v
			return
		}
	}
	panic("metric not in table: " + name)
}

// result fails unless every metric of the table was set.
func (m *metricSet) result() (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// checkoutRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	root, err := checkoutRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
