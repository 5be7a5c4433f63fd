package main

import (
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is the contract the driver reads; the tables in
// metrics.go and workloads.go are what the program emits. They must say
// the same thing, and the file must stay inside the driver's limits.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, file, table []metricDef, bounded bool) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(file), len(table))
			return
		}
		for i, m := range file {
			if m.Name != table[i].Name || m.Unit != table[i].Unit || m.Better != table[i].Better {
				t.Errorf("%s[%d]: file says %+v, table says %+v", kind, i, m, table[i])
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: name %q or unit %q outside the contract, or used twice", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: per-layer metrics have no bound", m.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Error("too many metrics")
	}
	var setup *metricDef
	for i := range bf.EndToEnd {
		if bf.EndToEnd[i].Name == "setup_s" {
			setup = &bf.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s: %+v", setup)
	} else {
		for _, m := range bf.EndToEnd {
			if m.Bound > setup.Bound {
				t.Errorf("%s has a larger bound than setup_s", m.Name)
			}
		}
	}

	var gated []workloadDef
	for _, w := range workloads {
		if !w.extra {
			gated = append(gated, w)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(gated))
	}
	for i, w := range bf.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: file says %q (%q), program says %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: name outside the contract or used twice, or why longer than 200", w.Name)
		}
		seen[w.Name] = true
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	// 4 + 22 × workloads runs, with set-up, inside 3420 s.
	if runs := 4 + 22*len(bf.Workloads); float64(runs)*(float64(bf.RunSeconds)+12) > 3420*0.8 {
		t.Errorf("%d runs of %d s leave no room for set-up within the driver's cap", runs, bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command = %v", bf.Command)
	}
	root, _ := checkoutRoot()
	if st, err := os.Stat(root + "/BENCHMARK.json"); err != nil || st.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, larger than 64 KiB?", err)
	}
}
