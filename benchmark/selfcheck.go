package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// savedRun is one line of a file written with -out.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func appendRecord(path string, rec savedRun) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []savedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec savedRun
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// worseBy is how much worse b is than a, as a share of a: positive when b
// moved in the direction the metric calls worse. From nothing to something
// is infinitely worse (or better), so it trips any bound.
func worseBy(a, b float64, better string) float64 {
	d := b - a
	if better == "higher" {
		d = -d
	}
	if d == 0 {
		return 0
	}
	return d / math.Abs(a)
}

// compareSets applies the driver's rule to two sets of untraced runs: for
// every workload and end-to-end metric, the second median may not be worse
// than the first by more than the metric's bound, and (setup_s apart) the
// spread of each set — interquartile range over median — must stay within
// it. With sameCode the two sets ran the same program, so a second median
// that is better by more than the bound is the same noise as one that is
// worse, and fails too. It prints one row per pair and reports whether all
// of them held.
func compareSets(bf *benchmarkFile, a, b []savedRun, sameCode bool) bool {
	values := func(recs []savedRun, workload, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if r.Workload == workload && !r.Trace {
				if v, ok := r.Metrics[metric]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs
	}
	ok := true
	fmt.Printf("%-13s %-27s %3s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "n", "median A", "median B", "B worse", "spread A", "spread B", "bound")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			xa, xb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse, sa, sb := worseBy(ma, mb, m.Better), spread(xa), spread(xb)
			verdict := ""
			if worse > m.Bound || (sameCode && worseBy(mb, ma, m.Better) > m.Bound) {
				verdict, ok = "  MEDIANS DISAGREE", false
			}
			if m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound) {
				verdict, ok = verdict+"  TOO NOISY", false
			}
			fmt.Printf("%-13s %-27s %3d %12.4f %12.4f %+7.2f%% %7.2f%% %7.2f%% %5.1f%%%s\n",
				w.Name, m.Name, len(xa), ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	for _, set := range [][]savedRun{a, b} {
		for _, r := range set {
			if !r.Correct || r.Failed != 0 {
				fmt.Printf("%s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				ok = false
			}
		}
	}
	return ok
}

func compareFiles(oldPath, newPath string) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	a, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	b, err := readRecords(newPath)
	if err != nil {
		return err
	}
	if !compareSets(bf, a, b, false) {
		return fmt.Errorf("%s is worse than %s beyond a bound, or one of them is too noisy to tell", newPath, oldPath)
	}
	return nil
}

// runSelfcheck runs the suite as two alternating sets — A, B, A, B, … —
// each run in a process of its own, as the driver does, and run i of both
// sets with seed cfg.seed+i. The sets are the same code, so any
// disagreement beyond a bound is the benchmark's own noise.
func runSelfcheck(cfg config, runs int, out string) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var sets [2][]savedRun
	for _, w := range bf.Workloads {
		for i := 0; i < runs; i++ {
			for s := range sets {
				args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
					"-seconds", strconv.Itoa(bf.RunSeconds), "-trace", "0", "-backend", cfg.backend}
				if cfg.dataRoot != "" {
					args = append(args, "-data-root", cfg.dataRoot)
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s run %d of set %c: %w", w.Name, i, 'A'+s, err)
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				rec := savedRun{Workload: w.Name, Seed: cfg.seed + int64(i)}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
					return fmt.Errorf("%s: result line: %w", w.Name, err)
				}
				sets[s] = append(sets[s], rec)
				if out != "" {
					if err := appendRecord(out+"."+string(rune('A'+s)), rec); err != nil {
						return err
					}
				}
			}
		}
	}
	if !compareSets(bf, sets[0], sets[1], true) {
		return fmt.Errorf("two sets of runs of the same code disagree beyond a bound")
	}
	return nil
}
