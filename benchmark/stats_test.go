package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.25, 17.5}, {0.95, 38.5}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile sorted its argument in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(mean(nil)) {
		t.Error("an empty sample must read NaN, not 0")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints: the driver computes its spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestClosesBatchByPosition(t *testing.T) {
	var closing []int
	for n := 1; n <= 50; n++ {
		if closesBatch(n, 16) {
			closing = append(closing, n)
		}
	}
	if len(closing) != 3 || closing[0] != 16 || closing[1] != 32 || closing[2] != 48 {
		t.Errorf("closing commits at %v, want 16 32 48", closing)
	}
	if closesBatch(16, 0) || closesBatch(0, 16) {
		t.Error("no batch size, or no commit yet, closes nothing")
	}
}

func TestShortClasses(t *testing.T) {
	w := workloadDef{floor: [2]int{300, 20}}
	var lat [2][]float64
	lat[0], lat[1] = make([]float64, 300), make([]float64, 19)
	short := w.shortClasses(lat)
	if len(short) != 1 {
		t.Fatalf("shortClasses = %q, want only the secondary class", short)
	}
	lat[1] = append(lat[1], 0)
	if short := w.shortClasses(lat); len(short) != 0 {
		t.Errorf("at the floor: %q", short)
	}
}

// A window runs as many whole passes as bring every class to its floor,
// however long they take.
func TestFloorPasses(t *testing.T) {
	list := make([]query, 0, 80)
	for i := 0; i < 40; i++ {
		list = append(list, query{class: classPrimary}, query{class: classSecondary})
	}
	r := &run{cfg: config{scale: 1}, floor: [2]int{300, 300}}
	if got := r.floorPasses(list); got != 8 {
		t.Errorf("40 per class and pass, floor 300: %d passes, want 8", got)
	}
	r.floor = [2]int{300, 20}
	if got := r.floorPasses(list[:79]); got != 8 { // 40 primary, 39 secondary
		t.Errorf("uneven list: %d passes, want 8", got)
	}
	r.cfg.scale = 0.05
	if got := r.floorPasses(list); got != 1 {
		t.Errorf("a scaled-down run has no floor: %d passes", got)
	}
	r.cfg.scale, r.rec = 1, newRecorder()
	if got := r.floorPasses(list); got != 1 {
		t.Errorf("a traced run has no floor: %d passes", got)
	}
}

func TestStallShare(t *testing.T) {
	fast := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 51} // one beyond 5× the median
	slow := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	if got := stallShare(fast, slow); !near(got, 5) {
		t.Errorf("stallShare = %v, want 5 (each class against its own median)", got)
	}
	if got := stallShare(); got != 0 {
		t.Errorf("stallShare() = %v", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); !near(got, 0.1) {
		t.Errorf("lower-is-better, 100 → 110: %v", got)
	}
	if got := worseBy(100, 110, "higher"); !near(got, -0.1) {
		t.Errorf("higher-is-better, 100 → 110: %v", got)
	}
	if got := worseBy(0, 0, "lower"); got != 0 {
		t.Errorf("0 → 0: %v", got)
	}
	if got := worseBy(0, 3, "lower"); !math.IsInf(got, 1) {
		t.Errorf("0 → 3, lower is better: %v, want +Inf so that it trips any bound", got)
	}
	if got := worseBy(0, 3, "higher"); !math.IsInf(got, -1) {
		t.Errorf("0 → 3, higher is better: %v, want -Inf", got)
	}
}

// -compare old new fails only when new is worse; -selfcheck compares the
// same code with itself, so a shift beyond the bound fails either way.
func TestCompareSetsOneAndTwoSided(t *testing.T) {
	bf := &benchmarkFile{EndToEnd: []metricDef{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(values ...float64) []savedRun {
		var recs []savedRun
		for i, v := range values {
			recs = append(recs, savedRun{Workload: "w", Seed: int64(i), result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"setup_s": {Value: v, Unit: "s"}}}})
		}
		return recs
	}
	slow, fast := set(10, 10.1, 9.9), set(7, 7.1, 6.9)
	if compareSets(bf, fast, slow, false) {
		t.Error("new is 43 % worse than old: -compare must fail")
	}
	if !compareSets(bf, slow, fast, false) {
		t.Error("new is better than old: -compare must pass")
	}
	if compareSets(bf, slow, fast, true) {
		t.Error("the same code 30 % apart, B the better: -selfcheck must fail")
	}
	if !compareSets(bf, slow, set(10.2, 10.3, 10.1), true) {
		t.Error("2 % apart within a bound of 10 %: -selfcheck must pass")
	}
}

func TestTypicalIsTheInterquartileMean(t *testing.T) {
	// 12 samples: the middle six are 4..9; the stalls at the top do not count.
	xs := []float64{900, 1, 2, 3, 4, 5, 6, 7, 8, 9, 800, 700}
	if got := typical(xs); !near(got, 6.5) {
		t.Errorf("typical = %v, want 6.5", got)
	}
	// Two latency levels, 50 and 51 of 101 samples: the median sits on one
	// level, the interquartile mean between them.
	var levels []float64
	for i := 0; i < 101; i++ {
		levels = append(levels, map[bool]float64{true: 10, false: 20}[i < 50])
	}
	if m := median(levels); m != 20 {
		t.Errorf("median = %v", m)
	}
	if got := typical(levels); got <= 14 || got >= 16 {
		t.Errorf("typical = %v, want about 15", got)
	}
	if got := typical([]float64{1, 2, 6}); !near(got, 3) {
		t.Errorf("typical of three = %v, want their mean", got)
	}
	if !math.IsNaN(typical(nil)) {
		t.Error("typical of nothing must read NaN")
	}
}
