package bench

import (
	"strconv"
	"testing"

	"rstore/internal/partition"
	"rstore/internal/workload"
)

// Shape regression tests: the qualitative shape each regenerated artifact's
// PaperNote reports from the paper is asserted here, so a change that
// silently breaks a paper-shape property fails CI. They run at a small scale
// chosen to keep the suite fast while preserving the shapes.

func shapeOpts() Options {
	return Options{VersionFrac: 0.01, RecordFrac: 0.01, SizeFrac: 0.1, Queries: 6, Seed: 42}
}

func cellInt(t *testing.T, cell string) int {
	t.Helper()
	v, err := strconv.Atoi(cell)
	if err != nil {
		t.Fatalf("bad integer cell %q", cell)
	}
	return v
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad float cell %q", cell)
	}
	return v
}

// TestShapeFig8 asserts the per-dataset ordering claims: BOTTOM-UP beats
// DELTA and BREADTHFIRST never beats DEPTHFIRST.
func TestShapeFig8(t *testing.T) {
	tables, err := RunFig8(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		for _, row := range tab.Rows {
			ds := row[0]
			bu := cellInt(t, row[1])
			dfs := cellInt(t, row[3])
			bfs := cellInt(t, row[4])
			delta := cellInt(t, row[5])
			if bu > delta {
				t.Errorf("%s: BOTTOM-UP %d worse than DELTA %d", ds, bu, delta)
			}
			if bfs < dfs {
				t.Errorf("%s: BREADTHFIRST %d beats DEPTHFIRST %d", ds, bfs, dfs)
			}
		}
	}
}

// TestShapeFig9 asserts span decreases (weakly) as β grows.
func TestShapeFig9(t *testing.T) {
	tables, err := RunFig9(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	prev := 1 << 62
	for _, row := range rows {
		q1 := cellInt(t, row[1])
		if q1 > prev {
			t.Fatalf("β=%s: Q1 span %d increased over smaller β's %d", row[0], q1, prev)
		}
		prev = q1
	}
	// The spread must be visible: β=5 strictly worse than unlimited.
	first := cellInt(t, rows[0][1])
	last := cellInt(t, rows[len(rows)-1][1])
	if first <= last {
		t.Fatalf("β sweep flat: %d vs %d", first, last)
	}
}

// TestShapeFig10 asserts, for each dataset/P_d panel, that the compression
// ratio is non-decreasing in k, and that at fixed k the BOTTOM-UP span does
// not increase as P_d shrinks (factor 2 strengthens).
func TestShapeFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 shape test is slow")
	}
	tables, err := RunFig10(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Group panels per dataset: pd10, pd5, pd1 in order.
	byDataset := map[string][]*Table{}
	order := []string{}
	for _, tab := range tables {
		ds := tab.ID[6:8] // fig10-XX-pdN
		if _, ok := byDataset[ds]; !ok {
			order = append(order, ds)
		}
		byDataset[ds] = append(byDataset[ds], tab)
	}
	for _, ds := range order {
		panels := byDataset[ds]
		if len(panels) != 3 {
			t.Fatalf("%s: %d panels", ds, len(panels))
		}
		for _, tab := range panels {
			prev := 0.0
			for _, row := range tab.Rows {
				ratio := cellFloat(t, row[1])
				if ratio+1e-9 < prev {
					t.Errorf("%s: compression ratio decreased with k: %v", tab.ID, tab.Rows)
					break
				}
				prev = ratio
			}
		}
		// Span at the largest k: pd10 ≥ pd5 ≥ pd1 (within 2% tolerance for
		// packing noise).
		spanAtMaxK := func(tab *Table) int {
			return cellInt(t, tab.Rows[len(tab.Rows)-1][2])
		}
		s10, s5, s1 := spanAtMaxK(panels[0]), spanAtMaxK(panels[1]), spanAtMaxK(panels[2])
		if float64(s5) > float64(s10)*1.02 || float64(s1) > float64(s5)*1.02 {
			t.Errorf("%s: span at max k not improving with P_d: %d, %d, %d", ds, s10, s5, s1)
		}
	}
}

// TestShapeFig13 asserts the largest batch is never worse than the smallest
// at the final checkpoint.
func TestShapeFig13(t *testing.T) {
	tables, err := RunFig13(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		rows := tab.Rows
		if len(rows) < 2 {
			t.Fatalf("%s: %d rows", tab.ID, len(rows))
		}
		last := len(rows[0]) - 1
		smallest := cellFloat(t, rows[0][last])
		largest := cellFloat(t, rows[len(rows)-1][last])
		if largest > smallest+1e-9 {
			t.Errorf("%s: largest batch ratio %.3f worse than smallest %.3f",
				tab.ID, largest, smallest)
		}
	}
}

// TestShapeReplication asserts a higher rf does not slow queries down.
func TestShapeReplication(t *testing.T) {
	tables, err := RunAblationReplication(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	q1 := func(row []string) float64 {
		return cellFloat(t, row[1][:len(row[1])-2]) // strip "ms"
	}
	base := q1(rows[0])           // rf=1
	best := q1(rows[len(rows)-1]) // rf=3
	if best > base*1.05 {
		t.Errorf("replication slowed Q1: %.3f → %.3f ms", base, best)
	}
}

// TestShapeTreeSpanBaseline is the baseline the next partitioner change
// starts from, on the one shape no BENCHMARK.json workload reads versions
// from: benchmark/'s dataset L — a 200-version tree, 6 % updates — at a tenth
// of its records and a tenth of the 1 MiB default chunk. Today DEPTHFIRST
// reads a version of this tree from fewer chunks than BOTTOM-UP (12.30 in 66
// chunks against 16.54 in 72 here; 12.35 in 66 against 16.89 in 72 at full
// scale),
// the reverse of the paper's Fig 8. Both spans are logged; BOTTOM-UP's must
// not get worse than it is.
func TestShapeTreeSpanBaseline(t *testing.T) {
	const versions, bottomUpToday = 200, 3307
	c, err := workload.Generate(workload.Spec{
		Name: "L/10", Versions: versions, AvgDepth: 20, RecordsPerVersion: 2000,
		UpdatePct: 0.06, RecordSize: 256, Seed: 2018,
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := partition.NewInputFromCorpus(c, (1<<20)/10)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, algo := range []partition.Algorithm{partition.BottomUp{}, partition.DepthFirst{}} {
		a, err := algo.Partition(in)
		if err != nil {
			t.Fatal(err)
		}
		spans[algo.Name()] = partition.TotalSpan(in, a)
		t.Logf("%s: %d chunks, total version span %d, %.2f chunks per version", algo.Name(), len(a.Chunks), spans[algo.Name()], float64(spans[algo.Name()])/versions)
	}
	if got := spans[partition.BottomUp{}.Name()]; got > bottomUpToday {
		t.Errorf("BOTTOM-UP total version span %d, was %d", got, bottomUpToday)
	}
}
