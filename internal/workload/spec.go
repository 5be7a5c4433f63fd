// Package workload generates the synthetic versioned datasets of paper §5.1
// and the query workloads of §5.4: a version graph grown with the method of
// [4], a base version of JSON records, and per-version updates that modify,
// delete, and insert records under a random or skewed (Zipf) key-selection
// distribution, with the per-update byte-change bound P_d of §5.3.
package workload

import (
	"fmt"

	"rstore/internal/types"
)

// UpdateType selects how update targets are drawn from the live key set.
type UpdateType int

const (
	// RandomUpdate picks uniformly random keys.
	RandomUpdate UpdateType = iota
	// SkewedUpdate picks Zipf-distributed keys (hot keys updated often).
	SkewedUpdate
)

func (u UpdateType) String() string {
	if u == SkewedUpdate {
		return "Skewed"
	}
	return "Random"
}

// Spec describes one dataset, mirroring a Table 2 row.
type Spec struct {
	// Name is the Table 2 dataset label.
	Name string
	// Versions is the number of versions including the root.
	Versions int
	// AvgDepth is the target average leaf depth of the version tree;
	// 0 or ≥ Versions produces a linear chain.
	AvgDepth float64
	// RecordsPerVersion is the (approximately constant) version size m_v.
	RecordsPerVersion int
	// UpdatePct is the fraction of a version's records changed per commit
	// (Table 2's "%update", as a fraction).
	UpdatePct float64
	// Update selects random vs skewed target keys.
	Update UpdateType
	// RecordSize is the approximate JSON payload size in bytes.
	RecordSize int
	// Pd bounds the byte-change fraction of a modified record (§5.3);
	// 0 means unbounded (full rewrite).
	Pd float64
	// DeleteFrac and InsertFrac are the shares of the per-version update
	// budget spent on deletions and insertions (the rest are
	// modifications). Defaults are 5% each.
	DeleteFrac, InsertFrac float64
	// MergeProb adds merge commits (exercises the DAG→tree conversion);
	// the paper's evaluation datasets are merge-free.
	MergeProb float64
	// Seed makes the dataset deterministic.
	Seed int64
}

func (s Spec) withDefaults() Spec {
	if s.RecordSize <= 0 {
		s.RecordSize = 1024
	}
	if s.DeleteFrac <= 0 {
		s.DeleteFrac = 0.05
	}
	if s.InsertFrac <= 0 {
		s.InsertFrac = 0.05
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	return s
}

// Scaled returns a proportionally shrunk copy: versionFrac scales the
// version count, recordFrac the records per version, sizeFrac the record
// size. Scaling preserves the relative quantities the paper's figures
// report (spans, ratios, crossovers) while keeping laptop-scale runtimes;
// see DESIGN.md §1.
func (s Spec) Scaled(versionFrac, recordFrac, sizeFrac float64) Spec {
	out := s
	out.Versions = scaleInt(s.Versions, versionFrac, 3)
	if s.AvgDepth > 0 {
		out.AvgDepth = s.AvgDepth * versionFrac
		if out.AvgDepth < 2 {
			out.AvgDepth = 2
		}
	}
	out.RecordsPerVersion = scaleInt(s.RecordsPerVersion, recordFrac, 8)
	out.RecordSize = scaleInt(s.RecordSize, sizeFrac, 64)
	return out
}

func scaleInt(v int, f float64, min int) int {
	out := int(float64(v) * f)
	if out < min {
		out = min
	}
	return out
}

// String summarizes the spec.
func (s Spec) String() string {
	return fmt.Sprintf("%s{n=%d depth=%.0f m=%d upd=%.0f%% %s}",
		s.Name, s.Versions, s.AvgDepth, s.RecordsPerVersion, s.UpdatePct*100, s.Update)
}

// Catalog returns the Table 2 dataset catalog with the paper's parameters.
// Callers scale them with Spec.Scaled for laptop-sized runs.
func Catalog() []Spec {
	return []Spec{
		{Name: "A0", Versions: 300, AvgDepth: 0, RecordsPerVersion: 100000, UpdatePct: 0.50, Update: RandomUpdate},
		{Name: "A1", Versions: 300, AvgDepth: 0, RecordsPerVersion: 100000, UpdatePct: 0.05, Update: SkewedUpdate},
		{Name: "A2", Versions: 300, AvgDepth: 0, RecordsPerVersion: 100000, UpdatePct: 0.05, Update: RandomUpdate},
		{Name: "B0", Versions: 1001, AvgDepth: 293.5, RecordsPerVersion: 100000, UpdatePct: 0.05, Update: SkewedUpdate},
		{Name: "B1", Versions: 1001, AvgDepth: 293.5, RecordsPerVersion: 100000, UpdatePct: 0.05, Update: RandomUpdate},
		{Name: "B2", Versions: 1001, AvgDepth: 293.5, RecordsPerVersion: 100000, UpdatePct: 0.10, Update: RandomUpdate},
		{Name: "C0", Versions: 10001, AvgDepth: 143, RecordsPerVersion: 20000, UpdatePct: 0.10, Update: RandomUpdate},
		{Name: "C1", Versions: 10001, AvgDepth: 143, RecordsPerVersion: 20000, UpdatePct: 0.01, Update: RandomUpdate},
		{Name: "C2", Versions: 10001, AvgDepth: 143, RecordsPerVersion: 20000, UpdatePct: 0.05, Update: SkewedUpdate},
		{Name: "D0", Versions: 10002, AvgDepth: 94.4, RecordsPerVersion: 20000, UpdatePct: 0.10, Update: RandomUpdate},
		{Name: "D1", Versions: 10002, AvgDepth: 94.4, RecordsPerVersion: 20000, UpdatePct: 0.01, Update: RandomUpdate},
		{Name: "D2", Versions: 10002, AvgDepth: 94.4, RecordsPerVersion: 20000, UpdatePct: 0.05, Update: SkewedUpdate},
		{Name: "E", Versions: 10001, AvgDepth: 170, RecordsPerVersion: 20000, UpdatePct: 0.10, Update: RandomUpdate, RecordSize: 4928},
		{Name: "F", Versions: 1001, AvgDepth: 56, RecordsPerVersion: 100000, UpdatePct: 0.20, Update: RandomUpdate, RecordSize: 4928},
	}
}

// SpecByName finds a catalog entry.
func SpecByName(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: no dataset %q in catalog", name)
}

// KeyFor renders the i-th auto-incremented primary key. Keys are
// fixed-width so lexicographic order matches numeric order, which makes
// range queries well-defined.
func KeyFor(i int) types.Key {
	return types.Key(fmt.Sprintf("k%08d", i))
}
