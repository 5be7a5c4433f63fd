package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Snapshot is the machine-readable record of one experiment run, written
// as BENCH_<exp>.json so future PRs extend a tracked perf trajectory
// instead of quoting anecdotes. It carries the workload parameters
// alongside the rendered tables and each table's key numbers
// (Table.Metrics), so a snapshot is comparable without re-deriving context
// from prose.
type Snapshot struct {
	Experiment  string          `json:"experiment"`
	VersionFrac float64         `json:"version_frac"`
	RecordFrac  float64         `json:"record_frac"`
	SizeFrac    float64         `json:"size_frac"`
	Queries     int             `json:"queries"`
	Seed        int64           `json:"seed"`
	ElapsedSec  float64         `json:"elapsed_sec"`
	Tables      []SnapshotTable `json:"tables"`
}

// SnapshotTable is one rendered artifact plus its machine-readable metrics.
type SnapshotTable struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Headers []string           `json:"headers"`
	Rows    [][]string         `json:"rows"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// NewSnapshot assembles the snapshot for one completed experiment.
func NewSnapshot(expID string, o Options, elapsed time.Duration, tables []*Table) Snapshot {
	o = o.withDefaults()
	s := Snapshot{
		Experiment:  expID,
		VersionFrac: o.VersionFrac,
		RecordFrac:  o.RecordFrac,
		SizeFrac:    o.SizeFrac,
		Queries:     o.Queries,
		Seed:        o.Seed,
		ElapsedSec:  elapsed.Seconds(),
	}
	for _, t := range tables {
		s.Tables = append(s.Tables, SnapshotTable{
			ID: t.ID, Title: t.Title, Headers: t.Headers, Rows: t.Rows, Metrics: t.Metrics,
		})
	}
	return s
}

// WriteFile writes the snapshot as indented JSON (trailing newline, so the
// checked-in artifact diffs cleanly).
func (s Snapshot) WriteFile(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: snapshot %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
