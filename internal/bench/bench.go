// Package bench regenerates every table and figure of the paper's
// evaluation (§2.3, §5, Table 1–2, Fig 8–13) as printable tables. Each
// experiment runs on proportionally scaled datasets (DESIGN.md §1) and
// reports the same rows/series as the paper; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package bench

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync/atomic"

	"rstore/internal/core"
	"rstore/internal/engine/remote"
	"rstore/internal/kvstore"
)

// Options controls experiment scale and the storage substrate the
// experiment clusters run on.  Zero scale fields take Quick() values.
type Options struct {
	// VersionFrac and RecordFrac scale dataset versions / records per
	// version relative to the paper's Table 2 parameters.
	VersionFrac float64
	// RecordFrac scales records per version.
	RecordFrac float64
	// SizeFrac scales record payload size.
	SizeFrac float64
	// Queries is the per-experiment query sample size.
	Queries int
	// Seed drives all generators.
	Seed int64

	// Engine overrides the storage backend every experiment cluster runs
	// on: kvstore.EngineMemory (the default — allocation-exact, what the
	// calibrated cost model assumes), kvstore.EngineLSM (each cluster gets a
	// fresh subdirectory of DataDir), or kvstore.EngineRemote (the cluster
	// runs on the rstore-node daemons in NodeAddrs — the address list fixes
	// the node count, overriding each experiment's nominal topology). Every cluster
	// a run opens wipes the daemons first through the wire protocol's
	// reset op, so one running daemon set serves a whole run and each
	// cluster still starts clean.
	Engine string
	// DataDir hosts per-cluster data directories when Engine is
	// kvstore.EngineLSM.
	DataDir string
	// NodeAddrs lists rstore-node addresses when Engine is
	// kvstore.EngineRemote.
	NodeAddrs []string
}

// clusterSeq hands each disk-backed experiment cluster a fresh directory:
// a data directory is single-cluster (LOCK, GEOMETRY pinning).
var clusterSeq atomic.Int64

// substrate resolves the engine override into (engine, data directory,
// node addresses) — the single source of truth for both helpers below.
// Empty engine means the experiment's nominal in-memory cluster stands.
func (o Options) substrate() (eng, dir string, addrs []string) {
	switch o.Engine {
	case "", kvstore.EngineMemory:
		return "", "", nil
	case kvstore.EngineRemote:
		return kvstore.EngineRemote, "", o.NodeAddrs
	default:
		// lsm and any future disk-backed engine: fresh directory per
		// cluster.
		return o.Engine, filepath.Join(o.DataDir, fmt.Sprintf("cluster-%03d", clusterSeq.Add(1))), nil
	}
}

// OpenCluster opens an experiment cluster of the nominal shape cfg on the
// backend Options selects.
func (o Options) OpenCluster(cfg kvstore.Config) (*kvstore.Store, error) {
	eng, dir, addrs := o.substrate()
	if eng != "" {
		cfg.Engine, cfg.Dir, cfg.NodeAddrs = eng, dir, addrs
		if eng == kvstore.EngineRemote {
			cfg.Nodes = 0 // the address list is the cluster shape
			if err := resetDaemons(addrs); err != nil {
				return nil, err
			}
		}
	}
	return kvstore.Open(context.Background(), cfg)
}

// OpenStore opens a store over a fresh one-node cluster (or, on remote,
// the daemons) of the backend Options selects. The store does not own the
// cluster: the caller closes both.
func (o Options) OpenStore(cfg core.Config) (*core.Store, *kvstore.Store, error) {
	kv, err := o.OpenCluster(kvstore.Config{Cost: kvstore.DefaultCostModel()})
	if err != nil {
		return nil, nil, err
	}
	cfg.KV = kv
	st, err := core.Open(context.Background(), cfg)
	if err != nil {
		kv.Close()
		return nil, nil, err
	}
	return st, kv, nil
}

// resetDaemons wipes every remote daemon through the wire reset op so the
// cluster about to open starts clean — data, geometry pins, and parked
// hints from the previous experiment cluster all go. Raw engine clients
// are used on purpose: a kvstore.Store cannot open until the stale pins
// are gone.
func resetDaemons(addrs []string) error {
	ctx := context.Background()
	for _, a := range addrs {
		c, err := remote.Dial(a, remote.Options{})
		if err != nil {
			return fmt.Errorf("bench: reset daemon %s: %w", a, err)
		}
		err = c.Reset(ctx)
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("bench: reset daemon %s: %w", a, err)
		}
	}
	return nil
}

// Quick returns the fast-iteration scale used by `go test -bench` defaults:
// a few seconds per experiment.
func Quick() Options {
	return Options{VersionFrac: 0.02, RecordFrac: 0.02, SizeFrac: 0.125, Queries: 10, Seed: 42}
}

// Full returns a heavier scale for standalone runs of cmd/rstore-bench.
func Full() Options {
	return Options{VersionFrac: 0.08, RecordFrac: 0.05, SizeFrac: 0.25, Queries: 25, Seed: 42}
}

func (o Options) withDefaults() Options {
	q := Quick()
	if o.VersionFrac <= 0 {
		o.VersionFrac = q.VersionFrac
	}
	if o.RecordFrac <= 0 {
		o.RecordFrac = q.RecordFrac
	}
	if o.SizeFrac <= 0 {
		o.SizeFrac = q.SizeFrac
	}
	if o.Queries <= 0 {
		o.Queries = q.Queries
	}
	if o.Seed == 0 {
		o.Seed = q.Seed
	}
	return o
}

// Table is one regenerated paper artifact.
type Table struct {
	// ID is the experiment id (e.g. "fig8a").
	ID string
	// Title describes the artifact.
	Title string
	// PaperNote summarizes what the paper reported, for shape comparison.
	PaperNote string
	Headers   []string
	Rows      [][]string
	// Metrics holds the table's key numbers in machine-readable form for
	// the BENCH_<exp>.json snapshots (see snapshot.go); nil when the
	// rendered rows are the whole story.
	Metrics map[string]float64
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.PaperNote != "" {
		fmt.Fprintf(w, "   paper: %s\n", t.PaperNote)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	printRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered paper artifact generator.
type Experiment struct {
	ID          string
	Description string
	Run         func(Options) ([]*Table, error)
}

// Experiments lists every reproducible artifact in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "analytical cost model: storage/version/point costs per layout (Table 1)", RunTable1},
		{"table-chunksize", "version reconstruction time vs chunk size (§2.3 table)", RunChunkSize},
		{"table2", "dataset catalog statistics (Table 2)", RunTable2},
		{"fig8", "total version span by partitioning algorithm (Fig 8)", RunFig8},
		{"fig9", "effect of subtree bound β on Bottom-Up (Fig 9)", RunFig9},
		{"fig10", "span and compression ratio vs sub-chunk size k (Fig 10)", RunFig10},
		{"fig11", "query latency vs sub-chunk size, all layouts (Fig 11)", RunFig11},
		{"fig12", "weak scalability across cluster sizes (Fig 12)", RunFig12},
		{"fig13", "online partitioning quality vs batch size (Fig 13)", RunFig13},
		{"ablation-merge", "ablation: Bottom-Up partial-chunk merging on/off", RunAblationMerge},
		{"ablation-shingles", "ablation: shingle vector length sweep", RunAblationShingles},
		{"ablation-slack", "ablation: chunk slack allowance sweep", RunAblationSlack},
		{"ablation-replication", "extension: replication (paper future work)", RunAblationReplication},
		{"repair", "extension: replication repair — hinted handoff + read repair convergence\n(always in-process: takes memory nodes down)", RunRepair},
		{"antientropy", "extension: merkle-tree anti-entropy — clean-sweep cost and convergence\ntime for a 1%-diverged replica on lsm nodes (always in-process:\ndivergence injection needs the backend handles)", RunAntiEntropy},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string   { return fmt.Sprintf("%.1f", v) }
func d(v int) string        { return fmt.Sprintf("%d", v) }
func secs(v float64) string { return fmt.Sprintf("%.3fs", v) }

// mb renders bytes as MB with two decimals.
func mb(v int64) string { return fmt.Sprintf("%.2fMB", float64(v)/(1<<20)) }
