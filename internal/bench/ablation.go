package bench

import (
	"context"

	"fmt"

	"rstore/internal/baseline"
	"rstore/internal/core"
	"rstore/internal/kvstore"
	"rstore/internal/partition"
	"rstore/internal/subchunk"
	"rstore/internal/workload"
)

// The ablation experiments isolate design decisions of the paper's
// partitioning and storage: the Bottom-Up partial-chunk merge, the shingle
// vector length, the chunk slack allowance, and replication — the last
// being the paper's explicitly named future-work item ("explore the effect
// of replication as it reduces the cost of version reconstruction").

// RunAblationMerge compares Bottom-Up with and without end-of-run partial
// merging: merging trades a few extra spans for markedly fewer chunks
// (storage fragmentation).
func RunAblationMerge(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:        "ablation-merge",
		Title:     "Bottom-Up partial-chunk merging (§3.2 'merged at the end to reduce fragmentation')",
		PaperNote: "design choice: fragmentation (chunk count) vs span",
		Headers:   []string{"dataset", "merge", "#chunks", "total span"},
	}
	for _, dsName := range []string{"B1", "C0"} {
		spec, err := workload.SpecByName(dsName)
		if err != nil {
			return nil, err
		}
		spec = spec.Scaled(opts.VersionFrac, opts.RecordFrac, opts.SizeFrac)
		spec.Seed = opts.Seed
		c, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		in, err := partition.NewInputFromCorpus(c, chunkCapacityFor(spec))
		if err != nil {
			return nil, err
		}
		for _, noMerge := range []bool{false, true} {
			a, err := partition.BottomUp{NoPartialMerge: noMerge}.Partition(in)
			if err != nil {
				return nil, err
			}
			label := "on"
			if noMerge {
				label = "off"
			}
			t.AddRow(dsName, label, d(a.NumChunks()), d(partition.TotalSpan(in, a)))
		}
	}
	return []*Table{t}, nil
}

// RunAblationShingles sweeps the min-hash vector length l (Algorithm 1):
// longer vectors sharpen similarity ordering at linear extra cost.
func RunAblationShingles(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	spec, err := workload.SpecByName("C0")
	if err != nil {
		return nil, err
	}
	spec = spec.Scaled(opts.VersionFrac, opts.RecordFrac, opts.SizeFrac)
	spec.Seed = opts.Seed
	c, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	in, err := partition.NewInputFromCorpus(c, chunkCapacityFor(spec))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:        "ablation-shingles",
		Title:     "shingle vector length l (dataset C0)",
		PaperNote: "l is 'a small constant' in the §3.1 complexity analysis",
		Headers:   []string{"l", "total span"},
	}
	for _, l := range []int{1, 2, 4, 8, 16} {
		a, err := partition.Shingle{L: l, Seed: opts.Seed}.Partition(in)
		if err != nil {
			return nil, err
		}
		t.AddRow(d(l), d(partition.TotalSpan(in, a)))
	}
	return []*Table{t}, nil
}

// RunAblationSlack sweeps the chunk overfill allowance of §2.5 ("variations
// of upto 25% allowed"). The knob binds when item sizes are comparable to
// the chunk capacity — i.e. with variable-sized sub-chunks of large records
// — so the sweep runs on a k=6 compressed instance.
func RunAblationSlack(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	spec, err := workload.SpecByName("B1")
	if err != nil {
		return nil, err
	}
	spec = spec.Scaled(opts.VersionFrac, opts.RecordFrac, opts.SizeFrac)
	if spec.RecordSize < 1024 {
		spec.RecordSize = 1024
	}
	spec.Pd = 0.10
	spec.Seed = opts.Seed
	c, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	// Capacity of ~4 raw records: sub-chunks of up to 6 compressed records
	// straddle chunk boundaries, so the slack rule decides placements.
	capacity := 4 * (spec.RecordSize + 16)
	res, err := subchunk.Build(c, 6, capacity)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:        "ablation-slack",
		Title:     "chunk slack allowance (dataset B1, k=6 sub-chunks, Bottom-Up)",
		PaperNote: "§2.5 fixes 25%; chunks 'rarely more than 5-10% overfull' in practice",
		Headers:   []string{"slack", "#chunks", "overfull", "total span"},
	}
	for _, slack := range []float64{0.05, 0.10, 0.25, 0.50} {
		in := *res.In
		in.Slack = slack
		a, err := partition.BottomUp{}.Partition(&in)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f%%", slack*100), d(a.NumChunks()), d(a.Overfull),
			d(partition.TotalSpan(&in, a)))
	}
	return []*Table{t}, nil
}

// RunAblationReplication measures the paper's future-work item: what each
// extra replica costs in storage, and what it does to a version retrieval's
// simulated latency.
func RunAblationReplication(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	spec := workload.Spec{
		Name: "repl", Versions: scaled(400, opts.VersionFrac*5, 24),
		AvgDepth:          60 * opts.VersionFrac * 5,
		RecordsPerVersion: scaled(20000, opts.RecordFrac, 64),
		UpdatePct:         0.10, Update: workload.RandomUpdate,
		RecordSize: scaled(1024, opts.SizeFrac, 64), Seed: opts.Seed,
	}
	t := &Table{
		ID:        "ablation-replication",
		Title:     "replication (8 nodes), Q1 latency",
		PaperNote: "paper conclusion: replication 'reduces the cost of version reconstruction but increases the cost of storing'",
		Headers:   []string{"rf", "Q1 avg", "stored bytes"},
	}
	for _, rf := range []int{1, 2, 3} {
		kv, err := kvstore.Open(context.Background(), kvstore.Config{
			Nodes: 8, ReplicationFactor: rf,
			Cost: kvstore.DefaultCostModel(),
		})
		if err != nil {
			return nil, err
		}
		st, err := core.Open(context.Background(), core.Config{KV: kv, ChunkCapacity: chunkCapacityFor(spec)})
		if err != nil {
			return nil, err
		}
		eng := &baseline.Chunked{Store: st}
		// A fresh corpus per cluster: BulkLoad takes ownership of it.
		c, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		if err := eng.Build(c); err != nil {
			return nil, err
		}
		w := workload.NewWorkload(c, opts.Seed+9)
		q1 := w.FullVersionQueries(opts.Queries)
		t.AddRow(d(rf), fmtDur(runQueries(kv, eng, q1)), mb(kv.Stats(context.Background()).BytesStored))
	}
	return []*Table{t}, nil
}
