package bench

import (
	"context"
	"fmt"

	"rstore/internal/baseline"
	"rstore/internal/core"
	"rstore/internal/kvstore"
	"rstore/internal/workload"
)

// RunFig12 regenerates Fig 12: weak scalability. Cluster size doubles from
// 1 to 16 nodes while the dataset doubles with it (more versions); the
// reported metrics are Q1 (full version retrieval) latency with the average
// version span, and Q3 (record evolution) latency with the average key span.
// The paper observes good weak scalability: latency grows slowly, driven by
// span growth, not node count.
func RunFig12(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	nodeCounts := []int{1, 2, 4, 8, 12, 16}

	var tables []*Table
	for _, ds := range []struct {
		name              string
		baseVersions      int
		recordsPerVersion int
		depthFrac         float64
	}{
		{"G", 80, 400, 0.25},
		{"H", 32, 800, 0.4},
	} {
		t := &Table{
			ID:    "fig12-" + ds.name,
			Title: fmt.Sprintf("weak scaling, dataset %s (versions double with nodes)", ds.name),
			PaperNote: "G: Q1 7.35→11.39s, span 508→702; Q3 0.35→0.48s, key span 21→34. " +
				"H: Q1 61.8→78.9s, span 400→595; Q3 0.98→3.05s. Latency tracks span, not node count",
			Headers: []string{"#nodes", "#versions", "Q1 avg", "avg version span", "Q3 avg", "avg key span"},
		}
		for _, nodes := range nodeCounts {
			versions := scaled(ds.baseVersions*nodes, opts.VersionFrac*25, 16)
			recs := scaled(ds.recordsPerVersion, opts.RecordFrac*25, 64)
			spec := workload.Spec{
				Name: ds.name, Versions: versions,
				AvgDepth:          float64(versions) * ds.depthFrac,
				RecordsPerVersion: recs, UpdatePct: 0.10,
				Update:     workload.RandomUpdate,
				RecordSize: scaled(1024, opts.SizeFrac, 64), Seed: opts.Seed,
			}
			c, err := workload.Generate(spec)
			if err != nil {
				return nil, fmt.Errorf("fig12: %s/%d: %w", ds.name, nodes, err)
			}
			kv, err := kvstore.Open(context.Background(), kvstore.Config{
				Nodes: nodes, ReplicationFactor: min(2, nodes), Cost: kvstore.DefaultCostModel(),
			})
			if err != nil {
				return nil, err
			}
			st, err := core.Open(context.Background(), core.Config{KV: kv, ChunkCapacity: chunkCapacityFor(spec)})
			if err != nil {
				return nil, err
			}
			eng := &baseline.Chunked{Store: st}
			if err := eng.Build(c); err != nil {
				return nil, fmt.Errorf("fig12: %s/%d: %w", ds.name, nodes, err)
			}

			w := workload.NewWorkload(c, opts.Seed+int64(nodes))
			q1 := w.FullVersionQueries(opts.Queries)
			q3 := w.RecordEvolutionQueries(opts.Queries)

			var spanSum, keySpanSum int
			for _, q := range q1 {
				spanSum += st.VersionSpan(q.Version)
			}
			for _, q := range q3 {
				keySpanSum += st.KeySpan(q.Key)
			}
			t.AddRow(
				d(nodes), d(versions),
				fmtDur(runQueries(kv, eng, q1)),
				f1(float64(spanSum)/float64(len(q1))),
				fmtDur(runQueries(kv, eng, q3)),
				f1(float64(keySpanSum)/float64(len(q3))),
			)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
