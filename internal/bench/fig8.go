package bench

import (
	"context"
	"fmt"

	"rstore/internal/baseline"
	"rstore/internal/corpus"
	"rstore/internal/kvstore"
	"rstore/internal/partition"
	"rstore/internal/types"
	"rstore/internal/workload"
)

// fig8Algorithms are the partitioners compared in Fig 8, paper order.
func fig8Algorithms(seed int64) []partition.Algorithm {
	return []partition.Algorithm{
		partition.BottomUp{},
		partition.Shingle{Seed: seed},
		partition.DepthFirst{},
		partition.BreadthFirst{},
	}
}

// chunkCapacityFor picks a chunk capacity preserving the paper's regime
// (1MB chunks ≈ 1000 records out of 20K–100K per version): roughly m'/32
// records per chunk so spans stay in the tens-to-hundreds.
func chunkCapacityFor(spec workload.Spec) int {
	perChunk := spec.RecordsPerVersion / 32
	if perChunk < 8 {
		perChunk = 8
	}
	return perChunk * (spec.RecordSize + types.RecordOverhead)
}

// RunFig8 regenerates Fig 8: total version span (number of chunks retrieved
// to reconstruct every version) for BOTTOM-UP, SHINGLE, DEPTHFIRST,
// BREADTHFIRST and the DELTA baseline across the catalog datasets.
func RunFig8(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	panels := [][]string{
		{"A0", "A1", "A2", "B0", "B1", "B2"},
		{"C0", "C1", "C2", "D0", "D1", "D2"},
	}
	var tables []*Table
	for pi, names := range panels {
		t := &Table{
			ID:    fmt.Sprintf("fig8%c", 'a'+pi),
			Title: "total version span without compression (k=1)",
			PaperNote: "BOTTOM-UP uniformly best; beats DELTA up to 8.21× (3.56× avg); SHINGLE degrades " +
				"as trees get shallower, DEPTHFIRST improves; BREADTHFIRST never beats DEPTHFIRST",
			Headers: []string{"dataset", "BOTTOM-UP", "SHINGLE", "DEPTHFIRST", "BREADTHFIRST", "DELTA"},
		}
		for _, name := range names {
			spec, err := workload.SpecByName(name)
			if err != nil {
				return nil, err
			}
			spec = spec.Scaled(opts.VersionFrac, opts.RecordFrac, opts.SizeFrac)
			spec.Seed = opts.Seed
			c, err := workload.Generate(spec)
			if err != nil {
				return nil, fmt.Errorf("fig8: %s: %w", name, err)
			}
			capacity := chunkCapacityFor(spec)
			in, err := partition.NewInputFromCorpus(c, capacity)
			if err != nil {
				return nil, err
			}
			row := []string{name}
			for _, algo := range fig8Algorithms(opts.Seed) {
				a, err := algo.Partition(in)
				if err != nil {
					return nil, fmt.Errorf("fig8: %s/%s: %w", name, algo.Name(), err)
				}
				row = append(row, d(partition.TotalSpan(in, a)))
			}
			row = append(row, d(deltaSpan(c, capacity)))
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// deltaSpan computes the DELTA baseline's total version span without
// issuing queries.
func deltaSpan(c *corpus.Corpus, capacity int) int {
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1})
	if err != nil {
		return -1
	}
	dl := &baseline.Delta{KV: kv, Capacity: capacity}
	if err := dl.Build(c); err != nil {
		return -1
	}
	return dl.TotalVersionSpan()
}
