package bench

import (
	"context"

	"fmt"

	"rstore/internal/core"
	"rstore/internal/corpus"
	"rstore/internal/kvstore"
	"rstore/internal/types"
	"rstore/internal/vgraph"
	"rstore/internal/workload"
)

// RunFig13 regenerates Fig 13: online partitioning quality. A dataset's
// versions are replayed through the engine's online path (CommitDelta +
// batched flushes, §4) at several batch sizes; at each checkpoint the total
// version span is divided by the span an offline BOTTOM-UP run achieves on
// the same prefix. Ratios near 1 mean the batched online algorithm loses
// little quality; smaller batches pay more.
//
// B1 and C1 are the paper's panels (trees). A2 — a chain, 5 % random update —
// is the shape of the whole-stack benchmark's ingest workload, where a
// version's survivors are spread over every older batch: its batch sizes go
// down to n/32 so that several batches lie between a checkpoint and the
// records it still reads, and it keeps at least 64 versions at any scale
// (the catalog's 300 scale to 6 at the quick one, too few to batch).
func RunFig13(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	var tables []*Table
	for _, ds := range []struct {
		name        string
		minVersions int
		batchDivs   []int
	}{
		{"B1", 0, []int{8, 4, 2}},
		{"C1", 0, []int{8, 4, 2}},
		{"A2", 64, []int{32, 8, 2}},
	} {
		spec, err := workload.SpecByName(ds.name)
		if err != nil {
			return nil, err
		}
		spec = spec.Scaled(opts.VersionFrac, opts.RecordFrac, opts.SizeFrac)
		spec.Versions = max(spec.Versions, ds.minVersions)
		spec.Seed = opts.Seed
		c, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		n := c.NumVersions()
		capacity := chunkCapacityFor(spec)
		checkpoints := []int{n / 4, n / 2, 3 * n / 4, n}
		batches := make([]int, len(ds.batchDivs))
		for i, div := range ds.batchDivs {
			batches[i] = n / div
		}

		// Offline reference spans per checkpoint.
		offline := make(map[int]int, len(checkpoints))
		for _, cp := range checkpoints {
			prefix, err := prefixCorpus(c, cp)
			if err != nil {
				return nil, err
			}
			st, kv, err := openStore(core.Config{ChunkCapacity: capacity})
			if err != nil {
				return nil, err
			}
			err = st.BulkLoad(context.Background(), prefix)
			offline[cp] = st.TotalVersionSpan()
			st.Close()
			kv.Close()
			if err != nil {
				return nil, err
			}
		}

		t := &Table{
			ID:    "fig13-" + ds.name,
			Title: fmt.Sprintf("online partitioning quality ratio (dataset %s, n=%d)", ds.name, n),
			PaperNote: "B1: ratios 1.00–1.63, improving with batch size; C1: 1.00–1.08 " +
				"(deep trees tolerate batching); quality degrades at later checkpoints for small batches",
			// The raw totals behind the two-decimal ratios: spans are
			// deterministic, so a snapshot diff shows any move.
			Metrics: map[string]float64{},
			Headers: append([]string{"batch size"}, func() []string {
				h := make([]string, len(checkpoints))
				for i, cp := range checkpoints {
					h[i] = fmt.Sprintf("@%d", cp)
				}
				return h
			}()...),
		}

		for _, batch := range batches {
			if batch < 1 {
				batch = 1
			}
			st, kv, err := openStore(core.Config{ChunkCapacity: capacity, BatchSize: batch})
			if err != nil {
				return nil, err
			}
			row, err := onlineRow(st, c, batch, checkpoints, offline, t.Metrics)
			st.Close()
			kv.Close()
			if err != nil {
				return nil, fmt.Errorf("fig13: %s batch=%d: %w", ds.name, batch, err)
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// onlineRow replays c through st's online path and returns one table row:
// the batch size, then at each checkpoint the online span over the offline
// one. It records both spans in metrics.
func onlineRow(st *core.Store, c *corpus.Corpus, batch int, checkpoints []int, offline map[int]int, metrics map[string]float64) ([]string, error) {
	row := []string{d(batch)}
	next := 0
	for v := 0; v < c.NumVersions(); v++ {
		vv := types.VersionID(v)
		delta := deltaOf(c, vv)
		parents := []types.VersionID{types.InvalidVersion}
		if v != 0 {
			parents = append([]types.VersionID(nil), c.Graph().Parents(vv)...)
		}
		if _, err := st.CommitDelta(context.Background(), parents, delta); err != nil {
			return nil, fmt.Errorf("v=%d: %w", v, err)
		}
		if next < len(checkpoints) && v+1 == checkpoints[next] {
			if err := st.Flush(context.Background()); err != nil {
				return nil, err
			}
			span, cp := st.TotalVersionSpan(), checkpoints[next]
			metrics[fmt.Sprintf("online_span_batch%d_at%d", batch, cp)] = float64(span)
			metrics[fmt.Sprintf("offline_span_at%d", cp)] = float64(offline[cp])
			row = append(row, f2(float64(span)/float64(offline[cp])))
			next++
		}
	}
	return row, nil
}

// deltaOf rebuilds a version's delta (with payloads) from the corpus.
func deltaOf(c *corpus.Corpus, v types.VersionID) *types.Delta {
	d := &types.Delta{}
	for _, id := range c.Adds(v) {
		d.Adds = append(d.Adds, c.Record(id))
	}
	for _, id := range c.Dels(v) {
		d.Dels = append(d.Dels, c.Record(id).CK)
	}
	return d
}

// prefixCorpus rebuilds a corpus containing only the first n versions (the
// generated graphs are prefix-closed: parents precede children).
func prefixCorpus(c *corpus.Corpus, n int) (*corpus.Corpus, error) {
	g := vgraph.New()
	out := corpus.New(g)
	for v := 0; v < n; v++ {
		vv := types.VersionID(v)
		var err error
		if v == 0 {
			_, err = g.AddRoot()
		} else {
			_, err = g.AddVersion(c.Graph().Parents(vv)...)
		}
		if err != nil {
			return nil, err
		}
		if err := out.AddVersionDelta(vv, deltaOf(c, vv)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// openStore opens a store over a fresh in-process cluster. The store does
// not own the cluster: the caller closes both.
func openStore(cfg core.Config) (*core.Store, *kvstore.Store, error) {
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Cost: kvstore.DefaultCostModel()})
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
