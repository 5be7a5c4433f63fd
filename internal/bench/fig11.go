package bench

import (
	"context"
	"fmt"
	"time"

	"rstore/internal/baseline"
	"rstore/internal/core"
	"rstore/internal/kvstore"
	"rstore/internal/partition"
	"rstore/internal/workload"
)

// RunFig11 regenerates Fig 11: end-to-end query latencies (simulated under
// the calibrated cost model) for Q1 (full version), Q2 (partial version) and
// Q3 (record evolution) as the max sub-chunk size k varies, on datasets A0
// and C0, comparing BOTTOM-UP, DEPTHFIRST and SHINGLE; DELTA runs at k=1
// only (it cannot compress across versions) and SUBCHUNK is reported once
// per dataset as the caption reference.
func RunFig11(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	ks := []int{1, 2, 5, 12, 25}
	var tables []*Table

	for _, dsName := range []string{"A0", "C0"} {
		spec, err := workload.SpecByName(dsName)
		if err != nil {
			return nil, err
		}
		spec = spec.Scaled(opts.VersionFrac, opts.RecordFrac, opts.SizeFrac)
		spec.Pd = 0.05
		spec.Seed = opts.Seed
		c, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		capacity := chunkCapacityFor(spec)
		w := workload.NewWorkload(c, opts.Seed+3)
		q1 := w.FullVersionQueries(opts.Queries)
		q2 := w.PartialVersionQueries(opts.Queries, 0.10)
		q3 := w.RecordEvolutionQueries(opts.Queries)

		// SUBCHUNK reference (caption values in the paper).
		sc := &baseline.Subchunk{KV: mustKV(4)}
		if err := sc.Build(c); err != nil {
			return nil, err
		}
		scQ1 := runQueries(sc.KV, sc, q1)
		scQ2 := runQueries(sc.KV, sc, q2)
		scQ3 := runQueries(sc.KV, sc, q3)

		// DELTA at k=1.
		dl := &baseline.Delta{KV: mustKV(4), Capacity: capacity}
		if err := dl.Build(c); err != nil {
			return nil, err
		}
		dlQ1 := runQueries(dl.KV, dl, q1)
		dlQ2 := runQueries(dl.KV, dl, q2)
		dlQ3 := runQueries(dl.KV, dl, q3)

		for qi, queries := range [][]workload.Query{q1, q2, q3} {
			t := &Table{
				ID:    fmt.Sprintf("fig11-%s-q%d", dsName, qi+1),
				Title: fmt.Sprintf("Q%d latency vs sub-chunk size k (dataset %s)", qi+1, dsName),
				PaperNote: "BOTTOM-UP fastest for Q1/Q2; Q3 improves with larger k for all; DELTA slowest " +
					"(Q2 worse than Q1: reconstruct then filter); SUBCHUNK worst for Q1/Q2, best for Q3",
				Headers: []string{"k", "BOTTOM-UP", "DEPTHFIRST", "SHINGLE", "DELTA (k=1)", "SUBCHUNK (ref)"},
			}
			var dlT, scT time.Duration
			switch qi {
			case 0:
				dlT, scT = dlQ1, scQ1
			case 1:
				dlT, scT = dlQ2, scQ2
			default:
				dlT, scT = dlQ3, scQ3
			}
			for _, k := range ks {
				row := []string{d(k)}
				for _, mk := range []func() partition.Algorithm{
					func() partition.Algorithm { return partition.BottomUp{} },
					func() partition.Algorithm { return partition.DepthFirst{} },
					func() partition.Algorithm { return partition.Shingle{Seed: opts.Seed} },
				} {
					kv := mustKV(4)
					st, err := core.Open(context.Background(), core.Config{
						KV: kv, Partitioner: mk(), ChunkCapacity: capacity, SubChunkK: k,
					})
					if err != nil {
						return nil, err
					}
					eng := &baseline.Chunked{Store: st}
					if err := eng.Build(c); err != nil {
						return nil, fmt.Errorf("fig11: %s k=%d: %w", dsName, k, err)
					}
					row = append(row, fmtDur(runQueries(kv, eng, queries)))
				}
				if k == 1 {
					row = append(row, fmtDur(dlT))
				} else {
					row = append(row, "-")
				}
				row = append(row, fmtDur(scT))
				t.AddRow(row...)
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// runQueries executes a query list on an engine over cluster kv and returns
// the average modeled latency: the change in kv's clock across the list.
// Queries run one at a time, and only they price reads on kv (repair, hint
// replay and anti-entropy read unpriced), so the change is exactly theirs. A
// query that fails is timed for what it read; its error is not reported.
func runQueries(kv *kvstore.Store, e baseline.Engine, queries []workload.Query) time.Duration {
	if len(queries) == 0 {
		return 0
	}
	start := kv.Stats(context.Background()).SimElapsed
	for _, q := range queries {
		switch q.Kind {
		case workload.FullVersion:
			e.GetVersion(q.Version)
		case workload.PartialVersion:
			e.GetRange(q.LoKey, q.HiKey, q.Version)
		case workload.RecordEvolution:
			e.GetHistory(q.Key)
		case workload.PointRecord:
			e.GetRecord(q.Key, q.Version)
		}
	}
	total := kv.Stats(context.Background()).SimElapsed - start
	return total / time.Duration(len(queries))
}

func fmtDur(v time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(v.Microseconds())/1000)
}

func mustKV(nodes int) *kvstore.Store {
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: nodes, Cost: kvstore.DefaultCostModel()})
	if err != nil {
		panic(err) // Open only fails on invalid config; nodes is fixed here
	}
	return kv
}
