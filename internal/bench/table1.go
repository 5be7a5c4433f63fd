package bench

import (
	"context"
	"fmt"

	"rstore/internal/baseline"
	"rstore/internal/core"
	"rstore/internal/kvstore"
	"rstore/internal/types"
	"rstore/internal/workload"
)

// RunTable1 regenerates Table 1: the storage / random-version-retrieval /
// point-query costs of the four layouts on the table's model workload — a
// chain of n versions with m_v records each and update fraction d. The paper
// gives closed-form expressions; we report both the closed form and the
// measured values from the actual layout implementations.
func RunTable1(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	n := scaled(100, opts.VersionFrac*5, 16) // chain length
	mv := scaled(2000, opts.RecordFrac, 64)  // records per version
	dFrac := 0.05                            // update fraction
	s := scaled(1024, opts.SizeFrac, 64)     // record size

	c, err := workload.Generate(workload.Spec{
		Name: "T1", Versions: n, AvgDepth: 0, RecordsPerVersion: mv,
		UpdatePct: dFrac, Update: workload.RandomUpdate, RecordSize: s,
		DeleteFrac: 0.001, InsertFrac: 0.001, // Table 1's model is pure modification
		Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "table1",
		Title: fmt.Sprintf("layout cost comparison (chain n=%d, m_v=%d, d=%.2f, s=%dB)", n, mv, dFrac, s),
		PaperNote: "chunking: storage≈uniques (RStore's segments store values as run lists against their first, " +
			"so its measured storage is below the unique bytes; the baselines store values raw), " +
			"version=(m_v·s, m_v·s/s_c), point=(s_c, 1); " +
			"DELTA: version/point walk half the chain; SUBCHUNK: version reads all groups, point=1; " +
			"SINGLE: m_v queries per version, no compression",
		Headers: []string{"layout", "storage", "version: data", "version: #queries", "point: data", "point: #queries"},
	}

	newKV := func() (*kvstore.Store, error) {
		return kvstore.Open(context.Background(), kvstore.Config{Nodes: 4, Cost: kvstore.DefaultCostModel()})
	}
	chunkCap := 64 * (s + types.RecordOverhead) // s_c = 64 records

	engines := make([]baseline.Engine, 0, 4)
	kv, err := newKV()
	if err != nil {
		return nil, err
	}
	st, err := core.Open(context.Background(), core.Config{KV: kv, ChunkCapacity: chunkCap})
	if err != nil {
		return nil, err
	}
	engines = append(engines, &baseline.Chunked{Store: st, Label: "Chunked (RStore)"})
	for _, mk := range []func(*kvstore.Store) baseline.Engine{
		func(kv *kvstore.Store) baseline.Engine { return &baseline.Delta{KV: kv, Capacity: chunkCap} },
		func(kv *kvstore.Store) baseline.Engine { return &baseline.Subchunk{KV: kv} },
		func(kv *kvstore.Store) baseline.Engine { return &baseline.Single{KV: kv} },
	} {
		kv, err := newKV()
		if err != nil {
			return nil, err
		}
		engines = append(engines, mk(kv))
	}

	w := workload.NewWorkload(c, opts.Seed+1)
	vq := w.FullVersionQueries(opts.Queries)
	pq := w.PointQueries(opts.Queries)

	for _, e := range engines {
		if err := e.Build(c); err != nil {
			return nil, fmt.Errorf("table1: %s: %w", e.Name(), err)
		}
		var vBytes, pBytes int64
		var vReqs, pReqs int
		for _, q := range vq {
			_, st, err := e.GetVersion(q.Version)
			if err != nil {
				return nil, fmt.Errorf("table1: %s: %w", e.Name(), err)
			}
			vBytes += st.BytesRead
			vReqs += st.Requests
		}
		for _, q := range pq {
			_, st, err := e.GetRecord(q.Key, q.Version)
			if err != nil {
				return nil, fmt.Errorf("table1: %s: point %s@%d: %w", e.Name(), q.Key, q.Version, err)
			}
			pBytes += st.BytesRead
			pReqs += st.Requests
		}
		nq := float64(len(vq))
		np := float64(len(pq))
		t.AddRow(e.Name(),
			mb(e.StorageBytes()),
			mb(int64(float64(vBytes)/nq)),
			f1(float64(vReqs)/nq),
			fmt.Sprintf("%.1fKB", float64(pBytes)/np/1024),
			f1(float64(pReqs)/np),
		)
	}
	return []*Table{t}, nil
}

// scaled applies a fraction with a floor.
func scaled(v int, frac float64, min int) int {
	out := int(float64(v) * frac)
	if out < min {
		out = min
	}
	return out
}
