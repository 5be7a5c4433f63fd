package baseline_test

import (
	"context"
	"errors"
	"testing"

	"rstore/internal/baseline"
	"rstore/internal/core"
	"rstore/internal/corpus"
	"rstore/internal/kvstore"
	"rstore/internal/types"
	"rstore/internal/workload"
)

func testCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	c, err := workload.Generate(workload.Spec{
		Name: "bl", Versions: 30, AvgDepth: 8, RecordsPerVersion: 50,
		UpdatePct: 0.2, Update: workload.RandomUpdate, RecordSize: 96, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func engines(t testing.TB) []baseline.Engine {
	t.Helper()
	newKV := func() *kvstore.Store {
		kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		return kv
	}
	st, err := core.Open(context.Background(), core.Config{KV: newKV(), ChunkCapacity: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return []baseline.Engine{
		&baseline.Delta{KV: newKV(), Capacity: 2048},
		&baseline.Subchunk{KV: newKV()},
		&baseline.Single{KV: newKV()},
		&baseline.Chunked{Store: st},
	}
}

// TestBaselinesAgreeWithGroundTruth verifies all four layouts return
// identical, corpus-accurate answers for all query kinds.
func TestBaselinesAgreeWithGroundTruth(t *testing.T) {
	c := testCorpus(t)
	for _, e := range engines(t) {
		if err := e.Build(c); err != nil {
			t.Fatalf("%s: build: %v", e.Name(), err)
		}
		// Q1 over all versions.
		for v := 0; v < c.NumVersions(); v++ {
			vv := types.VersionID(v)
			want, err := c.Members(vv)
			if err != nil {
				t.Fatal(err)
			}
			recs, stats, err := e.GetVersion(vv)
			if err != nil {
				t.Fatalf("%s: GetVersion(%d): %v", e.Name(), v, err)
			}
			if len(recs) != len(want) {
				t.Fatalf("%s: GetVersion(%d): %d records, want %d", e.Name(), v, len(recs), len(want))
			}
			if stats.Span == 0 {
				t.Fatalf("%s: GetVersion(%d): zero span", e.Name(), v)
			}
			byCK := make(map[types.CompositeKey]string, len(recs))
			for _, r := range recs {
				byCK[r.CK] = string(r.Value)
			}
			for _, id := range want {
				r := c.Record(id)
				if byCK[r.CK] != string(r.Value) {
					t.Fatalf("%s: GetVersion(%d): %v mismatch", e.Name(), v, r.CK)
				}
			}
		}

		// Point queries + range + history on sampled versions/keys.
		v := types.VersionID(c.NumVersions() - 1)
		members, _ := c.Members(v)
		live := make(map[types.Key]types.Record, len(members))
		for _, id := range members {
			r := c.Record(id)
			live[r.CK.Key] = r
		}
		probes := 0
		for k, want := range live {
			got, _, err := e.GetRecord(k, v)
			if err != nil {
				t.Fatalf("%s: GetRecord(%s, %d): %v", e.Name(), k, v, err)
			}
			if got.CK != want.CK {
				t.Fatalf("%s: GetRecord(%s, %d): got %v want %v", e.Name(), k, v, got.CK, want.CK)
			}
			probes++
			if probes >= 10 {
				break
			}
		}
		if _, _, err := e.GetRecord("zzz-missing", v); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("%s: GetRecord(missing): %v", e.Name(), err)
		}

		lo, hi := workload.KeyFor(5), workload.KeyFor(25)
		recs, _, err := e.GetRange(lo, hi, v)
		if err != nil {
			t.Fatalf("%s: GetRange: %v", e.Name(), err)
		}
		wantRange := 0
		for k := range live {
			if k >= lo && k < hi {
				wantRange++
			}
		}
		if len(recs) != wantRange {
			t.Fatalf("%s: GetRange: %d records, want %d", e.Name(), len(recs), wantRange)
		}

		key := workload.KeyFor(3)
		history, _, err := e.GetHistory(key)
		if err != nil {
			t.Fatalf("%s: GetHistory(%s): %v", e.Name(), key, err)
		}
		if len(history) != len(c.KeyRecords(key)) {
			t.Fatalf("%s: GetHistory(%s): %d records, want %d",
				e.Name(), key, len(history), len(c.KeyRecords(key)))
		}

		if e.StorageBytes() <= 0 {
			t.Fatalf("%s: no storage accounted", e.Name())
		}
		if e.TotalVersionSpan() <= 0 {
			t.Fatalf("%s: no span accounted", e.Name())
		}
	}
}

// TestSpanOrdering sanity-checks the paper's qualitative ordering on a
// branched dataset: RStore's span beats DELTA's, and SUBCHUNK's version span
// is the worst of all.
func TestSpanOrdering(t *testing.T) {
	c := testCorpus(t)
	es := engines(t)
	spans := make(map[string]int)
	for _, e := range es {
		if err := e.Build(c); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		spans[e.Name()] = e.TotalVersionSpan()
	}
	if spans["RSTORE"] >= spans["DELTA"] {
		t.Errorf("RSTORE span %d not better than DELTA %d", spans["RSTORE"], spans["DELTA"])
	}
	if spans["SUBCHUNK"] <= spans["RSTORE"] {
		t.Errorf("SUBCHUNK span %d should exceed RSTORE %d", spans["SUBCHUNK"], spans["RSTORE"])
	}
}
