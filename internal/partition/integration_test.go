package partition_test

import (
	"testing"

	"rstore/internal/bitset"
	"rstore/internal/chunk"
	"rstore/internal/corpus"
	"rstore/internal/partition"
	"rstore/internal/subchunk"
	"rstore/internal/types"
	"rstore/internal/workload"
)

// genDataset builds a small deterministic dataset for integration tests.
func genDataset(t testing.TB, name string, versions, records int, depth float64, pct float64, upd workload.UpdateType) *corpus.Corpus {
	t.Helper()
	c, err := workload.Generate(workload.Spec{
		Name: name, Versions: versions, AvgDepth: depth,
		RecordsPerVersion: records, UpdatePct: pct, Update: upd,
		RecordSize: 128, Seed: 7,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("corpus validate: %v", err)
	}
	return c
}

func algorithms() []partition.Algorithm {
	return []partition.Algorithm{
		partition.BottomUp{},
		partition.BottomUp{Beta: 8},
		partition.Shingle{Seed: 11},
		partition.DepthFirst{},
		partition.BreadthFirst{},
	}
}

// TestAlgorithmsProduceCompleteAssignments checks the core invariant: every
// algorithm assigns every item to exactly one chunk.
func TestAlgorithmsProduceCompleteAssignments(t *testing.T) {
	for _, shape := range []struct {
		name  string
		depth float64
	}{
		{"chain", 0},
		{"branchy", 12},
	} {
		c := genDataset(t, shape.name, 60, 150, shape.depth, 0.10, workload.RandomUpdate)
		in, err := partition.NewInputFromCorpus(c, 4096)
		if err != nil {
			t.Fatalf("%s: input: %v", shape.name, err)
		}
		for _, algo := range algorithms() {
			a, err := algo.Partition(in)
			if err != nil {
				t.Fatalf("%s/%s: %v", shape.name, algo.Name(), err)
			}
			seen := make([]bool, len(in.Items))
			for _, ch := range a.Chunks {
				if len(ch) == 0 {
					t.Errorf("%s/%s: empty chunk", shape.name, algo.Name())
				}
				for _, it := range ch {
					if seen[it] {
						t.Fatalf("%s/%s: item %d in two chunks", shape.name, algo.Name(), it)
					}
					seen[it] = true
				}
			}
			for i, s := range seen {
				if !s {
					t.Fatalf("%s/%s: item %d unassigned", shape.name, algo.Name(), i)
				}
			}
		}
	}
}

// TestChunkSizesRespectSlack checks the fixed-chunk-size rule of §2.5: no
// chunk exceeds C·(1+slack) unless it holds a single oversized item.
func TestChunkSizesRespectSlack(t *testing.T) {
	c := genDataset(t, "sizes", 40, 120, 8, 0.15, workload.RandomUpdate)
	in, err := partition.NewInputFromCorpus(c, 2048)
	if err != nil {
		t.Fatal(err)
	}
	hard := int(float64(in.Capacity) * (1 + partition.DefaultSlack))
	for _, algo := range algorithms() {
		a, err := algo.Partition(in)
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		for ci, ch := range a.Chunks {
			size := 0
			for _, it := range ch {
				size += in.Items[it].PackedSize()
			}
			if size > hard && len(ch) > 1 {
				t.Errorf("%s: chunk %d size %d exceeds hard cap %d with %d items",
					algo.Name(), ci, size, hard, len(ch))
			}
		}
	}
}

// layOut materializes an assignment the way the engine does: every chunk
// through chunk.Code and Layout.AddChunk, then every version placed in id
// order. It returns each chunk's records as its segment values decode, in
// slot order.
func layOut(t *testing.T, c *corpus.Corpus, items []chunk.Item, chunks [][]uint32) (*chunk.Layout, [][]types.Record) {
	t.Helper()
	lay := chunk.NewLayout(c)
	stored := make([][]types.Record, len(chunks))
	for i, idxs := range chunks {
		coded, err := chunk.Code(items, idxs)
		if err == nil {
			_, err = lay.AddChunk(coded)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, value := range coded.Values {
			first, _, recs, err := chunk.DecodeSegment(value, nil)
			if err != nil || int(first) != len(stored[i]) {
				t.Fatalf("chunk %d: segment at slot %d after %d records: %v", i, first, len(stored[i]), err)
			}
			stored[i] = append(stored[i], recs...)
		}
	}
	for v := types.VersionID(0); int(v) < c.NumVersions(); v++ {
		if err := lay.PlaceVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	return lay, stored
}

// TestBuildAndExtractVersions builds physical chunks for each algorithm and
// verifies that every version can be reconstructed exactly from chunks +
// chunk maps, matching the corpus's ground truth.
func TestBuildAndExtractVersions(t *testing.T) {
	c := genDataset(t, "extract", 30, 80, 6, 0.20, workload.SkewedUpdate)
	in, err := partition.NewInputFromCorpus(c, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range algorithms() {
		a, err := algo.Partition(in)
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		lay, stored := layOut(t, c, in.Items, a.Chunks)

		for v := types.VersionID(0); int(v) < c.NumVersions(); v++ {
			want, err := c.Members(v)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[types.CompositeKey][]byte)
			for _, cid := range lay.VersionChunks(v) {
				recs := stored[cid]
				slots := lay.Map(cid).SlotsOf(v)
				if slots == nil {
					t.Fatalf("%s: chunk %d in projection of v%d but no map entry", algo.Name(), cid, v)
				}
				slots.ForEach(func(s uint32) bool {
					got[recs[s].CK] = recs[s].Value
					return true
				})
			}
			if len(got) != len(want) {
				t.Fatalf("%s: v%d: got %d records, want %d", algo.Name(), v, len(got), len(want))
			}
			for _, id := range want {
				r := c.Record(id)
				val, ok := got[r.CK]
				if !ok {
					t.Fatalf("%s: v%d missing record %v", algo.Name(), v, r.CK)
				}
				if string(val) != string(r.Value) {
					t.Fatalf("%s: v%d record %v payload mismatch", algo.Name(), v, r.CK)
				}
			}
		}
	}
}

// TestSubchunkRoundTrip verifies the k>1 pipeline: grouping, compression,
// transformed-tree partitioning, physical build, and exact reconstruction.
func TestSubchunkRoundTrip(t *testing.T) {
	c, err := workload.Generate(workload.Spec{
		Name: "sub", Versions: 40, AvgDepth: 10, RecordsPerVersion: 60,
		UpdatePct: 0.25, Update: workload.RandomUpdate,
		RecordSize: 256, Pd: 0.05, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 5, 12} {
		res, err := subchunk.Build(c, k, 4096)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Every record appears in exactly one item, groups within bound.
		counts := make([]int, c.NumRecords())
		for _, it := range res.In.Items {
			if len(it.Members) > k && k > 1 {
				t.Errorf("k=%d: item with %d members", k, len(it.Members))
			}
			for _, m := range it.Members {
				counts[m]++
			}
		}
		for id, n := range counts {
			if n != 1 {
				t.Fatalf("k=%d: record %d in %d items", k, id, n)
			}
		}
		if k > 1 && res.CompressionRatio() < 1.0 {
			t.Errorf("k=%d: compression ratio %.2f < 1", k, res.CompressionRatio())
		}

		a, err := partition.BottomUp{}.Partition(res.In)
		if err != nil {
			t.Fatalf("k=%d: partition: %v", k, err)
		}
		lay, stored := layOut(t, c, res.In.Items, a.Chunks)

		// Spot-check a few versions end to end.
		for _, v := range []types.VersionID{0, types.VersionID(c.NumVersions() / 2), types.VersionID(c.NumVersions() - 1)} {
			want, err := c.Members(v)
			if err != nil {
				t.Fatal(err)
			}
			gotSet := make(map[types.CompositeKey]string)
			for _, cid := range lay.VersionChunks(v) {
				recs := stored[cid]
				slots := lay.Map(cid).SlotsOf(v)
				if slots == nil {
					continue
				}
				slots.ForEach(func(s uint32) bool {
					gotSet[recs[s].CK] = string(recs[s].Value)
					return true
				})
			}
			if len(gotSet) != len(want) {
				t.Fatalf("k=%d v%d: got %d records want %d", k, v, len(gotSet), len(want))
			}
			for _, id := range want {
				r := c.Record(id)
				if gotSet[r.CK] != string(r.Value) {
					t.Fatalf("k=%d v%d: record %v mismatch", k, v, r.CK)
				}
			}
		}
	}
}

// TestBottomUpBeatsBaselineOrderings reproduces the headline comparison in
// miniature: on a branchy dataset, BottomUp's total span should not lose to
// BreadthFirst (the weakest tree traversal per Fig 8).
func TestBottomUpBeatsBaselineOrderings(t *testing.T) {
	c := genDataset(t, "quality", 120, 200, 15, 0.10, workload.RandomUpdate)
	in, err := partition.NewInputFromCorpus(c, 4096)
	if err != nil {
		t.Fatal(err)
	}
	span := func(algo partition.Algorithm) int {
		a, err := algo.Partition(in)
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		return partition.TotalSpan(in, a)
	}
	bu := span(partition.BottomUp{})
	bfs := span(partition.BreadthFirst{})
	if bu > bfs {
		t.Errorf("BottomUp span %d worse than BreadthFirst %d", bu, bfs)
	}
}

// TestForEachVersionItemsMatchesMembers cross-validates the apply/undo item
// walk against direct materialization.
func TestForEachVersionItemsMatchesMembers(t *testing.T) {
	c := genDataset(t, "walk", 25, 50, 5, 0.2, workload.RandomUpdate)
	in, err := partition.NewInputFromCorpus(c, 1024)
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.DepthFirst{}.Partition(in)
	if err != nil {
		t.Fatal(err)
	}
	spans := partition.ChunkSpan(in, a)
	chunkOf := a.ChunkOf(len(in.Items))
	for v := 0; v < c.NumVersions(); v++ {
		members, err := c.Members(types.VersionID(v))
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint32]struct{})
		for _, id := range members {
			want[chunkOf[id]] = struct{}{}
		}
		if spans[v] != len(want) {
			t.Fatalf("v%d: span %d, want %d", v, spans[v], len(want))
		}
	}
	_ = bitset.New(1) // keep import for potential debugging helpers
}
