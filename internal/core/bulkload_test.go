package core

import (
	"context"
	"errors"
	"testing"

	"rstore/internal/corpus"
	"rstore/internal/types"
	"rstore/internal/vgraph"
	"rstore/internal/workload"
)

func TestBulkLoadAndQueries(t *testing.T) {
	c, err := workload.Generate(workload.Spec{
		Name: "bulk", Versions: 20, AvgDepth: 6, RecordsPerVersion: 40,
		UpdatePct: 0.2, Update: workload.RandomUpdate, RecordSize: 96, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(context.Background(), Config{ChunkCapacity: 2048, SubChunkK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if s.PendingVersions() != 0 {
		t.Fatalf("%d pending after bulk load", s.PendingVersions())
	}
	if s.ChunkStorageBytes(context.Background()) <= 0 {
		t.Fatal("no chunk storage")
	}
	for v := 0; v < c.NumVersions(); v++ {
		vv := types.VersionID(v)
		want, err := c.Members(vv)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := s.GetVersionAll(context.Background(), vv)
		if err != nil {
			t.Fatalf("GetVersion(%d): %v", v, err)
		}
		if len(recs) != len(want) {
			t.Fatalf("v%d: %d records, want %d", v, len(recs), len(want))
		}
		if s.VersionSpan(vv) == 0 {
			t.Fatalf("v%d: zero span", v)
		}
	}
	// Span accessors line up with the projection totals.
	if s.TotalVersionSpan() <= 0 || s.KeySpan(c.Keys()[0]) == 0 {
		t.Fatal("span accessors")
	}
	// Bulk load twice is rejected.
	if err := s.BulkLoad(context.Background(), c); err == nil {
		t.Fatal("second bulk load accepted")
	}
}

func TestCommitDeltaValidation(t *testing.T) {
	s, err := Open(context.Background(), Config{ChunkCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Root via delta.
	root := &types.Delta{Adds: []types.Record{
		{CK: types.CompositeKey{Key: "a", Version: 0}, Value: []byte("a0")},
	}}
	v0, err := s.CommitDelta(context.Background(), []types.VersionID{types.InvalidVersion}, root)
	if err != nil || v0 != 0 {
		t.Fatalf("root: %v %v", v0, err)
	}
	// Fresh add with wrong origin version is rejected.
	bad := &types.Delta{Adds: []types.Record{
		{CK: types.CompositeKey{Key: "b", Version: 99}, Value: []byte("b")},
	}}
	if _, err := s.CommitDelta(context.Background(), []types.VersionID{v0}, bad); err == nil {
		t.Fatal("wrong-origin add accepted")
	}
	// Proper child delta.
	good := &types.Delta{
		Adds: []types.Record{{CK: types.CompositeKey{Key: "a", Version: 1}, Value: []byte("a1")}},
		Dels: []types.CompositeKey{{Key: "a", Version: 0}},
	}
	v1, err := s.CommitDelta(context.Background(), []types.VersionID{v0}, good)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, _, err := s.GetRecord(context.Background(), "a", v1)
	if err != nil || string(rec.Value) != "a1" {
		t.Fatalf("after delta commit: %q %v", rec.Value, err)
	}
	// Empty parents rejected.
	if _, err := s.CommitDelta(context.Background(), nil, &types.Delta{}); err == nil {
		t.Fatal("no-parent delta accepted")
	}
	// A pending sibling of v1 that adds b: v1 holds a@1 (placed), v2 holds
	// a@0 and b@2.
	v2, err := s.CommitDelta(context.Background(), []types.VersionID{v0}, &types.Delta{Adds: []types.Record{
		{CK: types.CompositeKey{Key: "b", Version: 2}, Value: []byte("b2")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Deltas their primary parent contradicts, each refused before it is
	// written: the graph and the next id stay as they were.
	ck := func(k types.Key, v types.VersionID) types.CompositeKey { return types.CompositeKey{Key: k, Version: v} }
	add := func(k types.Key, v types.VersionID) types.Record { return types.Record{CK: ck(k, v), Value: []byte(k)} }
	for _, c := range []struct {
		name   string
		parent types.VersionID
		delta  *types.Delta
	}{
		{"add over a held key", v0, &types.Delta{Adds: []types.Record{add("a", 3)}}},
		{"delete of a sibling's record", v1, &types.Delta{Dels: []types.CompositeKey{ck("b", 2)}}},
		{"delete of a record the key no longer holds", v1, &types.Delta{Dels: []types.CompositeKey{ck("a", 0)}, Adds: []types.Record{add("a", 3)}}},
		{"second delete of a key", v2, &types.Delta{Dels: []types.CompositeKey{ck("a", 0), ck("a", 0)}}},
		{"two adds of a key", v2, &types.Delta{Dels: []types.CompositeKey{ck("a", 0)}, Adds: []types.Record{add("a", 3), add("a", 1)}}},
		{"re-add of a record the parent holds", v2, &types.Delta{Adds: []types.Record{add("a", 0)}}},
	} {
		if _, err := s.CommitDelta(context.Background(), []types.VersionID{c.parent}, c.delta); !errors.Is(err, types.ErrInconsistentDelta) {
			t.Errorf("%s: err = %v, want ErrInconsistentDelta", c.name, err)
		}
		if n := s.NumVersions(); n != 3 {
			t.Fatalf("%s: refused delta left %d versions, want 3", c.name, n)
		}
	}
	// A delta that swaps a's record back to the parent's sibling's is merge
	// traffic, and the next id is still 3.
	v3, err := s.CommitDelta(context.Background(), []types.VersionID{v2, v1}, &types.Delta{
		Dels: []types.CompositeKey{ck("a", 0)}, Adds: []types.Record{add("a", 1)},
	})
	if err != nil || v3 != 3 {
		t.Fatalf("merge delta: %v %v", v3, err)
	}
	rec, _, err = s.GetRecord(context.Background(), "a", v3)
	if err != nil || string(rec.Value) != "a1" {
		t.Fatalf("merged a: %q %v", rec.Value, err)
	}
	if err := s.corpus.Validate(); err != nil {
		t.Fatal(err)
	}
	// KV accessor exposed for stats.
	if s.KV() == nil {
		t.Fatal("KV() nil")
	}
	if len(s.Branches()) == 0 {
		t.Fatal("no branches")
	}
}

// TestBulkLoadRefusesInvalidCorpus: a corpus whose v2 deletes a record only
// its sibling v1 holds and so keeps two records of a is refused before any
// write, and the store takes a valid corpus afterwards.
func TestBulkLoadRefusesInvalidCorpus(t *testing.T) {
	g := vgraph.New()
	v0, _ := g.AddRoot()
	g.AddVersion(v0)
	g.AddVersion(v0)
	c := corpus.New(g)
	rec := func(v types.VersionID) types.Record {
		return types.Record{CK: types.CompositeKey{Key: "a", Version: v}, Value: []byte{byte(v)}}
	}
	for v, d := range []*types.Delta{
		{Adds: []types.Record{rec(0)}},
		{Adds: []types.Record{rec(1)}, Dels: []types.CompositeKey{rec(0).CK}},
		{Adds: []types.Record{rec(2)}, Dels: []types.CompositeKey{rec(1).CK}},
	} {
		if err := c.AddVersionDelta(types.VersionID(v), d); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(context.Background(), Config{ChunkCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad(context.Background(), c); err == nil {
		t.Fatal("bulk load adopted a corpus whose v2 holds two records of a")
	}
	if s.NumVersions() != 0 || s.NumChunks() != 0 {
		t.Fatalf("refused bulk load left %d versions, %d chunks", s.NumVersions(), s.NumChunks())
	}
	good, err := workload.Generate(workload.Spec{
		Name: "bulk", Versions: 4, AvgDepth: 2, RecordsPerVersion: 10,
		UpdatePct: 0.2, Update: workload.RandomUpdate, RecordSize: 32, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad(context.Background(), good); err != nil {
		t.Fatalf("bulk load after a refused one: %v", err)
	}
}

// TestFailedCommitLeavesNoTrace: a rejected commit must not grow the graph
// or desynchronize it from the corpus (regression for the pre-validation
// ordering bug).
func TestFailedCommitLeavesNoTrace(t *testing.T) {
	s, err := Open(context.Background(), Config{ChunkCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := s.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{"a": []byte("0")}})
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumVersions()

	// Three distinct rejection paths.
	if _, err := s.Commit(context.Background(), v0, Change{Deletes: []types.Key{"missing"}}); err == nil {
		t.Fatal("delete of missing key accepted")
	}
	if _, err := s.Commit(context.Background(), v0, Change{
		Puts: map[types.Key][]byte{"a": []byte("1")}, Deletes: []types.Key{"a"},
	}); err == nil {
		t.Fatal("put+delete accepted")
	}
	if _, err := s.CommitDelta(context.Background(), []types.VersionID{v0}, &types.Delta{
		Adds: []types.Record{{CK: types.CompositeKey{Key: "x", Version: 77}}},
	}); err == nil {
		t.Fatal("wrong-origin delta accepted")
	}

	if s.NumVersions() != before {
		t.Fatalf("failed commits grew the graph: %d → %d", before, s.NumVersions())
	}
	// The store remains fully functional: the next id is consecutive.
	v1, err := s.Commit(context.Background(), v0, Change{Puts: map[types.Key][]byte{"a": []byte("1")}})
	if err != nil {
		t.Fatal(err)
	}
	if int(v1) != before {
		t.Fatalf("version id after failures: %d, want %d", v1, before)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, _, err := s.GetRecord(context.Background(), "a", v1)
	if err != nil || string(rec.Value) != "1" {
		t.Fatalf("store unusable after failed commits: %q %v", rec.Value, err)
	}
}
