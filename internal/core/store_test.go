package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rstore/internal/kvstore"
	"rstore/internal/partition"
	"rstore/internal/types"
)

// model is an in-test oracle: full version contents tracked naively.
type model struct {
	versions []map[types.Key]types.Record // per version: visible record per key
	parents  []types.VersionID
}

func newModel() *model { return &model{} }

func (m *model) commit(parent types.VersionID, ch Change, v types.VersionID) {
	var base map[types.Key]types.Record
	if parent == types.InvalidVersion {
		base = map[types.Key]types.Record{}
	} else {
		base = m.versions[parent]
	}
	next := make(map[types.Key]types.Record, len(base))
	for k, r := range base {
		next[k] = r
	}
	for k, val := range ch.Puts {
		next[k] = types.Record{CK: types.CompositeKey{Key: k, Version: v}, Value: val}
	}
	for _, k := range ch.Deletes {
		delete(next, k)
	}
	m.versions = append(m.versions, next)
	m.parents = append(m.parents, parent)
}

func (m *model) history(key types.Key) map[types.CompositeKey][]byte {
	out := make(map[types.CompositeKey][]byte)
	for _, ver := range m.versions {
		if r, ok := ver[key]; ok {
			out[r.CK] = r.Value
		}
	}
	return out
}

// buildStore commits a randomized branched history and returns store+oracle.
func buildStore(t *testing.T, cfg Config, versions, baseRecords int, seed int64) (*Store, *model) {
	t.Helper()
	s, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	m := newModel()

	root := Change{Puts: map[types.Key][]byte{}}
	for i := 0; i < baseRecords; i++ {
		root.Puts[key(i)] = payload(rng, i, 0)
	}
	v, err := s.Commit(context.Background(), types.InvalidVersion, root)
	if err != nil {
		t.Fatal(err)
	}
	m.commit(types.InvalidVersion, root, v)
	nextKey := baseRecords

	for i := 1; i < versions; i++ {
		parent := types.VersionID(rng.Intn(s.NumVersions()))
		ch := Change{Puts: map[types.Key][]byte{}}
		live := m.versions[parent]
		// Deterministic iteration (map range order would desynchronize
		// repeated builds with equal seeds).
		liveKeys := make([]types.Key, 0, len(live))
		for k := range live {
			liveKeys = append(liveKeys, k)
		}
		sort.Slice(liveKeys, func(a, b int) bool { return liveKeys[a] < liveKeys[b] })
		// A few modifications of live keys.
		for _, k := range liveKeys {
			if rng.Float64() < 0.15 {
				ch.Puts[k] = payload(rng, int(parent), i)
			}
			if len(ch.Puts) > baseRecords/4 {
				break
			}
		}
		// Occasionally delete a live key not being modified.
		for _, k := range liveKeys {
			if _, mod := ch.Puts[k]; !mod && rng.Float64() < 0.05 {
				ch.Deletes = append(ch.Deletes, k)
				break
			}
		}
		// Occasionally insert.
		if rng.Float64() < 0.5 {
			ch.Puts[key(nextKey)] = payload(rng, nextKey, i)
			nextKey++
		}
		v, err := s.Commit(context.Background(), parent, ch)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		m.commit(parent, ch, v)
	}
	return s, m
}

func key(i int) types.Key { return types.Key(fmt.Sprintf("k%05d", i)) }

func payload(rng *rand.Rand, a, b int) []byte {
	return []byte(fmt.Sprintf(`{"a":%d,"b":%d,"r":%d}`, a, b, rng.Int63()))
}

// checkAllVersions compares GetVersion against the oracle for every version.
func checkAllVersions(t *testing.T, s *Store, m *model) {
	t.Helper()
	for v := range m.versions {
		recs, _, err := s.GetVersionAll(context.Background(), types.VersionID(v))
		if err != nil {
			t.Fatalf("GetVersion(%d): %v", v, err)
		}
		want := m.versions[v]
		if len(recs) != len(want) {
			t.Fatalf("GetVersion(%d): %d records, want %d", v, len(recs), len(want))
		}
		for _, r := range recs {
			w, ok := want[r.CK.Key]
			if !ok {
				t.Fatalf("GetVersion(%d): unexpected key %s", v, r.CK.Key)
			}
			if w.CK != r.CK || string(w.Value) != string(r.Value) {
				t.Fatalf("GetVersion(%d): key %s mismatch: got %v want %v", v, r.CK.Key, r.CK, w.CK)
			}
		}
	}
}

func TestEngineMaterializeAndQueries(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			s, m := buildStore(t, Config{ChunkCapacity: 1024, SubChunkK: k}, 25, 40, 1)
			if err := s.Materialize(context.Background()); err != nil {
				t.Fatal(err)
			}
			checkAllVersions(t, s, m)
		})
	}
}

func TestEngineOnlineFlushQueries(t *testing.T) {
	s, m := buildStore(t, Config{ChunkCapacity: 1024, BatchSize: 5}, 23, 30, 2)
	// Some versions remain pending (23 % 5 != 0) — queries must still be
	// exact via the delta-store overlay.
	if s.PendingVersions() == 0 {
		t.Fatal("expected pending versions for overlay coverage")
	}
	checkAllVersions(t, s, m)
	// Flush the rest and re-verify.
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.PendingVersions() != 0 {
		t.Fatalf("still %d pending after flush", s.PendingVersions())
	}
	checkAllVersions(t, s, m)
}

func TestEnginePendingOnlyQueries(t *testing.T) {
	// No flush at all: everything served from the write store.
	s, m := buildStore(t, Config{ChunkCapacity: 1024}, 10, 20, 3)
	if s.PendingVersions() != 10 {
		t.Fatalf("want 10 pending, got %d", s.PendingVersions())
	}
	checkAllVersions(t, s, m)
}

func TestEngineGetRecord(t *testing.T) {
	s, m := buildStore(t, Config{ChunkCapacity: 512, BatchSize: 4}, 20, 25, 4)
	for v := range m.versions {
		for k, want := range m.versions[v] {
			got, _, err := s.GetRecord(context.Background(), k, types.VersionID(v))
			if err != nil {
				t.Fatalf("GetRecord(%s, %d): %v", k, v, err)
			}
			if got.CK != want.CK || string(got.Value) != string(want.Value) {
				t.Fatalf("GetRecord(%s, %d): got %v want %v", k, v, got.CK, want.CK)
			}
		}
		// A key absent from this version must return ErrNotFound.
		probe := key(99999)
		if _, _, err := s.GetRecord(context.Background(), probe, types.VersionID(v)); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("GetRecord(absent, %d): err = %v, want ErrNotFound", v, err)
		}
	}
}

func TestEngineGetRange(t *testing.T) {
	s, m := buildStore(t, Config{ChunkCapacity: 512, BatchSize: 6}, 18, 30, 5)
	lo, hi := key(5), key(15)
	for v := range m.versions {
		recs, _, err := s.GetRangeAll(context.Background(), KeyRange(lo, hi), types.VersionID(v))
		if err != nil {
			t.Fatalf("GetRange v%d: %v", v, err)
		}
		want := 0
		for k := range m.versions[v] {
			if k >= lo && k < hi {
				want++
			}
		}
		if len(recs) != want {
			t.Fatalf("GetRange v%d: %d records, want %d", v, len(recs), want)
		}
		for _, r := range recs {
			if r.CK.Key < lo || r.CK.Key >= hi {
				t.Fatalf("GetRange v%d: key %s outside range", v, r.CK.Key)
			}
			w := m.versions[v][r.CK.Key]
			if w.CK != r.CK {
				t.Fatalf("GetRange v%d: key %s got %v want %v", v, r.CK.Key, r.CK, w.CK)
			}
		}
	}
}

func TestEngineGetHistory(t *testing.T) {
	s, m := buildStore(t, Config{ChunkCapacity: 512, BatchSize: 7}, 20, 20, 6)
	for i := 0; i < 20; i++ {
		k := key(i)
		want := m.history(k)
		recs, _, err := s.GetHistoryAll(context.Background(), k)
		if len(want) == 0 {
			if !errors.Is(err, types.ErrNotFound) {
				t.Fatalf("GetHistory(%s): err = %v, want ErrNotFound", k, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("GetHistory(%s): %v", k, err)
		}
		if len(recs) != len(want) {
			t.Fatalf("GetHistory(%s): %d records, want %d", k, len(recs), len(want))
		}
		for _, r := range recs {
			if string(want[r.CK]) != string(r.Value) {
				t.Fatalf("GetHistory(%s): %v mismatch", k, r.CK)
			}
		}
	}
}

func TestEngineReload(t *testing.T) {
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 3, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{KV: kv, ChunkCapacity: 1024, BatchSize: 5}
	s, m := buildStore(t, cfg, 17, 25, 7)
	if err := s.SetBranch(context.Background(), "dev", 3); err != nil {
		t.Fatal(err)
	}
	// SetBranch persisted the root; the pending tail (17 versions, batches
	// of 5) is not in the placement log and replays from the delta store.

	re, err := Load(context.Background(), Config{KV: kv, ChunkCapacity: 1024, BatchSize: 5})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	checkAllVersions(t, re, m)
	if tip, err := re.Tip("dev"); err != nil || tip != 3 {
		t.Fatalf("reloaded branch dev = %v, %v", tip, err)
	}
	// The reloaded store must accept new commits and flushes.
	v, err := re.Commit(context.Background(), types.VersionID(0), Change{Puts: map[types.Key][]byte{key(0): []byte("post-reload")}})
	if err != nil {
		t.Fatal(err)
	}
	m.commit(0, Change{Puts: map[types.Key][]byte{key(0): []byte("post-reload")}}, v)
	if err := re.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkAllVersions(t, re, m)
}

func TestEngineCommitValidation(t *testing.T) {
	s, err := Open(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// First commit must target InvalidVersion.
	if _, err := s.Commit(context.Background(), 0, Change{}); err == nil {
		t.Fatal("commit to version 0 of empty store should fail")
	}
	v0, err := s.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{"a": []byte("1")}})
	if err != nil {
		t.Fatal(err)
	}
	// Second root forbidden.
	if _, err := s.Commit(context.Background(), types.InvalidVersion, Change{}); err == nil {
		t.Fatal("second root commit should fail")
	}
	// Deleting a missing key fails.
	if _, err := s.Commit(context.Background(), v0, Change{Deletes: []types.Key{"nope"}}); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("delete of missing key: %v", err)
	}
	// Put+Delete of the same key fails.
	if _, err := s.Commit(context.Background(), v0, Change{
		Puts:    map[types.Key][]byte{"a": []byte("2")},
		Deletes: []types.Key{"a"},
	}); err == nil {
		t.Fatal("put+delete same key should fail")
	}
	// Unknown version queries fail cleanly.
	if _, _, err := s.GetVersionAll(context.Background(), 99); !errors.Is(err, types.ErrVersionUnknown) {
		t.Fatalf("GetVersion(99): %v", err)
	}
}

// TestEnginePartitionerChoices runs every algorithm through both placement
// paths: online batches of four (larger than the 256 B capacity, so each is
// split into an open and a closed instance), then a full repartition.
func TestEnginePartitionerChoices(t *testing.T) {
	for _, algo := range []partition.Algorithm{
		partition.BottomUp{}, partition.Shingle{Seed: 3}, partition.DepthFirst{}, partition.BreadthFirst{},
	} {
		s, m := buildStore(t, Config{ChunkCapacity: 256, BatchSize: 4, Partitioner: algo}, 15, 25, 8)
		if err := s.Flush(context.Background()); err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		checkAllVersions(t, s, m)
		if err := s.Materialize(context.Background()); err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		checkAllVersions(t, s, m)
	}
}

func TestEngineMergeCommit(t *testing.T) {
	s, err := Open(context.Background(), Config{ChunkCapacity: 512})
	if err != nil {
		t.Fatal(err)
	}
	m := newModel()
	root := Change{Puts: map[types.Key][]byte{"a": []byte("a0"), "b": []byte("b0")}}
	v0, _ := s.Commit(context.Background(), types.InvalidVersion, root)
	m.commit(types.InvalidVersion, root, v0)

	chA := Change{Puts: map[types.Key][]byte{"a": []byte("a1")}}
	v1, err := s.Commit(context.Background(), v0, chA)
	if err != nil {
		t.Fatal(err)
	}
	m.commit(v0, chA, v1)

	chB := Change{Puts: map[types.Key][]byte{"b": []byte("b1")}}
	v2, err := s.Commit(context.Background(), v0, chB)
	if err != nil {
		t.Fatal(err)
	}
	m.commit(v0, chB, v2)

	// Merge: primary parent v1, bring in v2's b. The client resolves the
	// merge contents (the engine records provenance only).
	chM := Change{Puts: map[types.Key][]byte{"b": []byte("b1")}}
	v3, err := s.CommitMerge(context.Background(), []types.VersionID{v1, v2}, chM)
	if err != nil {
		t.Fatal(err)
	}
	m.commit(v1, chM, v3)

	if got := s.Parents(v3); len(got) != 2 || got[0] != v1 || got[1] != v2 {
		t.Fatalf("merge parents = %v", got)
	}
	if err := s.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkAllVersions(t, s, m)
}

func TestEngineQueryStatsSanity(t *testing.T) {
	s, _ := buildStore(t, Config{ChunkCapacity: 1024, BatchSize: 5}, 20, 40, 9)
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, stats, err := s.GetVersionAll(context.Background(), types.VersionID(s.NumVersions()-1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Span == 0 || stats.Requests == 0 || stats.BytesRead == 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
}

// A commit rejected by the version graph (duplicate parents) must leave no
// trace — neither in memory nor, critically, in the delta store: a durably
// written delta for a rejected commit would sit at exactly the next version
// id, where Load's replay would hit the same rejection and refuse to open
// the store forever.
func TestCommitDuplicateParentsLeavesNoTrace(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(context.Background(), kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(context.Background(), Config{KV: kv, ChunkCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := s.Commit(ctx, types.InvalidVersion, Change{Puts: map[types.Key][]byte{"a": []byte("0")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := s.CommitMerge(ctx, []types.VersionID{v0, v0}, Change{Puts: map[types.Key][]byte{"a": []byte("1")}}); err == nil {
		t.Fatal("duplicate parents accepted")
	}
	if _, err := s.CommitDelta(ctx, []types.VersionID{v0, v0}, &types.Delta{}); err == nil {
		t.Fatal("CommitDelta duplicate parents accepted")
	}
	// No stranded delta entry at the would-be version id.
	if _, err := kv.Get(ctx, TableDeltaStore, deltaKey(v0+1)); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("rejected commit left a delta entry: %v", err)
	}

	// The store keeps working, and — the real regression — reopens.
	v1, err := s.Commit(ctx, v0, Change{Puts: map[types.Key][]byte{"a": []byte("1")}})
	if err != nil {
		t.Fatalf("store wedged after rejected commit: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Load(ctx, Config{KV: kv})
	if err != nil {
		t.Fatalf("Load after rejected commit: %v", err)
	}
	if rec, _, err := re.GetRecord(ctx, "a", v1); err != nil || string(rec.Value) != "1" {
		t.Fatalf("reopened store: %q %v", rec.Value, err)
	}
}

// TestSetBranchFailedRootLeavesNoTrace: SetBranch installs a branch only once
// the root naming it is durable. One whose root write fails leaves Tip and
// Branches as they were, and a later Checkpoint persists no trace of it.
func TestSetBranchFailedRootLeavesNoTrace(t *testing.T) {
	ctx := context.Background()
	st, kv, backends := openFaulty(t, 1)
	v0, err := st.Commit(ctx, types.InvalidVersion, Change{Puts: map[types.Key][]byte{"a": []byte("0")}})
	if err != nil {
		t.Fatal(err)
	}
	backends[0].arm(func(table string) bool { return table == TableMeta })
	if err := st.SetBranch(ctx, "dev", v0); !errors.Is(err, errInjected) {
		t.Fatalf("SetBranch over a failing root write: %v, want the injected error", err)
	}
	backends[0].arm(nil)
	if v, err := st.Tip("dev"); err == nil {
		t.Fatalf("the failed SetBranch left dev at version %d", v)
	}
	if got := st.Branches(); !slices.Equal(got, []string{"main"}) {
		t.Fatalf("branches after the failed SetBranch: %v, want [main]", got)
	}
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	re, err := Load(ctx, Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Branches(); !slices.Equal(got, []string{"main"}) {
		t.Fatalf("branches after Checkpoint and Load: %v, want [main]", got)
	}
}

// TestCommitOwnsItsValues: a commit keeps its own copy of every value it is
// given — the corpus serves pending reads from it and the flush codes chunks
// from it. A caller that rewrites its buffers after Commit, CommitMerge or
// CommitDelta returns changes no committed version: not read while pending,
// not once the flush placed it, not after Load.
func TestCommitOwnsItsValues(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	bufs := [][]byte{[]byte("original"), []byte("original"), []byte("original")}
	v0, err := st.Commit(ctx, types.InvalidVersion, Change{Puts: map[types.Key][]byte{"a": bufs[0]}})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := st.CommitMerge(ctx, []types.VersionID{v0}, Change{Puts: map[types.Key][]byte{"b": bufs[1]}})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := st.CommitDelta(ctx, []types.VersionID{v1}, &types.Delta{Adds: []types.Record{{CK: types.CompositeKey{Key: "c", Version: v1 + 1}, Value: bufs[2]}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, buf := range bufs {
		copy(buf, "MUTATED!")
	}
	check := func(when string, st *Store) {
		t.Helper()
		for _, k := range []types.Key{"a", "b", "c"} {
			if rec, _, err := st.GetRecord(ctx, k, v2); err != nil || string(rec.Value) != "original" {
				t.Fatalf("%s@%d %s: %q, %v", k, v2, when, rec.Value, err)
			}
		}
	}
	check("while pending", st)
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	check("after the flush", st)
	re, err := Load(ctx, Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	check("after Load", re)
}

// TestParentsBesideCommit: Parents and Depth read the version graph under the
// store's read lock, so a caller beside a chain of commits sees every version
// it asks about whole — its parent and its depth — and, under -race, races
// none of them.
func TestParentsBesideCommit(t *testing.T) {
	ctx := context.Background()
	st, err := Open(ctx, Config{ChunkCapacity: 1024, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.Commit(ctx, types.InvalidVersion, Change{Puts: map[types.Key][]byte{"k": []byte("0")}})
	if err != nil {
		t.Fatal(err)
	}
	const commits = 200
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 1; i <= commits && err == nil; i++ {
			v, err = st.Commit(ctx, v, Change{Puts: map[types.Key][]byte{"k": []byte(fmt.Sprint(i))}})
		}
		done <- err
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		n := types.VersionID(st.NumVersions())
		for u := types.VersionID(1); u < n; u++ {
			if p := st.Parents(u); len(p) != 1 || p[0] != u-1 {
				t.Fatalf("Parents(%d) = %v, want [%d]", u, p, u-1)
			}
			if d := st.Depth(u); d != int(u)+1 {
				t.Fatalf("Depth(%d) = %d, want %d", u, d, u+1)
			}
		}
		if p, d := st.Parents(commits+1), st.Depth(commits+1); p != nil || d != 0 {
			t.Fatalf("unknown version %d: Parents %v, Depth %d", commits+1, p, d)
		}
	}
	if st.NumVersions() != commits+1 {
		t.Fatalf("%d versions, want %d", st.NumVersions(), commits+1)
	}
}
