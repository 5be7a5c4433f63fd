package core

import (
	"context"
	"errors"
	"testing"

	"rstore/internal/chunk"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// openDiskStore opens a store on a fresh lsm cluster rooted at dir.
func openDiskStore(t *testing.T, dir string, cfg Config) (*kvstore.Store, *Store) {
	t.Helper()
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, Engine: kvstore.EngineLSM, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg.KV = kv
	st, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return kv, st
}

// TestLoadReplaysUnmanifestedCommits: a commit is acknowledged once its
// delta entry is durable, even if the process dies before the next manifest
// save. Open must replay it from the delta store.
func TestLoadReplaysUnmanifestedCommits(t *testing.T) {
	dir := t.TempDir()
	kv, st := openDiskStore(t, dir, Config{})
	v0, err := st.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("a0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(context.Background()); err != nil { // manifest now covers v0
		t.Fatal(err)
	}
	v1, err := st.Commit(context.Background(), v0, Change{Puts: map[types.Key][]byte{"b": []byte("b1")}})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := st.Commit(context.Background(), v1, Change{
		Puts:    map[types.Key][]byte{"a": []byte("a2")},
		Deletes: []types.Key{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Simulated crash: the cluster's backends close (fsynced), but the
	// store never flushes, so the manifest still only knows v0.
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, Engine: kvstore.EngineLSM, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(context.Background(), Config{KV: kv2})
	if err != nil {
		t.Fatalf("load after crash: %v", err)
	}
	if n := re.NumVersions(); n != 3 {
		t.Fatalf("replayed %d versions, want 3", n)
	}
	if p := re.PendingVersions(); p != 2 {
		t.Fatalf("%d pending after replay, want 2", p)
	}
	rec, _, err := re.GetRecord(context.Background(), "a", v2)
	if err != nil || string(rec.Value) != "a2" {
		t.Fatalf("a@v2 = %v, %v", rec, err)
	}
	if _, _, err := re.GetRecord(context.Background(), "b", v2); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("deleted b@v2: %v", err)
	}
	rec, _, err = re.GetRecord(context.Background(), "b", v1)
	if err != nil || string(rec.Value) != "b1" {
		t.Fatalf("b@v1 = %v, %v", rec, err)
	}
	// The replayed commits flush and survive a clean reopen.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := kv2.Close(); err != nil {
		t.Fatal(err)
	}
	kv3, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, Engine: kvstore.EngineLSM, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer kv3.Close()
	re2, err := Open(context.Background(), Config{KV: kv3})
	if err != nil {
		t.Fatal(err)
	}
	if re2.PendingVersions() != 0 {
		t.Fatalf("%d pending after clean close", re2.PendingVersions())
	}
	rec, _, err = re2.GetRecord(context.Background(), "a", v2)
	if err != nil || string(rec.Value) != "a2" {
		t.Fatalf("a@v2 after clean reopen = %v, %v", rec, err)
	}
}

// TestOpenReplaysCommitBeforeFirstFlush: a fresh durable store can crash
// before its first flush without losing acknowledged commits — even the
// root version: Open wrote the root they replay against.
func TestOpenReplaysCommitBeforeFirstFlush(t *testing.T) {
	dir := t.TempDir()
	kv, st := openDiskStore(t, dir, Config{})
	v0, err := st.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("a0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil { // crash before any flush
		t.Fatal(err)
	}

	kv2, re := openDiskStore(t, dir, Config{})
	defer kv2.Close()
	if re.NumVersions() != 1 || re.PendingVersions() != 1 {
		t.Fatalf("replay: %d versions, %d pending", re.NumVersions(), re.PendingVersions())
	}
	rec, _, err := re.GetRecord(context.Background(), "a", v0)
	if err != nil || string(rec.Value) != "a0" {
		t.Fatalf("a@v0 = %v, %v", rec, err)
	}
}

// TestReopenContinuesVersionIds: a second Open over a closed store sees
// every version it holds, and its next commit gets the next id, not the
// root's.
func TestReopenContinuesVersionIds(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	kv, st := openDiskStore(t, dir, Config{})
	parent := types.InvalidVersion
	for i := range 3 {
		v, err := st.Commit(ctx, parent, Change{Puts: map[types.Key][]byte{"a": {byte('0' + i)}}})
		if err != nil {
			t.Fatal(err)
		}
		parent = v
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, re := openDiskStore(t, dir, Config{})
	defer kv2.Close()
	if re.NumVersions() != 3 {
		t.Fatalf("reopened %d versions, want 3", re.NumVersions())
	}
	v, err := re.Commit(ctx, parent, Change{Puts: map[types.Key][]byte{"b": []byte("b3")}})
	if err != nil || v != 3 {
		t.Fatalf("commit after reopen: version %d, %v; want 3", v, err)
	}
	if rec, _, err := re.GetRecord(ctx, "a", v); err != nil || string(rec.Value) != "2" {
		t.Fatalf("a@v3 = %v, %v", rec, err)
	}
}

// TestOpenRefusesRootlessPlacement: chunk segments or placement records with
// no root beside them are a root that cannot be read, not a new store. Open
// refuses with types.ErrCorrupt, writable or not, and changes no key.
func TestOpenRefusesRootlessPlacement(t *testing.T) {
	ctx := context.Background()
	for _, keep := range []string{TableChunks, TablePlacement} {
		t.Run(keep, func(t *testing.T) {
			kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			st, err := Open(ctx, Config{KV: kv})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Commit(ctx, types.InvalidVersion, Change{Puts: map[types.Key][]byte{"a": []byte("a0")}}); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			// The root goes, and of the placement state only one table stays.
			for _, table := range []string{TableMeta, TableChunks, TablePlacement} {
				if table == keep {
					continue
				}
				if err := deleteKeys(ctx, kv, table, tableKeys(t, kv, table)); err != nil {
					t.Fatal(err)
				}
			}
			if len(tableKeys(t, kv, keep)) == 0 {
				t.Fatalf("no %s keys to keep", keep)
			}
			tables := []string{TableMeta, TableChunks, TablePlacement, TableDeltaStore}
			before, _ := storedDigest(t, kv, tables...)
			for _, readOnly := range []bool{false, true} {
				if _, err := Open(ctx, Config{KV: kv, ReadOnly: readOnly}); !errors.Is(err, types.ErrCorrupt) {
					t.Fatalf("Open (read-only %v) without a root: %v, want ErrCorrupt", readOnly, err)
				}
				if after, _ := storedDigest(t, kv, tables...); after != before {
					t.Fatalf("Open (read-only %v) changed what the cluster stores", readOnly)
				}
			}
		})
	}
}

// TestReadOnlyOpenWritesNothing: a ReadOnly Open of an empty cluster writes
// no root, and one of a cluster whose only state is delta entries — a crash
// before the first root was written — replays them in memory and writes
// nothing either; the next writable Open writes the root.
func TestReadOnlyOpenWritesNothing(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if _, err := Open(ctx, Config{KV: kv, ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	if n := kv.Stats(ctx).WriteCalls; n != 0 {
		t.Fatalf("a read-only Open of an empty cluster made %d write calls", n)
	}

	st, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(ctx, types.InvalidVersion, Change{Puts: map[types.Key][]byte{"a": []byte("a0")}}); err != nil {
		t.Fatal(err)
	}
	if err := deleteKeys(ctx, kv, TableMeta, tableKeys(t, kv, TableMeta)); err != nil {
		t.Fatal(err)
	}
	writes := kv.Stats(ctx).WriteCalls
	ro, err := Open(ctx, Config{KV: kv, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if ro.NumVersions() != 1 {
		t.Fatalf("read-only Open replayed %d versions, want 1", ro.NumVersions())
	}
	if n := kv.Stats(ctx).WriteCalls - writes; n != 0 {
		t.Fatalf("a read-only Open of a rootless store made %d write calls", n)
	}
	if len(tableKeys(t, kv, TableMeta)) != 0 {
		t.Fatal("a read-only Open wrote a root")
	}
	re, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	if re.NumVersions() != 1 || len(tableKeys(t, kv, TableMeta)) != 1 {
		t.Fatalf("writable Open of a rootless store: %d versions, root keys %v", re.NumVersions(), tableKeys(t, kv, TableMeta))
	}
}

// tableKeys lists table's keys in kv, in scan order.
func tableKeys(t *testing.T, kv *kvstore.Store, table string) []string {
	t.Helper()
	var keys []string
	if err := kv.Scan(context.Background(), table, func(key string, _ []byte) bool {
		keys = append(keys, key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestLoadToleratesInterruptedFlush simulates a flush that crashed after
// writing its chunk payloads and its placement record but before the root:
// Open must skip the orphan chunk and the orphan record, repair the KVS, and
// leave the store fully usable — the re-flush reuses both ids.
func TestLoadToleratesInterruptedFlush(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := st.Commit(ctx, types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("a0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	rootBefore, err := kv.Get(ctx, TableMeta, manifestKey)
	if err != nil {
		t.Fatal(err)
	}
	orphanChunk := chunk.SegmentKey(st.gen, chunk.ID(st.NumChunks()), 0)
	orphanRecord := placementKey(st.gen, st.numPlacements)

	// Produce the crash debris with the real flush of a second version, then
	// roll the root back: chunk and record are durable, the commit point and
	// the delta drain never happened.
	v1, err := st.Commit(ctx, v0, Change{Puts: map[types.Key][]byte{"b": []byte("b1")}})
	if err != nil {
		t.Fatal(err)
	}
	delta1, err := kv.Get(ctx, TableDeltaStore, deltaKey(v1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(ctx, TableMeta, manifestKey, rootBefore); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(ctx, TableDeltaStore, deltaKey(v1), delta1); err != nil {
		t.Fatal(err)
	}
	for table, key := range map[string]string{TableChunks: orphanChunk, TablePlacement: orphanRecord} {
		if _, err := kv.Get(ctx, table, key); err != nil {
			t.Fatalf("precondition: debris %s/%s: %v", table, key, err)
		}
	}

	re, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatalf("load with orphan chunk and record: %v", err)
	}
	if re.NumChunks() != 1 || re.PendingVersions() != 1 {
		t.Fatalf("after load: %d chunks, %d pending; want 1 and 1", re.NumChunks(), re.PendingVersions())
	}
	for v, want := range map[types.VersionID][2]string{v0: {"a", "a0"}, v1: {"b", "b1"}} {
		rec, _, err := re.GetRecord(ctx, types.Key(want[0]), v)
		if err != nil || string(rec.Value) != want[1] {
			t.Fatalf("%s@v%d = %v, %v", want[0], v, rec, err)
		}
	}
	// The repair removed both orphans.
	for table, key := range map[string]string{TableChunks: orphanChunk, TablePlacement: orphanRecord} {
		if _, err := kv.Get(ctx, table, key); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("orphan %s/%s survived repair: %v", table, key, err)
		}
	}
	// And the store keeps committing/flushing cleanly — the re-flush reuses
	// the orphans' chunk id and record index without collision.
	v2, err := re.Commit(ctx, v1, Change{Puts: map[types.Key][]byte{"c": []byte("c2")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[types.Key]string{"a": "a0", "b": "b1", "c": "c2"} {
		rec, _, err := re2.GetRecord(ctx, key, v2)
		if err != nil || string(rec.Value) != want {
			t.Fatalf("%s@v2 after re-flush and reload = %v, %v", key, rec, err)
		}
	}
}

// TestLoadCleansStaleDeltas: delta entries for versions the manifest already
// placed (a crash between the manifest save and the write-store drain) are
// ignored and garbage-collected by a writable Open.
func TestLoadCleansStaleDeltas(t *testing.T) {
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(context.Background(), Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := st.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("a0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Re-create the already-drained delta entry, as a crash mid-drain would
	// leave it.
	d := &types.Delta{Adds: []types.Record{{CK: types.CompositeKey{Key: "a", Version: v0}, Value: []byte("a0")}}}
	if err := kv.Put(context.Background(), TableDeltaStore, deltaKey(v0), encodeDeltaEntry([]types.VersionID{types.InvalidVersion}, d)); err != nil {
		t.Fatal(err)
	}

	re, err := Open(context.Background(), Config{KV: kv})
	if err != nil {
		t.Fatalf("load with stale delta: %v", err)
	}
	if re.PendingVersions() != 0 {
		t.Fatalf("stale delta resurrected as pending")
	}
	if _, err := kv.Get(context.Background(), TableDeltaStore, deltaKey(v0)); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("stale delta survived repair: %v", err)
	}
	rec, _, err := re.GetRecord(context.Background(), "a", v0)
	if err != nil || string(rec.Value) != "a0" {
		t.Fatalf("a@v0 = %v, %v", rec, err)
	}
}

// TestLoadSkipsCorruptPlacedDelta: a leftover delta entry of a placed
// version (a crash between a flush's root and its drain) is deleted unread,
// so one that reads back corrupt does not stop Open: the store opens, serves
// every version byte-exact, and the entry is gone.
func TestLoadSkipsCorruptPlacedDelta(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{KV: kv, ChunkCapacity: 1024, BatchSize: 4}
	s, m := buildStore(t, cfg, 10, 20, 8)
	placed := s.NumVersions() - s.PendingVersions()
	if placed == 0 || s.PendingVersions() == 0 {
		t.Fatalf("want placed and pending versions, have %d placed of %d", placed, s.NumVersions())
	}
	leftover := deltaKey(types.VersionID(placed - 1))
	if err := kv.Put(ctx, TableDeltaStore, leftover, []byte{0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}

	re, err := Open(ctx, cfg)
	if err != nil {
		t.Fatalf("load beside a corrupt placed delta: %v", err)
	}
	if re.NumVersions() != len(m.versions) {
		t.Fatalf("loaded %d versions, want %d", re.NumVersions(), len(m.versions))
	}
	checkAllVersions(t, re, m)
	if _, err := kv.Get(ctx, TableDeltaStore, leftover); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("corrupt leftover survived repair: %v", err)
	}
}

// TestCloseIdempotent: double Close is a no-op, not an ErrClosed failure.
func TestCloseIdempotent(t *testing.T) {
	st, err := Open(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("x"),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
