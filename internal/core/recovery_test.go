package core

import (
	"context"
	"errors"
	"testing"

	"rstore/internal/chunk"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// openDiskStore opens a store on a fresh disklog cluster rooted at dir.
func openDiskStore(t *testing.T, dir string, cfg Config) (*kvstore.Store, *Store) {
	t.Helper()
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, Engine: kvstore.EngineDisklog, Dir: dir})
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
// save. Load must replay it from the delta store.
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

	kv2, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, Engine: kvstore.EngineDisklog, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Load(context.Background(), Config{KV: kv2})
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
	kv3, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, Engine: kvstore.EngineDisklog, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer kv3.Close()
	re2, err := Load(context.Background(), Config{KV: kv3})
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

// TestCheckpointEnablesRootReplay: a fresh durable store that checkpointed
// (as the server does on boot) can crash before its first flush without
// losing acknowledged commits — even the root.
func TestCheckpointEnablesRootReplay(t *testing.T) {
	dir := t.TempDir()
	kv, st := openDiskStore(t, dir, Config{})
	if err := st.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	v0, err := st.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("a0"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil { // crash before any flush
		t.Fatal(err)
	}

	kv2, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, Engine: kvstore.EngineDisklog, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	re, err := Load(context.Background(), Config{KV: kv2})
	if err != nil {
		t.Fatalf("load after pre-flush crash: %v", err)
	}
	if re.NumVersions() != 1 || re.PendingVersions() != 1 {
		t.Fatalf("replay: %d versions, %d pending", re.NumVersions(), re.PendingVersions())
	}
	rec, _, err := re.GetRecord(context.Background(), "a", v0)
	if err != nil || string(rec.Value) != "a0" {
		t.Fatalf("a@v0 = %v, %v", rec, err)
	}
}

// TestLoadToleratesInterruptedFlush simulates a flush that crashed after
// writing its chunk payloads and its placement record but before the root:
// Load must skip the orphan chunk and the orphan record, repair the KVS, and
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

	re, err := Load(ctx, Config{KV: kv})
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
	re2, err := Load(ctx, Config{KV: kv})
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
// ignored and garbage-collected by a writable Load.
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

	re, err := Load(context.Background(), Config{KV: kv})
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
// so one that reads back corrupt does not stop Load: the store opens, serves
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

	re, err := Load(ctx, cfg)
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
