package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
)

// TestClusterCompact: Store.Compact fans out to every lsm node, the Stats
// reclaim fields account for it, and reads are unchanged. The memtables are
// small and never tier-merged, and every batch writes a few keys that are
// never overwritten, so each batch's SSTable stays with its dead values for
// Compact to find instead of being retired whole.
func TestClusterCompact(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := Open(context.Background(), Config{Nodes: 3, ReplicationFactor: 2, NewBackend: func(id int) (engine.Backend, error) {
		return lsm.Open(filepath.Join(dir, fmt.Sprint(id)), lsm.Options{MemtableBytes: 8 << 10, MaxTables: 1 << 10})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Overwrite-heavy: every key rewritten five times through the fsynced
	// batch path, then a tenth deleted.
	const nKeys = 200
	for rev := 0; rev < 5; rev++ {
		entries := make([]Entry, nKeys)
		for i := range entries {
			entries[i] = Entry{
				Key:   fmt.Sprintf("k%04d", i),
				Value: []byte(fmt.Sprintf("rev-%d %s", rev, strings.Repeat("x", 64))),
			}
		}
		for i := 0; i < 8; i++ {
			entries = append(entries, Entry{Key: fmt.Sprintf("pin-%d-%d", rev, i), Value: []byte("pin")})
		}
		if err := s.BatchPut(ctx, "t", entries); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nKeys/10; i++ {
		if err := s.Delete(ctx, "t", fmt.Sprintf("k%04d", i)); err != nil {
			t.Fatal(err)
		}
	}

	want := make(map[string][]byte)
	for i := nKeys / 10; i < nKeys; i++ {
		k := fmt.Sprintf("k%04d", i)
		v, err := s.Get(ctx, "t", k)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}

	before := s.Stats(ctx)
	if before.DiskBytes == 0 || before.LiveRatio > 0.5 {
		t.Fatalf("workload not dead-heavy enough: disk=%d live ratio=%.2f", before.DiskBytes, before.LiveRatio)
	}
	reclaimed, err := s.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats(ctx)
	if after.DiskBytes > before.DiskBytes/2 {
		t.Fatalf("cluster compact reclaimed too little: %d -> %d disk bytes", before.DiskBytes, after.DiskBytes)
	}
	// (No exact disk-delta check: background tombstone GC appends its own
	// records between the two Stats snapshots.)
	if reclaimed <= 0 {
		t.Fatalf("Compact reported %d reclaimed", reclaimed)
	}
	if after.CompactedBytes != reclaimed {
		t.Fatalf("CompactedBytes = %d, want %d", after.CompactedBytes, reclaimed)
	}
	if after.LiveRatio <= before.LiveRatio {
		t.Fatalf("live ratio did not improve: %.2f -> %.2f", before.LiveRatio, after.LiveRatio)
	}
	for k, wv := range want {
		v, err := s.Get(ctx, "t", k)
		if err != nil || !bytes.Equal(v, wv) {
			t.Fatalf("%s changed across compaction: %q %v", k, v, err)
		}
	}
}

// TestClusterCompactMemoryIsNoop: a pure memory cluster has nothing on disk;
// Compact must skip every node instead of erroring, and the reclaim stats
// stay zero (LiveRatio reports 1 — nothing is dead).
func TestClusterCompactMemoryIsNoop(t *testing.T) {
	ctx := context.Background()
	s, err := Open(context.Background(), Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(ctx, "t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	reclaimed, err := s.Compact(ctx)
	if err != nil || reclaimed != 0 {
		t.Fatalf("memory cluster Compact = %d, %v", reclaimed, err)
	}
	st := s.Stats(ctx)
	if st.DiskBytes != 0 || st.CompactedBytes != 0 || st.LiveRatio != 1 {
		t.Fatalf("memory cluster reclaim stats: %+v", st)
	}
}
