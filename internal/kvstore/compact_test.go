package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
)

// TestClusterCompact: an lsm cluster reclaims its dead bytes with nobody
// asking. Every key is rewritten five times, and every batch also writes a
// few keys that are never overwritten, so each flushed table keeps its dead
// values instead of being retired whole: the nodes' own tier loops must
// merge the runs they leave less than half live. The Stats reclaim fields
// account for it, and reads are unchanged.
func TestClusterCompact(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := Open(context.Background(), Config{Nodes: 3, ReplicationFactor: 2, NewBackend: func(id int) (engine.Backend, error) {
		return lsm.Open(filepath.Join(dir, fmt.Sprint(id)), lsm.Options{MemtableBytes: 8 << 10})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Overwrite-heavy: every key rewritten five times through the fsynced
	// batch path, then a tenth deleted.
	const nKeys = 200
	want := make(map[string][]byte)
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
		for _, e := range entries {
			want[e.Key] = e.Value
		}
	}
	for i := 0; i < nKeys/10; i++ {
		k := fmt.Sprintf("k%04d", i)
		if err := s.Delete(ctx, "t", k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}

	st := s.Stats(ctx)
	if st.DiskBytes == 0 || st.CompactedBytes == 0 || st.LiveRatio < 0.5 {
		t.Fatalf("the nodes did not reclaim on their own: disk=%d compacted=%d live ratio=%.2f", st.DiskBytes, st.CompactedBytes, st.LiveRatio)
	}
	got := map[string][]byte{}
	if err := s.Scan(ctx, "t", func(k string, v []byte) bool {
		got[k] = bytes.Clone(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reads after the merges: %d keys, want %d", len(got), len(want))
	}
}

// TestClusterCompactMemoryIsNoop: a pure memory cluster has nothing on disk,
// so the reclaim stats stay zero (LiveRatio reports 1 — nothing is dead).
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
	st := s.Stats(ctx)
	if st.DiskBytes != 0 || st.CompactedBytes != 0 || st.LiveRatio != 1 {
		t.Fatalf("memory cluster reclaim stats: %+v", st)
	}
}
