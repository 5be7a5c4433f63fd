package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// openMemCluster opens a cluster of cfg's shape over memory nodes and
// returns them, so that a test can take one down.
func openMemCluster(t testing.TB, cfg kvstore.Config) (*kvstore.Store, []*memory.Backend) {
	t.Helper()
	nodes := make([]*memory.Backend, cfg.Nodes)
	cfg.NewBackend = func(id int) (engine.Backend, error) {
		nodes[id] = memory.New()
		return nodes[id], nil
	}
	kv, err := kvstore.Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return kv, nodes
}

// TestConcurrentQueries hammers all query paths from many goroutines while
// the store is static — the read paths must be race-free (run with -race).
func TestConcurrentQueries(t *testing.T) {
	s, m := buildStore(t, Config{ChunkCapacity: 1024, BatchSize: 6}, 20, 30, 11)
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := types.VersionID((w + i) % len(m.versions))
				recs, _, err := s.GetVersionAll(context.Background(), v)
				if err != nil {
					t.Errorf("GetVersion(%d): %v", v, err)
					return
				}
				if len(recs) != len(m.versions[v]) {
					t.Errorf("GetVersion(%d): %d records, want %d", v, len(recs), len(m.versions[v]))
					return
				}
				if _, _, err := s.GetHistoryAll(context.Background(), key(w%10)); err != nil {
					t.Errorf("GetHistory: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentCommitsAndQueries interleaves writers (serialized by the
// engine lock) with readers on stable old versions.
func TestConcurrentCommitsAndQueries(t *testing.T) {
	s, err := Open(context.Background(), Config{ChunkCapacity: 2048, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	root := Change{Puts: map[types.Key][]byte{}}
	for i := 0; i < 20; i++ {
		root.Puts[key(i)] = []byte(fmt.Sprintf("base-%d", i))
	}
	v0, err := s.Commit(context.Background(), types.InvalidVersion, root)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		parent := v0
		for i := 0; i < 40; i++ {
			v, err := s.Commit(context.Background(), parent, Change{Puts: map[types.Key][]byte{
				key(i % 20): []byte(fmt.Sprintf("rev-%d", i)),
			}})
			if err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
			parent = v
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			recs, _, err := s.GetVersionAll(context.Background(), v0)
			if err != nil || len(recs) != 20 {
				t.Errorf("read during writes: %d records, %v", len(recs), err)
				return
			}
		}
	}()
	wg.Wait()
	if s.NumVersions() != 41 {
		t.Fatalf("versions = %d", s.NumVersions())
	}
}

// TestQueriesSurviveNodeFailure verifies the engine keeps answering when a
// replica node dies under ReplicationFactor 2.
func TestQueriesSurviveNodeFailure(t *testing.T) {
	kv, nodes := openMemCluster(t, kvstore.Config{Nodes: 4, ReplicationFactor: 2})
	s, m := buildStore(t, Config{KV: kv, ChunkCapacity: 1024, BatchSize: 5}, 18, 25, 12)
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkAllVersions(t, s, m)
	// Kill each node in turn; all data must stay reachable.
	for _, n := range nodes {
		n.SetDown(true)
		checkAllVersions(t, s, m)
		n.SetDown(false)
	}
}

// TestUnreplicatedFailureSurfacesError: with rf=1 a dead node must produce
// an error, not silent data loss.
func TestUnreplicatedFailureSurfacesError(t *testing.T) {
	kv, nodes := openMemCluster(t, kvstore.Config{Nodes: 3, ReplicationFactor: 1})
	s, _ := buildStore(t, Config{KV: kv, ChunkCapacity: 512, BatchSize: 4}, 12, 30, 13)
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.SetDown(true)
	}
	if _, _, err := s.GetVersionAll(context.Background(), 0); err == nil {
		t.Fatal("query against fully-dead cluster succeeded")
	}
}

// TestFlushIdempotent: flushing with nothing pending is a no-op.
func TestFlushIdempotent(t *testing.T) {
	s, m := buildStore(t, Config{ChunkCapacity: 1024}, 10, 20, 14)
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	chunks := s.NumChunks()
	for i := 0; i < 3; i++ {
		if err := s.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumChunks() != chunks {
		t.Fatalf("idempotent flush grew chunks: %d → %d", chunks, s.NumChunks())
	}
	checkAllVersions(t, s, m)
}

// TestMaterializeAfterOnlineFlushes: a full repartition after online batches
// (the §4 "pragmatic approach") must preserve answers and may only improve
// the span.
func TestMaterializeAfterOnlineFlushes(t *testing.T) {
	s, m := buildStore(t, Config{ChunkCapacity: 1024, BatchSize: 3}, 21, 30, 15)
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	onlineSpan := s.TotalVersionSpan()
	if err := s.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Neither placement dominates on arbitrary commit streams (Fig 13's
	// quality ratios hover around 1 at small scale); the repartition must
	// stay in the same band and, critically, preserve every answer.
	offlineSpan := s.TotalVersionSpan()
	if offlineSpan > onlineSpan*1000/75 {
		t.Fatalf("full repartition exploded span: %d → %d", onlineSpan, offlineSpan)
	}
	checkAllVersions(t, s, m)
}

// TestOnlineEqualsOfflineAnswers cross-checks the two placement paths
// produce identical query answers on the same commit stream.
func TestOnlineEqualsOfflineAnswers(t *testing.T) {
	// A batch of two is 365–1469 B: at 256 B every online flush but the
	// last (one version) takes the open/closed split.
	online, m1 := buildStore(t, Config{ChunkCapacity: 256, BatchSize: 2}, 15, 25, 16)
	offline, m2 := buildStore(t, Config{ChunkCapacity: 256}, 15, 25, 16)
	if err := online.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := offline.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 15; v++ {
		a, _, err := online.GetVersionAll(context.Background(), types.VersionID(v))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := offline.GetVersionAll(context.Background(), types.VersionID(v))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("v%d: online %d records, offline %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i].CK != b[i].CK || string(a[i].Value) != string(b[i].Value) {
				t.Fatalf("v%d record %d differs", v, i)
			}
		}
	}
	_ = m1
	_ = m2
}
