package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rstore/internal/kvstore"
	"rstore/internal/partition"
	"rstore/internal/types"
)

// TestTortureSoak drives the full system through a long randomized session —
// branched commits, merges, flushes at random points, periodic full
// repartitioning, node failures with replication, and a reload — verifying
// every query kind against the oracle after each phase.
func TestTortureSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(271828))
	kv, nodes := openMemCluster(t, kvstore.Config{Nodes: 5, ReplicationFactor: 2})
	cfg := Config{
		KV: kv, ChunkCapacity: 512, BatchSize: 7, // a batch is 1.2–1.8 KB: every flush splits open from closed
		SubChunkK: 3, Partitioner: partition.BottomUp{Beta: 16},
	}
	s, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel()

	// Root.
	root := Change{Puts: map[types.Key][]byte{}}
	for i := 0; i < 60; i++ {
		root.Puts[key(i)] = payload(rng, i, 0)
	}
	v0, err := s.Commit(context.Background(), types.InvalidVersion, root)
	if err != nil {
		t.Fatal(err)
	}
	m.commit(types.InvalidVersion, root, v0)
	nextKey := 60

	checkpoint := func(phase string) {
		t.Helper()
		// Spot-check a random sample of versions (full check is O(n²)).
		for trial := 0; trial < 12; trial++ {
			v := types.VersionID(rng.Intn(len(m.versions)))
			recs, _, err := s.GetVersionAll(context.Background(), v)
			if err != nil {
				t.Fatalf("%s: GetVersion(%d): %v", phase, v, err)
			}
			want := m.versions[v]
			if len(recs) != len(want) {
				t.Fatalf("%s: GetVersion(%d): %d records, want %d", phase, v, len(recs), len(want))
			}
			for _, r := range recs {
				w := want[r.CK.Key]
				if w.CK != r.CK || string(w.Value) != string(r.Value) {
					t.Fatalf("%s: v%d key %s mismatch", phase, v, r.CK.Key)
				}
			}
		}
		// Point + range + history probes.
		v := types.VersionID(rng.Intn(len(m.versions)))
		liveKeys := make([]types.Key, 0, len(m.versions[v]))
		for k := range m.versions[v] {
			liveKeys = append(liveKeys, k)
		}
		sort.Slice(liveKeys, func(i, j int) bool { return liveKeys[i] < liveKeys[j] })
		if len(liveKeys) > 0 {
			k := liveKeys[rng.Intn(len(liveKeys))]
			got, _, err := s.GetRecord(context.Background(), k, v)
			if err != nil || got.CK != m.versions[v][k].CK {
				t.Fatalf("%s: GetRecord(%s, %d): %v %v", phase, k, v, got.CK, err)
			}
			lo, hi := key(10), key(40)
			recs, _, err := s.GetRangeAll(context.Background(), KeyRange(lo, hi), v)
			if err != nil {
				t.Fatalf("%s: GetRange: %v", phase, err)
			}
			want := 0
			for _, lk := range liveKeys {
				if lk >= lo && lk < hi {
					want++
				}
			}
			if len(recs) != want {
				t.Fatalf("%s: GetRange v%d: %d records, want %d", phase, v, len(recs), want)
			}
			hist, _, err := s.GetHistoryAll(context.Background(), k)
			if err != nil || len(hist) != len(m.history(k)) {
				t.Fatalf("%s: GetHistory(%s): %d, want %d (%v)",
					phase, k, len(hist), len(m.history(k)), err)
			}
		}
	}

	// Phase 1: 120 randomized commits with occasional merges and flushes.
	for i := 1; i <= 120; i++ {
		parent := types.VersionID(rng.Intn(len(m.versions)))
		ch := Change{Puts: map[types.Key][]byte{}}
		live := m.versions[parent]
		liveKeys := make([]types.Key, 0, len(live))
		for k := range live {
			liveKeys = append(liveKeys, k)
		}
		sort.Slice(liveKeys, func(a, b int) bool { return liveKeys[a] < liveKeys[b] })
		nMod := 1 + rng.Intn(6)
		for j := 0; j < nMod && len(liveKeys) > 0; j++ {
			k := liveKeys[rng.Intn(len(liveKeys))]
			ch.Puts[k] = payload(rng, i, j)
		}
		if rng.Float64() < 0.3 && len(liveKeys) > 5 {
			for {
				k := liveKeys[rng.Intn(len(liveKeys))]
				if _, mod := ch.Puts[k]; !mod {
					ch.Deletes = append(ch.Deletes, k)
					break
				}
			}
		}
		if rng.Float64() < 0.4 {
			ch.Puts[key(nextKey)] = payload(rng, nextKey, i)
			nextKey++
		}
		v, err := s.Commit(context.Background(), parent, ch)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		m.commit(parent, ch, v)

		if rng.Float64() < 0.1 {
			if err := s.Flush(context.Background()); err != nil {
				t.Fatalf("flush at %d: %v", i, err)
			}
		}
	}
	checkpoint("after-commits")

	// Phase 2: full repartition with compression.
	if err := s.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkpoint("after-materialize")

	// Phase 3: node failures (replicated, so everything must keep working).
	for n, nd := range nodes {
		nd.SetDown(true)
		checkpoint(fmt.Sprintf("node-%d-down", n))
		nd.SetDown(false)
	}

	// Phase 4: more commits on top of the materialized state, then reload
	// from the cluster and re-verify.
	for i := 0; i < 30; i++ {
		parent := types.VersionID(rng.Intn(len(m.versions)))
		ch := Change{Puts: map[types.Key][]byte{key(rng.Intn(nextKey)): payload(rng, i, 99)}}
		// The random key may not be live at parent — that is fine for Puts
		// (insert-or-modify semantics).
		v, err := s.Commit(context.Background(), parent, ch)
		if err != nil {
			t.Fatalf("post-materialize commit %d: %v", i, err)
		}
		m.commit(parent, ch, v)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkpoint("after-more-commits")

	re, err := Load(context.Background(), Config{KV: kv, ChunkCapacity: 512, BatchSize: 7})
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	s = re
	checkpoint("after-reload")

	// Phase 5: diff/LCA consistency against the oracle on random pairs.
	for trial := 0; trial < 20; trial++ {
		a := types.VersionID(rng.Intn(len(m.versions)))
		b := types.VersionID(rng.Intn(len(m.versions)))
		d, err := s.Diff(a, b)
		if err != nil {
			t.Fatal(err)
		}
		wantAdded := 0
		for k, r := range m.versions[b] {
			if w, ok := m.versions[a][k]; !ok || w.CK != r.CK {
				wantAdded++
			}
		}
		if len(d.Added) != wantAdded {
			t.Fatalf("diff(%d,%d): %d added, want %d", a, b, len(d.Added), wantAdded)
		}
	}
}
