package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/types"
)

// openRepair builds a cluster over captured in-memory backends so tests
// can observe each replica's on-disk (well, in-map) state directly — the
// whole point of repair is that the BACKEND converges, not just the
// merged read view.
func openRepair(t testing.TB, nodes, rf int, opts RepairOptions) (*Store, []*memory.Backend) {
	t.Helper()
	backends := make([]*memory.Backend, nodes)
	s, err := Open(context.Background(), Config{
		Nodes:             nodes,
		ReplicationFactor: rf,
		Repair:            opts,
		NewBackend: func(id int) (engine.Backend, error) {
			backends[id] = memory.New()
			return backends[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, backends
}

// fastRepair is the test tuning: tight drain cadence, no long backoff.
func fastRepair() RepairOptions {
	return RepairOptions{HintInterval: 2 * time.Millisecond, HintMaxBackoff: 10 * time.Millisecond}
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func rawGet(t testing.TB, be *memory.Backend, table, key string) ([]byte, bool) {
	t.Helper()
	v, ok, err := be.Get(context.Background(), table, key)
	if err != nil {
		t.Fatal(err)
	}
	return v, ok
}

// rawEqual reports whether two replicas hold byte-identical state for a key.
func rawEqual(t testing.TB, a, b *memory.Backend, table, key string) bool {
	t.Helper()
	va, oka := rawGet(t, a, table, key)
	vb, okb := rawGet(t, b, table, key)
	return oka == okb && bytes.Equal(va, vb)
}

// TestReadRepairOverwritesStaleReplica: a replica that was down during an
// overwrite must be rewritten on disk by the first read that observes it
// stale — not just outvoted forever.
func TestReadRepairOverwritesStaleReplica(t *testing.T) {
	opts := fastRepair()
	opts.DisableHints = true // isolate the read-repair path
	s, backends := openRepair(t, 3, 3, opts)
	ctx := context.Background()

	if err := s.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetNodeUp(1, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "t", "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetNodeUp(1, true); err != nil {
		t.Fatal(err)
	}
	// Node 1 is stale but present on disk.
	if raw, ok := rawGet(t, backends[1], "t", "k"); !ok || bytes.Equal(raw, mustRaw(t, backends[0], "t", "k")) {
		t.Fatalf("precondition: node 1 should hold the stale version (present=%v)", ok)
	}

	if got, err := s.Get(ctx, "t", "k"); err != nil || string(got) != "v2" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	waitFor(t, "stale replica rewritten on disk", func() bool {
		return rawEqual(t, backends[0], backends[1], "t", "k")
	})
	if st := s.Stats(ctx); st.RepairWrites < 1 {
		t.Fatalf("RepairWrites = %d, want >= 1", st.RepairWrites)
	}
}

func mustRaw(t testing.TB, be *memory.Backend, table, key string) []byte {
	t.Helper()
	v, ok := rawGet(t, be, table, key)
	if !ok {
		t.Fatalf("%s/%s missing", table, key)
	}
	return v
}

// TestReadRepairFillsMissingKey: a replica that missed the original write
// entirely converges through read repair too.
func TestReadRepairFillsMissingKey(t *testing.T) {
	opts := fastRepair()
	opts.DisableHints = true
	s, backends := openRepair(t, 3, 3, opts)
	ctx := context.Background()

	if err := s.SetNodeUp(2, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetNodeUp(2, true); err != nil {
		t.Fatal(err)
	}
	if _, ok := rawGet(t, backends[2], "t", "k"); ok {
		t.Fatal("precondition: node 2 should miss the key")
	}
	if got, err := s.Get(ctx, "t", "k"); err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	waitFor(t, "missing replica filled", func() bool {
		return rawEqual(t, backends[0], backends[2], "t", "k")
	})
}

// TestScanQueuesReadRepair: a replicated Scan doubles as a whole-table
// divergence sweep.
func TestScanQueuesReadRepair(t *testing.T) {
	opts := fastRepair()
	opts.DisableHints = true
	s, backends := openRepair(t, 3, 2, opts)
	ctx := context.Background()

	for i := 0; i < 20; i++ {
		if err := s.Put(ctx, "t", fmt.Sprintf("k%02d", i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetNodeUp(0, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(ctx, "t", fmt.Sprintf("k%02d", i), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetNodeUp(0, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Scan(ctx, "t", func(string, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	// Every key node 0 replicates must converge to the overwrite on disk.
	waitFor(t, "scan-detected stale replicas rewritten", func() bool {
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("k%02d", i)
			for _, n := range s.ring.replicas(k, 2) {
				if n == 0 {
					if raw, ok := rawGet(t, backends[0], "t", k); !ok || !bytes.Equal(raw, mustRaw(t, backends[other(s, k, 0)], "t", k)) {
						return false
					}
				}
			}
		}
		return true
	})
}

// other returns a replica of key that is not node exclude.
func other(s *Store, key string, exclude int) int {
	for _, n := range s.ring.replicas(key, s.cfg.ReplicationFactor) {
		if n != exclude {
			return n
		}
	}
	return -1
}

// TestHintedHandoffDrainsWithoutReads: a write missed by a down replica is
// parked durably and replayed when the node returns — the replica
// converges on disk with NO client read of the key.
func TestHintedHandoffDrainsWithoutReads(t *testing.T) {
	opts := fastRepair()
	opts.DisableReadRepair = true // isolate the hint path
	s, backends := openRepair(t, 3, 2, opts)
	ctx := context.Background()

	key := "handoff-key"
	replicas := s.ring.replicas(key, 2)
	a, b := replicas[0], replicas[1]

	if err := s.SetNodeUp(b, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "t", key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(ctx); st.HintsQueued != 1 || st.HintsPending != 1 {
		t.Fatalf("after missed write: queued=%d pending=%d, want 1/1", st.HintsQueued, st.HintsPending)
	}
	if _, ok := rawGet(t, backends[b], "t", key); ok {
		t.Fatal("down replica has the key?")
	}
	if err := s.SetNodeUp(b, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hint drained to restarted replica", func() bool {
		return rawEqual(t, backends[a], backends[b], "t", key)
	})
	waitFor(t, "hint bookkeeping settled", func() bool {
		st := s.Stats(ctx)
		return st.HintsPending == 0 && st.HintsReplayed == 1
	})
	// The parked record itself is cleaned up.
	waitFor(t, "parked hint removed", func() bool {
		n := 0
		for _, be := range backends {
			be.Scan(ctx, hintsTable, func(string, []byte) bool { n++; return true })
		}
		return n == 0
	})
}

// TestHintBatchPutAndRecovery: hints parked by BatchPut survive a client
// restart (they live in the !hints table through the engine seam) and are
// drained by the next client.
func TestHintBatchPutAndRecovery(t *testing.T) {
	shared := make([]*memory.Backend, 3)
	for i := range shared {
		shared[i] = memory.New()
	}
	newBackend := func(id int) (engine.Backend, error) { return keepOpen{shared[id]}, nil }

	slow := fastRepair()
	slow.HintInterval = time.Hour // park only; the next client drains
	s1, err := Open(context.Background(), Config{Nodes: 3, ReplicationFactor: 2, Repair: slow, NewBackend: newBackend})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s1.SetNodeUp(1, false); err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for i := 0; i < 30; i++ {
		entries = append(entries, Entry{Key: fmt.Sprintf("k%02d", i), Value: []byte("v1")})
	}
	if err := s1.BatchPut(ctx, "t", entries); err != nil {
		t.Fatal(err)
	}
	missed := s1.Stats(ctx).HintsQueued
	if missed == 0 {
		t.Fatal("no hints parked — expected node 1 to replicate some keys")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh client recovers the durable hints and delivers them.
	s2, err := Open(context.Background(), Config{Nodes: 3, ReplicationFactor: 2, Repair: fastRepair(), NewBackend: newBackend})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats(ctx).HintsPending; got != missed {
		t.Fatalf("recovered %d hints, want %d", got, missed)
	}
	waitFor(t, "recovered hints drained", func() bool {
		return s2.Stats(ctx).HintsPending == 0
	})
	for _, e := range entries {
		for _, n := range s2.ring.replicas(e.Key, 2) {
			if _, ok := rawGet(t, shared[n], "t", e.Key); !ok {
				t.Fatalf("replica %d still missing %s after hint recovery", n, e.Key)
			}
		}
	}
}

// keepOpen lets one in-memory backend outlive a Store.Close, simulating a
// durable backend reopened by the next cluster client.
type keepOpen struct{ engine.Backend }

func (keepOpen) Close() error { return nil }

// TestTombstoneGCAllAcked: a delete acknowledged by every replica leaves
// no tombstone behind.
func TestTombstoneGCAllAcked(t *testing.T) {
	s, backends := openRepair(t, 3, 2, fastRepair())
	ctx := context.Background()

	if err := s.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fully-acked tombstone physically removed", func() bool {
		for _, be := range backends {
			if _, ok := rawGet(t, be, "t", "k"); ok {
				return false
			}
		}
		return true
	})
	if st := s.Stats(ctx); st.TombstonesGCed != 1 {
		t.Fatalf("TombstonesGCed = %d, want 1", st.TombstonesGCed)
	}
	if _, err := s.Get(ctx, "t", "k"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("after GC: %v", err)
	}
}

// TestTombstoneGCAfterHintAck: a replica that missed the delete receives
// the tombstone by hint replay; its acknowledgment completes the set and
// the tombstone is collected everywhere.
func TestTombstoneGCAfterHintAck(t *testing.T) {
	opts := fastRepair()
	opts.DisableReadRepair = true
	s, backends := openRepair(t, 3, 2, opts)
	ctx := context.Background()

	key := "del-key"
	b := s.ring.replicas(key, 2)[1]
	if err := s.Put(ctx, "t", key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetNodeUp(b, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "t", key); err != nil {
		t.Fatal(err)
	}
	// The lagging replica still holds the live value on disk.
	if raw, ok := rawGet(t, backends[b], "t", key); !ok || raw[0] != envValue {
		t.Fatal("precondition: lagging replica should hold the old value")
	}
	if err := s.SetNodeUp(b, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tombstone delivered, acked, and collected", func() bool {
		for _, be := range backends {
			if _, ok := rawGet(t, be, "t", key); ok {
				return false
			}
		}
		return true
	})
	st := s.Stats(ctx)
	if st.HintsReplayed != 1 || st.TombstonesGCed != 1 {
		t.Fatalf("replayed=%d gced=%d, want 1/1", st.HintsReplayed, st.TombstonesGCed)
	}
	if _, err := s.Get(ctx, "t", key); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("after GC: %v", err)
	}
}

// TestDeleteConverges: a delete of one key (Delete) and of many (BatchDelete)
// is the same write — gone for readers at once, the replica that was down
// handed its tombstones by hint replay, and every tombstone collected once all
// replicas hold it. (That a node gets its share as one batch, not one write
// per key, is counted at the engine seam by core's TestFlushKVCallsBounded.)
func TestDeleteConverges(t *testing.T) {
	const down = 2
	for _, n := range []int{1, 40} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			opts := fastRepair()
			opts.DisableReadRepair = true
			s, backends := openRepair(t, 3, 2, opts)
			ctx := context.Background()

			// The keys are chosen so that the down node replicates some and not
			// others (or, of one, that one).
			var keys []string
			lagging := 0
			for i := 0; len(keys) < n; i++ {
				key := fmt.Sprintf("k%02d", i)
				onDown := slices.Contains(s.ring.replicas(key, 2), down)
				if n == 1 && !onDown {
					continue
				}
				if onDown {
					lagging++
				}
				keys = append(keys, key)
			}
			if lagging == 0 || (n > 1 && lagging == n) {
				t.Fatalf("precondition: node %d replicates %d of %d keys", down, lagging, n)
			}
			entries := make([]Entry, len(keys))
			for i, key := range keys {
				entries[i] = Entry{Key: key, Value: []byte("v")}
			}
			if err := s.BatchPut(ctx, "t", entries); err != nil {
				t.Fatal(err)
			}
			if err := s.SetNodeUp(down, false); err != nil {
				t.Fatal(err)
			}
			before := s.Stats(ctx).Requests
			deleted := append(slices.Clone(keys), "never-written")
			if n == 1 {
				for _, key := range deleted {
					if err := s.Delete(ctx, "t", key); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := s.BatchDelete(ctx, "t", deleted); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats(ctx).Requests - before; got != int64(len(deleted)) {
				t.Fatalf("deleting %d keys booked %d requests", len(deleted), got)
			}
			for _, key := range keys {
				if _, err := s.Get(ctx, "t", key); !errors.Is(err, types.ErrNotFound) {
					t.Fatalf("%s after its delete: %v", key, err)
				}
			}
			if err := s.SetNodeUp(down, true); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "tombstones delivered, acked, and collected", func() bool {
				for _, be := range backends {
					for _, key := range deleted {
						if _, ok := rawGet(t, be, "t", key); ok {
							return false
						}
					}
				}
				return s.Stats(ctx).TombstonesGCed == int64(len(deleted))
			})
			// never-written replicates to the down node or not: one more either way.
			if st := s.Stats(ctx); st.HintsReplayed < int64(lagging) || st.HintsReplayed > int64(lagging)+1 {
				t.Fatalf("replayed=%d, want %d (or one more)", st.HintsReplayed, lagging)
			}
			if err := s.BatchDelete(ctx, "t", nil); err != nil {
				t.Fatalf("empty BatchDelete: %v", err)
			}
		})
	}
}

// TestTombstoneTTLRequiresAgreement pins the TTL-collection safety gate: an
// expired tombstone is NOT collected while any replica still holds older
// state (collecting it would resurrect the value), and IS collected once a
// read observes every replica agreeing on it. The tracker knows nothing of
// this tombstone (it was written by a "previous client" — directly into
// the backends), so only the TTL path can collect it.
func TestTombstoneTTLRequiresAgreement(t *testing.T) {
	opts := fastRepair()
	opts.TombstoneTTL = time.Nanosecond // everything is expired
	s, backends := openRepair(t, 2, 2, opts)
	ctx := context.Background()

	key := "ttl-key"
	replicas := s.ring.replicas(key, 2)
	a, b := replicas[0], replicas[1]
	// Replica a: tombstone at ts=200. Replica b: stale live value at ts=100.
	if err := backends[a].Put(ctx, "t", key, envelope(envTombstone, 200, nil)); err != nil {
		t.Fatal(err)
	}
	if err := backends[b].Put(ctx, "t", key, envelope(envValue, 100, []byte("stale"))); err != nil {
		t.Fatal(err)
	}

	// First read: tombstone wins, read repair starts converging b, but the
	// replicas did not agree — the tombstone must survive.
	if _, err := s.Get(ctx, "t", key); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("Get = %v, want not found", err)
	}
	waitFor(t, "stale replica overwritten by the tombstone", func() bool {
		raw, ok := rawGet(t, backends[b], "t", key)
		return ok && raw[0] == envTombstone
	})
	if _, ok := rawGet(t, backends[a], "t", key); !ok {
		t.Fatal("tombstone collected while a replica was stale — resurrection hazard")
	}

	// Now reads observe full agreement; TTL collection may proceed.
	waitFor(t, "expired tombstone collected after agreement", func() bool {
		if _, err := s.Get(ctx, "t", key); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("Get = %v", err)
		}
		_, oka := rawGet(t, backends[a], "t", key)
		_, okb := rawGet(t, backends[b], "t", key)
		return !oka && !okb
	})
}

// TestLWWTieBreakDeterministic pins the equal-timestamp resolution order:
// tombstone beats value, then lowest node id — regardless of replica
// iteration order. (Equal timestamps arise from distinct cluster clients
// with colliding wall clocks.)
func TestLWWTieBreakDeterministic(t *testing.T) {
	opts := RepairOptions{DisableReadRepair: true, DisableHints: true}
	s, backends := openRepair(t, 2, 2, opts)
	ctx := context.Background()

	// Tombstone vs value at the same timestamp: the tombstone must win on
	// Get and on Scan, whichever node serves it.
	for flip := 0; flip < 2; flip++ {
		key := fmt.Sprintf("tie-tomb-%d", flip)
		backends[flip].Put(ctx, "t", key, envelope(envTombstone, 500, nil))
		backends[1-flip].Put(ctx, "t", key, envelope(envValue, 500, []byte("alive")))
		if _, err := s.Get(ctx, "t", key); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("tombstone lost the tie (flip=%d): %v", flip, err)
		}
		if err := s.Scan(ctx, "t", func(k string, _ []byte) bool {
			if k == key {
				t.Fatalf("Scan surfaced a key whose tie-winning version is a tombstone (flip=%d)", flip)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Value vs value at the same timestamp: the lowest node id wins.
	backends[0].Put(ctx, "t", "tie-val", envelope(envValue, 600, []byte("from-node-0")))
	backends[1].Put(ctx, "t", "tie-val", envelope(envValue, 600, []byte("from-node-1")))
	if got, err := s.Get(ctx, "t", "tie-val"); err != nil || string(got) != "from-node-0" {
		t.Fatalf("Get tie = %q, %v; want from-node-0", got, err)
	}
	found := false
	if err := s.Scan(ctx, "t", func(k string, v []byte) bool {
		if k == "tie-val" {
			found = true
			if string(v) != "from-node-0" {
				t.Fatalf("Scan tie = %q, want from-node-0", v)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("tie-val not scanned")
	}
}

// TestScanValueIsolation pins the ownership contract of Store.Scan: the
// values handed to fn are copies — mutating or retaining them cannot
// corrupt backend state, on either the replicated or the unreplicated
// path (the memory engine's backend-level Scan DOES alias its storage).
func TestScanValueIsolation(t *testing.T) {
	for _, rf := range []int{1, 2} {
		s, _ := openRepair(t, 2, rf, RepairOptions{DisableReadRepair: true, DisableHints: true})
		ctx := context.Background()
		if err := s.Put(ctx, "t", "k", []byte("pristine")); err != nil {
			t.Fatal(err)
		}
		var retained []byte
		if err := s.Scan(ctx, "t", func(_ string, v []byte) bool {
			retained = v
			for i := range v {
				v[i] = 'X' // hostile consumer scribbles on the value
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get(ctx, "t", "k"); err != nil || string(got) != "pristine" {
			t.Fatalf("rf=%d: backend corrupted through scan value: %q %v", rf, got, err)
		}
		_ = retained
	}
}
