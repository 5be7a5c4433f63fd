package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"rstore/internal/codec"
	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/types"
)

// openRepair builds a cluster over captured in-memory backends so tests
// can observe each replica's on-disk (well, in-map) state directly — the
// whole point of repair is that the BACKEND converges, not just the
// merged read view.
func openRepair(t testing.TB, nodes, rf int) (*Store, []*memory.Backend) {
	t.Helper()
	return openMem(t, Config{Nodes: nodes, ReplicationFactor: rf})
}

// snapshot copies what be holds in table, for restore to put back: a
// replica made stale behind the store's back, as an old backup restored
// onto it would leave it, with no hint parked for what it lacks.
func snapshot(t testing.TB, be *memory.Backend, table string) map[string][]byte {
	t.Helper()
	snap := map[string][]byte{}
	if err := be.Scan(context.Background(), table, func(k string, v []byte) bool {
		snap[k] = bytes.Clone(v) // the memory engine's Scan aliases its storage
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return snap
}

// restore writes a snapshot back onto be.
func restore(t testing.TB, be *memory.Backend, table string, snap map[string][]byte) {
	t.Helper()
	for k, v := range snap {
		if err := be.Put(context.Background(), table, k, v); err != nil {
			t.Fatal(err)
		}
	}
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

// TestReadRepairOverwritesStaleReplica: a replica holding an older version
// must be rewritten on disk by the first read that observes it stale — not
// just outvoted forever. The replica is made stale behind the store's back,
// so no hint is parked and the read is its only way back.
func TestReadRepairOverwritesStaleReplica(t *testing.T) {
	s, backends := openRepair(t, 3, 3)
	ctx := context.Background()

	if err := s.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	old := snapshot(t, backends[1], "t")
	if err := s.Put(ctx, "t", "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	restore(t, backends[1], "t", old)
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
	if st := s.Stats(ctx); st.RepairWrites < 1 || st.HintsQueued != 0 {
		t.Fatalf("RepairWrites = %d, HintsQueued = %d; want >= 1 and 0", st.RepairWrites, st.HintsQueued)
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

// TestReadRepairFillsMissingKey: a replica that lost the key entirely —
// deleted behind the store's back, so no hint is parked — converges through
// read repair too.
func TestReadRepairFillsMissingKey(t *testing.T) {
	s, backends := openRepair(t, 3, 3)
	ctx := context.Background()

	if err := s.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := backends[2].Delete(ctx, "t", "k"); err != nil {
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
// divergence sweep. Node 0 is made stale behind the store's back, so no
// hint is parked and the Scan is its only way back.
func TestScanQueuesReadRepair(t *testing.T) {
	s, backends := openRepair(t, 3, 2)
	ctx := context.Background()

	for i := 0; i < 20; i++ {
		if err := s.Put(ctx, "t", fmt.Sprintf("k%02d", i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	old := snapshot(t, backends[0], "t")
	for i := 0; i < 20; i++ {
		if err := s.Put(ctx, "t", fmt.Sprintf("k%02d", i), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	restore(t, backends[0], "t", old)
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
	s, backends := openRepair(t, 3, 2)
	ctx := context.Background()

	key := "handoff-key"
	replicas := s.ring.replicas(key, 2)
	a, b := replicas[0], replicas[1]

	backends[b].SetDown(true)
	if err := s.Put(ctx, "t", key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(ctx); st.HintsQueued != 1 || st.HintsPending != 1 {
		t.Fatalf("after missed write: queued=%d pending=%d, want 1/1", st.HintsQueued, st.HintsPending)
	}
	backends[b].SetDown(false)
	s.repair.kickDrain() // as a dialed node's breaker closing does
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

// TestHintReplayAfterLongOutage: the drain keeps no backoff of its own, so
// a target that was down for several ticks gets its hints at the first tick
// after it comes back, with no kick — not at the end of a retry schedule
// that grew while it was down.
func TestHintReplayAfterLongOutage(t *testing.T) {
	s, backends := openRepair(t, 3, 2)
	ctx := context.Background()

	key := "outage-key"
	target := s.ring.replicas(key, 2)[1]
	backends[target].SetDown(true)
	if err := s.Put(ctx, "t", key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(ctx).HintsPending; got != 1 {
		t.Fatalf("pending hints = %d, want 1", got)
	}
	time.Sleep(3 * time.Second)
	backends[target].SetDown(false)

	back := time.Now()
	for s.Stats(ctx).HintsPending != 0 {
		if time.Since(back) > 2*hintInterval {
			t.Fatalf("hint still pending %v after the target came back", 2*hintInterval)
		}
		time.Sleep(time.Millisecond)
	}
	if waited, tick := time.Since(back), hintInterval+200*time.Millisecond; waited > tick {
		t.Fatalf("hint replayed %v after the target came back, want within one tick (%v)", waited, tick)
	}
}

// TestHintReplaySkipsDownParkingNode: a target's queue holds hints parked
// on several nodes, each write parking on its first replica that took it. A
// hint whose parking node is down cannot be spent — its winner must be
// judged against that node's state — but it must not hold up the target's
// later hints parked on live nodes.
func TestHintReplaySkipsDownParkingNode(t *testing.T) {
	s, backends := openRepair(t, 4, 3)
	ctx := context.Background()
	const target = 0
	// park is the node a write of key parks its hint for target on, while
	// target is down.
	park := func(key string) int {
		for _, n := range s.ring.replicas(key, 3) {
			if n != target {
				return n
			}
		}
		return -1
	}
	var keyP, keyQ string
	for i := 0; keyQ == ""; i++ {
		key := fmt.Sprintf("k%03d", i)
		switch {
		case !slices.Contains(s.ring.replicas(key, 3), target):
		case keyP == "":
			keyP = key
		case park(key) != park(keyP):
			keyQ = key
		}
	}
	p := park(keyP)

	backends[target].SetDown(true)
	for _, key := range []string{keyP, keyQ} { // keyP's hint first in the queue
		if err := s.Put(ctx, "t", key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats(ctx).HintsPending; got != 2 {
		t.Fatalf("pending hints = %d, want 2", got)
	}
	backends[p].SetDown(true)
	backends[target].SetDown(false)
	s.repair.kickDrain()
	waitFor(t, "the hint parked on a live node replayed", func() bool {
		_, ok := rawGet(t, backends[target], "t", keyQ)
		return ok && s.Stats(ctx).HintsReplayed == 1
	})
	if got := s.Stats(ctx).HintsPending; got != 1 {
		t.Fatalf("pending hints = %d with node %d down, want 1: its own", got, p)
	}

	backends[p].SetDown(false)
	s.repair.kickDrain()
	waitFor(t, "the hint parked on the returned node replayed", func() bool {
		st := s.Stats(ctx)
		return st.HintsPending == 0 && st.HintsReplayed == 2
	})
	if !rawEqual(t, backends[p], backends[target], "t", keyP) {
		t.Fatalf("the target does not hold node %d's copy of %s", p, keyP)
	}
}

// TestHintBatchPutAndRecovery: hints parked by BatchPut survive a client
// restart (they live in the !hints table through the engine seam) and are
// drained by the next client as it opens, not at its first tick.
func TestHintBatchPutAndRecovery(t *testing.T) {
	shared := newBackends(3)
	s1 := openOver(t, shared, 2) // parks only: node 1 is down until s1 closes
	ctx := context.Background()
	shared[1].SetDown(true)
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
	shared[1].SetDown(false)

	// A fresh client recovers the durable hints and delivers them at once:
	// Open kicks the drain.
	opened := time.Now()
	s2 := openOver(t, shared, 2)
	if got := s2.Stats(ctx).HintsQueued; got != missed {
		t.Fatalf("recovered %d hints, want %d", got, missed)
	}
	waitFor(t, "recovered hints drained", func() bool {
		return s2.Stats(ctx).HintsPending == 0
	})
	if took := time.Since(opened); took > hintInterval/2 {
		t.Fatalf("recovered hints drained %v after Open, want well under the %v tick", took, hintInterval)
	}
	for _, e := range entries {
		for _, n := range s2.ring.replicas(e.Key, 2) {
			if _, ok := rawGet(t, shared[n], "t", e.Key); !ok {
				t.Fatalf("replica %d still missing %s after hint recovery", n, e.Key)
			}
		}
	}
}

// TestHintCannotResurrectCollectedDelete: a hint parked for a write that a
// later delete superseded — the delete reached every replica, so its
// tombstone was collected at once — must not bring the write back when it
// is replayed. The hint names the key; its parking node holds nothing
// under it any more, so nothing is delivered.
func TestHintCannotResurrectCollectedDelete(t *testing.T) {
	s, backends := openRepair(t, 2, 2)
	ctx := context.Background()

	backends[1].SetDown(true)
	if err := s.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(ctx).HintsPending; got != 1 {
		t.Fatalf("pending hints = %d, want 1", got)
	}
	backends[1].SetDown(false)
	if err := s.Delete(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tombstone collected", func() bool { return s.Stats(ctx).TombstonesGCed == 1 })

	// The drain's first tick is a second after the hint was parked, so the
	// hint is still pending: its replay comes after the collection.
	if got := s.Stats(ctx).HintsPending; got != 1 {
		t.Fatalf("precondition: pending hints = %d before the kick, want 1", got)
	}
	s.repair.kickDrain()
	waitFor(t, "hint consumed", func() bool { return s.Stats(ctx).HintsPending == 0 })
	if got, err := s.Get(ctx, "t", "k"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("Get after the delete = %q, %v; want not found", got, err)
	}
	for i, be := range backends {
		if raw, ok := rawGet(t, be, "t", "k"); ok {
			t.Fatalf("node %d holds %q after the delete was collected", i, raw)
		}
	}
}

// TestHintDeliversParkingNodeState: replaying a hint copies what its parking
// node holds now. The records are parked by hand in the format of earlier
// builds, which appended the missed envelope: the envelope is ignored, a
// newer state on the parking node is delivered instead, a hint whose key
// the parking node no longer holds is consumed without a write, and a
// record that does not decode, or names a node the cluster does not have,
// is removed.
func TestHintDeliversParkingNodeState(t *testing.T) {
	shared := newBackends(2)
	ctx := context.Background()
	oldRecord := func(key string, env []byte) []byte {
		return codec.PutBytes(codec.PutString(codec.PutString(nil, "t"), key), env)
	}
	newer := envelope(envValue, 200, []byte("newer"))
	if err := shared[0].Put(ctx, "t", "kept", newer); err != nil {
		t.Fatal(err)
	}
	if err := shared[0].BatchPut(ctx, hintsTable, []engine.Entry{
		{Key: hintKey(1, 1), Value: oldRecord("kept", envelope(envValue, 100, []byte("older")))},
		{Key: hintKey(1, 2), Value: oldRecord("gone", envelope(envValue, 100, []byte("deleted since")))},
		{Key: hintKey(1, 3), Value: []byte{0xff}},
		{Key: hintKey(5, 4), Value: encodeHint("t", "kept")},
	}); err != nil {
		t.Fatal(err)
	}
	s := openOver(t, shared, 2)

	waitFor(t, "recovered hints drained", func() bool { return s.Stats(ctx).HintsPending == 0 })
	if raw, ok := rawGet(t, shared[1], "t", "kept"); !ok || !bytes.Equal(raw, newer) {
		t.Fatalf("target holds %q (present %v), want the parking node's %q", raw, ok, newer)
	}
	if raw, ok := rawGet(t, shared[1], "t", "gone"); ok {
		t.Fatalf("a hint the parking node no longer backs wrote %q", raw)
	}
	if st := s.Stats(ctx); st.RepairWrites != 1 || st.HintsReplayed != 2 {
		t.Fatalf("RepairWrites %d, HintsReplayed %d; want 1 and 2", st.RepairWrites, st.HintsReplayed)
	}
	left := 0
	if err := shared[0].Scan(ctx, hintsTable, func(string, []byte) bool { left++; return true }); err != nil {
		t.Fatal(err)
	}
	if left != 0 {
		t.Fatalf("%d hint records left on the parking node, want 0", left)
	}
}

// TestScanRepairsEveryDivergentKey: a replicated Scan is a whole-table
// divergence sweep, so one Scan over a wiped replica writes back every key
// it lacks — however many — and sheds none.
func TestScanRepairsEveryDivergentKey(t *testing.T) {
	const nKeys = 2000
	s, backends := openRepair(t, 2, 2)
	ctx := context.Background()
	entries := make([]Entry, nKeys)
	for i := range entries {
		entries[i] = Entry{Key: fmt.Sprintf("k%05d", i), Value: []byte("v")}
	}
	if err := s.BatchPut(ctx, "t", entries); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries { // wipe the replica
		if err := backends[1].Delete(ctx, "t", e.Key); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Scan(ctx, "t", func(string, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every key written back", func() bool { return s.Stats(ctx).RepairWrites == nKeys })
	for _, e := range entries {
		if !rawEqual(t, backends[0], backends[1], "t", e.Key) {
			t.Fatalf("%s not repaired on the wiped replica", e.Key)
		}
	}
}

// TestScanRereadsAWipedReplicaInBatches: a replica wiped of a table answers
// absent for every key its peer holds, so Scan sets every key aside for a
// second read (verdict.gap) — in the last node's callback when the wiped
// replica was swept first, at the end of the sweep when it is the last. The
// second read asks for rereadBatch keys a batch, not the whole table at once,
// and still hands every key to fn once and queues its repair.
func TestScanRereadsAWipedReplicaInBatches(t *testing.T) {
	const nKeys = 2*rereadBatch + rereadBatch/2
	for wiped := range 2 {
		t.Run(fmt.Sprintf("node %d wiped", wiped), func(t *testing.T) {
			ctx := context.Background()
			mems := newBackends(2)
			nodes := []*batchSizes{{Backend: mems[0]}, {Backend: mems[1]}}
			s, err := Open(ctx, Config{Nodes: 2, ReplicationFactor: 2,
				NewBackend: func(id int) (engine.Backend, error) { return nodes[id], nil }})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			entries := make([]Entry, nKeys)
			for i := range entries {
				entries[i] = Entry{Key: fmt.Sprintf("k%05d", i), Value: []byte("v")}
			}
			if err := s.BatchPut(ctx, "t", entries); err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if err := mems[wiped].Delete(ctx, "t", e.Key); err != nil {
					t.Fatal(err)
				}
			}
			seen := make(map[string]int)
			if err := s.Scan(ctx, "t", func(k string, _ []byte) bool { seen[k]++; return true }); err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if seen[e.Key] != 1 {
					t.Fatalf("Scan handed %s over %d times, want once", e.Key, seen[e.Key])
				}
			}
			// A repair reads one key; the second reads are the batches of more.
			for id, n := range nodes {
				var batches []int
				for _, size := range n.taken() {
					if size > 1 {
						batches = append(batches, size)
					}
				}
				if want := []int{rereadBatch, rereadBatch, rereadBatch / 2}; !slices.Equal(batches, want) {
					t.Fatalf("node %d answered second reads of %v keys, want %v", id, batches, want)
				}
			}
			waitFor(t, "every key written back", func() bool { return s.Stats(ctx).RepairWrites == nKeys })
		})
	}
}

// batchSizes is a node that records how many keys each batched read asks
// it for.
type batchSizes struct {
	engine.Backend
	mu    sync.Mutex
	sizes []int
}

func (b *batchSizes) MultiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	b.mu.Lock()
	b.sizes = append(b.sizes, len(keys))
	b.mu.Unlock()
	return b.Backend.MultiGet(ctx, table, keys)
}

func (b *batchSizes) taken() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.sizes)
}

// keepOpen lets one in-memory backend outlive a Store.Close, simulating a
// durable backend reopened by the next cluster client.
type keepOpen struct{ engine.Backend }

func (keepOpen) Close() error { return nil }

// refuseDelete is a node whose physical deletes fail, so that no collection
// a client over it queues ever takes effect.
type refuseDelete struct{ engine.Backend }

func (refuseDelete) Delete(context.Context, string, string) error {
	return errors.New("delete refused")
}

// refusePut is a node whose writes fail, so that no repair reaches it.
type refusePut struct{ engine.Backend }

func (refusePut) Put(context.Context, string, string, []byte) error {
	return errors.New("put refused")
}

// openOver opens a cluster client over backends that outlive it, as each
// client of a durable cluster reopens the same nodes.
func openOver(t testing.TB, backends []*memory.Backend, rf int) *Store {
	t.Helper()
	s, err := Open(context.Background(), Config{Nodes: len(backends), ReplicationFactor: rf,
		NewBackend: func(id int) (engine.Backend, error) { return keepOpen{backends[id]}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newBackends(n int) []*memory.Backend {
	backends := make([]*memory.Backend, n)
	for i := range backends {
		backends[i] = memory.New()
	}
	return backends
}

// rawLeft counts the entries, tombstones included, that the backends hold
// in table.
func rawLeft(t testing.TB, backends []*memory.Backend, table string) int {
	t.Helper()
	n := 0
	for _, be := range backends {
		if err := be.Scan(context.Background(), table, func(string, []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestTombstoneGCAllAcked: a delete every replica took leaves no tombstone
// behind — at rf 1 too, where the delete's one replica is every replica.
func TestTombstoneGCAllAcked(t *testing.T) {
	for _, tc := range []struct {
		name         string
		nodes, rf, n int
	}{
		{name: "rf=2", nodes: 3, rf: 2, n: 1},
		{name: "rf=1", nodes: 1, rf: 1, n: 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, backends := openRepair(t, tc.nodes, tc.rf)
			ctx := context.Background()
			for i := 0; i < tc.n; i++ {
				key := fmt.Sprintf("k%03d", i)
				if err := s.Put(ctx, "t", key, []byte("v1")); err != nil {
					t.Fatal(err)
				}
				if err := s.Delete(ctx, "t", key); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "tombstones physically removed", func() bool {
				return rawLeft(t, backends, "t") == 0 && s.Stats(ctx).TombstonesGCed >= int64(tc.n)
			})
			if st := s.Stats(ctx); st.TombstonesGCed != int64(tc.n) {
				t.Fatalf("TombstonesGCed = %d, want %d", st.TombstonesGCed, tc.n)
			}
			if _, err := s.Get(ctx, "t", "k000"); !errors.Is(err, types.ErrNotFound) {
				t.Fatalf("after GC: %v", err)
			}
		})
	}
}

// TestTombstoneGCAfterHintAck: a replica that missed the delete receives
// the tombstone by hint replay; the delivery leaves every replica holding
// it, and the tombstone is collected everywhere.
func TestTombstoneGCAfterHintAck(t *testing.T) {
	s, backends := openRepair(t, 3, 2)
	ctx := context.Background()

	key := "del-key"
	b := s.ring.replicas(key, 2)[1]
	if err := s.Put(ctx, "t", key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	backends[b].SetDown(true)
	if err := s.Delete(ctx, "t", key); err != nil {
		t.Fatal(err)
	}
	backends[b].SetDown(false)
	s.repair.kickDrain()
	waitFor(t, "tombstone delivered and collected", func() bool {
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

// TestRecreateDuringOutageConverges: a key deleted and then written again
// while one replica is down. Both hints deliver the newer value, so the
// returned replica ends holding it, never the tombstone.
func TestRecreateDuringOutageConverges(t *testing.T) {
	s, backends := openRepair(t, 2, 2)
	ctx := context.Background()

	if err := s.Put(ctx, "t", "k", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	backends[1].SetDown(true)
	if err := s.Delete(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	backends[1].SetDown(false)
	s.repair.kickDrain()
	waitFor(t, "hints drained", func() bool { return s.Stats(ctx).HintsPending == 0 })
	if !rawEqual(t, backends[0], backends[1], "t", "k") {
		t.Fatal("the returned replica does not hold the recreated value")
	}
}

// gate stops the first call that reaches it: entered closes when it
// arrives, and it goes on once release closes.
type gate struct {
	entered, release chan struct{}
	once             sync.Once
}

func newGate() *gate { return &gate{entered: make(chan struct{}), release: make(chan struct{})} }

func (g *gate) pass() { g.once.Do(func() { close(g.entered); <-g.release }) }

// gatedDelete is a node whose first physical delete stops at a gate.
type gatedDelete struct {
	engine.Backend
	*gate
}

func (g gatedDelete) Delete(ctx context.Context, table, key string) error {
	g.pass()
	return g.Backend.Delete(ctx, table, key)
}

// TestRecreateDuringCollectionSurvives: at rf 1, a key deleted and written
// again while its tombstone's collection has re-checked the replica but not
// yet deleted. The write waits for the collection, so the new value is not
// deleted with the tombstone — there is no other replica to bring it back.
func TestRecreateDuringCollectionSurvives(t *testing.T) {
	ctx := context.Background()
	g := gatedDelete{memory.New(), newGate()}
	s, err := Open(ctx, Config{Nodes: 1, NewBackend: func(int) (engine.Backend, error) { return g, nil }})
	if err != nil {
		t.Fatal(err)
	}
	var release sync.Once
	open := func() { release.Do(func() { close(g.release) }) }
	defer s.Close()
	defer open()

	if err := s.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the tombstone's collection never reached its delete")
	}
	put := make(chan error, 1)
	go func() { put <- s.Put(ctx, "t", "k", []byte("v2")) }()
	time.Sleep(10 * time.Millisecond) // room for the write to land inside the collection
	open()
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(ctx, "t", "k"); err != nil || string(got) != "v2" {
		t.Fatalf("Get after the recreate = %q, %v; want v2", got, err)
	}
}

// TestCollectionChecksEveryReplica: a converge that delivers a tombstone
// collects it only once every replica answered and took or held it. Here
// one replica still holding an older value is down while the key
// converges: the tombstone reaches the other stale replica, but no copy of
// it is deleted, or that value would come back — and the down replica's
// value is left as it was, for its own repair.
func TestCollectionChecksEveryReplica(t *testing.T) {
	s, backends := openRepair(t, 3, 3)
	ctx := context.Background()
	stale := envelope(envValue, 100, []byte("stale"))
	for n, raw := range [][]byte{envelope(envTombstone, 200, nil), stale, stale} {
		if err := backends[n].Put(ctx, "t", "k", raw); err != nil {
			t.Fatal(err)
		}
	}
	backends[2].SetDown(true)
	missed, judged := s.repair.converge(ctx, repairTask{table: "t", key: "k", fresh: true}, true)
	backends[2].SetDown(false)
	if !judged || !slices.Equal(missed, []int{2}) {
		t.Fatalf("converge reports %v missed (judged %v), want [2]", missed, judged)
	}
	for n := 0; n < 2; n++ {
		if raw, ok := rawGet(t, backends[n], "t", "k"); !ok || raw[0] != envTombstone {
			t.Fatalf("node %d: tombstone collected while node 2 held an older value — resurrection hazard", n)
		}
	}
	if raw, _ := rawGet(t, backends[2], "t", "k"); !bytes.Equal(raw, stale) {
		t.Fatalf("node 2 holds %q, want its stale value untouched", raw)
	}
	if st := s.Stats(ctx); st.RepairWrites != 1 || st.TombstonesGCed != 0 {
		t.Fatalf("RepairWrites %d, TombstonesGCed %d; want 1 and 0", st.RepairWrites, st.TombstonesGCed)
	}
	if _, err := s.Get(ctx, "t", "k"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("Get = %v, want not found", err)
	}
}

// TestObserverSparesYoungTombstone: two clients of one rf-1 node. The
// writer's delete leaves its tombstone (its node refuses the physical
// delete, standing in for a collection not yet run), and another client
// Scans and Gets the key while the writer writes it again. Had the reader
// collected the fresh tombstone, a write landing between its re-check and
// its delete would go with the tombstone, from the only replica; it must
// leave the tombstone to its writer, and the new write must survive.
func TestObserverSparesYoungTombstone(t *testing.T) {
	ctx := context.Background()
	mem := memory.New()
	writer, err := Open(ctx, Config{Nodes: 1, NewBackend: func(int) (engine.Backend, error) { return refuseDelete{keepOpen{mem}}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := writer.Delete(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}

	g := gatedDelete{keepOpen{mem}, newGate()}
	reader, err := Open(ctx, Config{Nodes: 1, NewBackend: func(int) (engine.Backend, error) { return g, nil }})
	if err != nil {
		t.Fatal(err)
	}
	var release sync.Once
	open := func() { release.Do(func() { close(g.release) }) }
	defer reader.Close()
	defer open()
	if err := reader.Scan(ctx, "t", func(string, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Get(ctx, "t", "k"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("reader Get = %v, want not found", err)
	}
	collecting := false
	select {
	case <-g.entered: // the reader's collection re-checked the replica and stopped at its delete
		collecting = true
	case <-time.After(50 * time.Millisecond):
	}
	if err := writer.Put(ctx, "t", "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	open()
	if collecting {
		waitFor(t, "the reader's collection to end", func() bool { return reader.Stats(ctx).TombstonesGCed > 0 })
	}
	if err := reader.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := writer.Get(ctx, "t", "k"); err != nil || string(got) != "v2" {
		t.Fatalf("Get after the rewrite = %q, %v; want v2", got, err)
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
			s, backends := openRepair(t, 3, 2)
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
			backends[down].SetDown(true)
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
			backends[down].SetDown(false)
			s.repair.kickDrain()
			waitFor(t, "tombstones delivered and collected", func() bool {
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

// TestLargeBatchDeleteCollectsEveryTombstone: deletes in groups of 1 024
// keys, the group size core deletes in, every tombstone taken by both
// replicas at once. Each one's collection is queued as the batch returns,
// thousands at once; none may be lost, or its tombstones stay on the nodes
// for good — nobody reads those keys again.
func TestLargeBatchDeleteCollectsEveryTombstone(t *testing.T) {
	const nKeys, group = 5000, 1024
	s, backends := openRepair(t, 3, 2)
	ctx := context.Background()
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	for lo := 0; lo < nKeys; lo += group {
		var entries []Entry
		for _, key := range keys[lo:min(lo+group, nKeys)] {
			entries = append(entries, Entry{Key: key, Value: []byte("v")})
		}
		if err := s.BatchPut(ctx, "t", entries); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < nKeys; lo += group {
		if err := s.BatchDelete(ctx, "t", keys[lo:min(lo+group, nKeys)]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	// A collection counts itself after its deletes, so wait for both.
	for (rawLeft(t, backends, "t") > 0 || s.Stats(ctx).TombstonesGCed < nKeys) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Stats(ctx)
	if n := rawLeft(t, backends, "t"); n > 0 || st.TombstonesGCed != nKeys {
		t.Fatalf("%d tombstone copies left on the nodes, TombstonesGCed %d of %d", n, st.TombstonesGCed, nKeys)
	}
}

// TestRestartedClientCollectsTombstone: a delete one replica missed, its
// writer closed before the hint drained. The next client replays the hint,
// and that delivery — the first time both replicas hold the tombstone —
// ends in its collection, though this client never wrote the delete.
func TestRestartedClientCollectsTombstone(t *testing.T) {
	backends := newBackends(2)
	ctx := context.Background()
	s1 := openOver(t, backends, 2) // parks only: node 1 is down until s1 closes
	if err := s1.Put(ctx, "t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	backends[1].SetDown(true)
	if err := s1.Delete(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	backends[1].SetDown(false)

	s2 := openOver(t, backends, 2)
	waitFor(t, "hint replayed and tombstone collected", func() bool {
		st := s2.Stats(ctx)
		return st.HintsReplayed == 1 && st.TombstonesGCed >= 1 && rawLeft(t, backends, "t") == 0
	})
	if got := s2.Stats(ctx).TombstonesGCed; got != 1 {
		t.Fatalf("TombstonesGCed = %d, want 1", got)
	}
}

// advanceClock moves the package's wall clock d ahead until the test ends.
// Call it with no client running.
func advanceClock(t testing.TB, d time.Duration) {
	prev := walltime
	walltime = func() time.Time { return prev().Add(d) }
	t.Cleanup(func() { walltime = prev })
}

// TestScanAfterCloseCollectsTombstones: Close drops the collections still
// queued, so a large BatchDelete closed at once leaves tombstones on every
// replica. Here the writer's nodes refuse physical deletes, so it leaves
// them all, whatever the timing. The next client's Scan — what core's Load
// runs — sees each one on all its replicas; it leaves them while younger
// than tombGrace, and collects them once older; at rf 1 too, where Scan
// reads each node alone.
func TestScanAfterCloseCollectsTombstones(t *testing.T) {
	const nKeys = 1024
	for _, tc := range []struct{ nodes, rf int }{{3, 2}, {2, 1}} {
		t.Run(fmt.Sprintf("rf=%d", tc.rf), func(t *testing.T) {
			backends := newBackends(tc.nodes)
			ctx := context.Background()
			s1, err := Open(ctx, Config{Nodes: tc.nodes, ReplicationFactor: tc.rf,
				NewBackend: func(id int) (engine.Backend, error) { return refuseDelete{keepOpen{backends[id]}}, nil }})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s1.Close() })
			keys := make([]string, nKeys)
			entries := make([]Entry, nKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%05d", i)
				entries[i] = Entry{Key: keys[i], Value: []byte("v")}
			}
			if err := s1.BatchPut(ctx, "t", entries); err != nil {
				t.Fatal(err)
			}
			if err := s1.BatchDelete(ctx, "t", keys); err != nil {
				t.Fatal(err)
			}
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			if n := rawLeft(t, backends, "t"); n != nKeys*tc.rf {
				t.Fatalf("%d tombstone copies left by the writer, want %d", n, nKeys*tc.rf)
			}

			scan := func(s *Store) {
				if err := s.Scan(ctx, "t", func(k string, _ []byte) bool {
					t.Fatalf("Scan served deleted key %s", k)
					return false
				}); err != nil {
					t.Fatal(err)
				}
			}
			s2 := openOver(t, backends, tc.rf)
			scan(s2)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			if n := rawLeft(t, backends, "t"); n != nKeys*tc.rf {
				t.Fatalf("a Scan within tombGrace left %d tombstone copies, want %d", n, nKeys*tc.rf)
			}

			advanceClock(t, tombGrace)
			scan(openOver(t, backends, tc.rf))
			waitFor(t, "every tombstone collected", func() bool { return rawLeft(t, backends, "t") == 0 })
		})
	}
}

// TestTombstoneCollectionWaitsForAgreement pins the collection's safety
// gate: a tombstone is NOT collected while a replica still holds older state
// (collecting it would resurrect the value), and IS collected, whatever its
// age, once every replica is seen holding it. Both states are planted
// straight into the backends, as a previous client would have left them.
func TestTombstoneCollectionWaitsForAgreement(t *testing.T) {
	backends := newBackends(2)
	ctx := context.Background()
	const key = "k"
	// Node 0: tombstone at ts=200. Node 1: stale live value at ts=100.
	if err := backends[0].Put(ctx, "t", key, envelope(envTombstone, 200, nil)); err != nil {
		t.Fatal(err)
	}
	stale := envelope(envValue, 100, []byte("stale"))
	if err := backends[1].Put(ctx, "t", key, stale); err != nil {
		t.Fatal(err)
	}

	// Node 1 refuses writes, so nothing can repair the disagreement: reads
	// and scans see it every time, and each write-back they queue fails. The
	// tombstone must survive them all.
	s1, err := Open(ctx, Config{Nodes: 2, ReplicationFactor: 2, NewBackend: func(id int) (engine.Backend, error) {
		if id == 1 {
			return refusePut{keepOpen{backends[1]}}, nil
		}
		return keepOpen{backends[0]}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close() })
	for i := 0; i < 20; i++ {
		if _, err := s1.Get(ctx, "t", key); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("Get = %v, want not found", err)
		}
		if err := s1.Scan(ctx, "t", func(string, []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a wrongly queued collection to run
	if raw, ok := rawGet(t, backends[0], "t", key); !ok || raw[0] != envTombstone {
		t.Fatal("tombstone collected while a replica was stale — resurrection hazard")
	}
	if raw, _ := rawGet(t, backends[1], "t", key); !bytes.Equal(raw, stale) {
		t.Fatalf("node 1 holds %q though it refuses writes, want the stale value", raw)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// With node 1 taking writes, the read writes the tombstone back over the
	// stale value, and the replicas, agreeing, are collected.
	s2 := openOver(t, backends, 2)
	if _, err := s2.Get(ctx, "t", key); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("Get = %v, want not found", err)
	}
	waitFor(t, "tombstone collected after agreement", func() bool { return rawLeft(t, backends, "t") == 0 })
}

// TestLWWTieBreakDeterministic pins the equal-timestamp resolution order:
// tombstone beats value, then lowest node id — regardless of replica
// iteration order. (Equal timestamps arise from distinct cluster clients
// with colliding wall clocks.)
func TestLWWTieBreakDeterministic(t *testing.T) {
	s, backends := openRepair(t, 2, 2)
	ctx := context.Background()

	// Tombstone vs value at the same timestamp: the tombstone must win on
	// Get and on Scan, whichever node serves it — also while the repair the
	// Get queues delivers and collects the tombstone beside the Scan.
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

// TestScanValueIsolation pins the ownership contract of Store.Scan: every
// value handed to fn is its own copy — retaining one keeps it as it was
// handed over, whatever the sweep hands over after it, and mutating it
// cannot corrupt backend state (the memory engine's backend-level Scan DOES
// alias its storage). At rf 2, keys are handed over both as their last
// replica reports them and at the end of its sweep, and a key whose first
// replica lost it is decided from its last alone.
func TestScanValueIsolation(t *testing.T) {
	for _, rf := range []int{1, 2} {
		s, backends := openRepair(t, 3, rf)
		ctx := context.Background()
		want := map[string]string{}
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("k%02d", i)
			want[k] = fmt.Sprintf("pristine-%02d", i)
			if err := s.Put(ctx, "t", k, []byte(want[k])); err != nil {
				t.Fatal(err)
			}
			if rf > 1 && i%4 == 0 {
				if err := backends[s.ring.replicas(k, rf)[0]].Delete(ctx, "t", k); err != nil {
					t.Fatal(err)
				}
			}
		}
		retained := map[string][]byte{}
		if err := s.Scan(ctx, "t", func(k string, v []byte) bool {
			retained[k] = v
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(retained) != len(want) {
			t.Fatalf("rf=%d: scanned %d keys, want %d", rf, len(retained), len(want))
		}
		for k, v := range retained {
			if string(v) != want[k] {
				t.Fatalf("rf=%d: %s retained as %q, now %q", rf, k, want[k], v)
			}
			for i := range v {
				v[i] = 'X' // hostile consumer scribbles on the value
			}
		}
		for k := range want {
			if got, err := s.Get(ctx, "t", k); err != nil || string(got) != want[k] {
				t.Fatalf("rf=%d: backend corrupted through scan value: %s = %q %v", rf, k, got, err)
			}
		}
	}
}
