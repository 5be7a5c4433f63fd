package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/kvstore"
)

// RunRepair measures the replication-repair extension: what a node outage
// costs the write path (hint parking), how fast a restarted replica
// converges through hint drain, and what the read-repair path costs on a
// replica left stale with no hint parked for it. An outage is a memory
// node taken down (memory.Backend.SetDown).
func RunRepair(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	nKeys := scaled(4000, opts.RecordFrac, 64)
	valSize := scaled(1024, opts.SizeFrac, 64)
	ctx := context.Background()

	t := &Table{
		ID:        "repair",
		Title:     "replication repair: hinted handoff + read repair convergence (4 nodes, rf=3; the hint drain timed from its first replayed hint)",
		PaperNote: "extension beyond the paper: Dynamo-style repair under the paper's replicated KVS assumption",
		Headers:   []string{"phase", "keys", "wall ms", "hints q/replayed", "repair writes", "tombstones gc'd"},
	}

	val := func(rev int) []byte {
		b := make([]byte, valSize)
		copy(b, fmt.Sprintf("rev-%d:", rev))
		return b
	}
	key := func(i int) string { return fmt.Sprintf("doc-%06d", i) }

	row := func(phase string, keys int, wall time.Duration, st kvstore.Stats) {
		t.AddRow(phase, d(keys), fmt.Sprintf("%.1f", float64(wall.Microseconds())/1000),
			fmt.Sprintf("%d/%d", st.HintsQueued, st.HintsReplayed),
			d(int(st.RepairWrites)), d(int(st.TombstonesGCed)))
	}
	// Polling without sleeping, yielding between polls, keeps the poll out
	// of the phases' times: a sleep rounds up to the timer granularity,
	// which can be a millisecond.
	waitUntil := func(what string, cond func() bool) error {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return nil
			}
			runtime.Gosched()
		}
		return fmt.Errorf("bench repair: timed out waiting for %s", what)
	}
	// Phase 1-3 on one cluster: healthy writes (repair idle), degraded
	// writes (hints parked per missed replica write), and hint-drain
	// convergence after the node returns.
	kv, nodes, err := memCluster(ctx, kvstore.Config{Nodes: 4, ReplicationFactor: 3})
	if err != nil {
		return nil, err
	}
	defer kv.Close()

	start := time.Now()
	if err := loadKeys(ctx, kv, nKeys, key, func(int) []byte { return val(0) }); err != nil {
		return nil, err
	}
	row("healthy writes", nKeys, time.Since(start), kv.Stats(ctx))

	nodes[0].SetDown(true)
	start = time.Now()
	if err := loadKeys(ctx, kv, nKeys, key, func(int) []byte { return val(1) }); err != nil {
		return nil, err
	}
	nDel := nKeys / 10
	if err := deleteKeys(ctx, kv, nDel, key); err != nil {
		return nil, err
	}
	row("degraded writes (1 node down)", nKeys+nDel, time.Since(start), kv.Stats(ctx))

	// A memory node has no breaker to announce its return, so the drain
	// finds it at its next tick, up to a second away; the clock starts at
	// the first replayed hint, so the row times the drain, not that wait.
	nodes[0].SetDown(false)
	if err := waitUntil("first hint replayed", func() bool { return kv.Stats(ctx).HintsReplayed > 0 }); err != nil {
		return nil, err
	}
	start = time.Now()
	if err := waitUntil("hint drain", func() bool { return kv.Stats(ctx).HintsPending == 0 }); err != nil {
		return nil, err
	}
	row("hint drain after restart", int(kv.Stats(ctx).HintsReplayed), time.Since(start), kv.Stats(ctx))

	// Phase 4 on a fresh cluster: node 0 left stale as an old backup
	// restored onto it would leave it — its v0 envelopes written back after
	// v1 reached every node — so no hint is parked, and it converges
	// through read repair alone, paying one write-back per stale replica
	// observed by the full read sweep.
	kv2, nodes2, err := memCluster(ctx, kvstore.Config{Nodes: 4, ReplicationFactor: 3})
	if err != nil {
		return nil, err
	}
	defer kv2.Close()
	if err := loadKeys(ctx, kv2, nKeys, key, func(int) []byte { return val(0) }); err != nil {
		return nil, err
	}
	var backup []engine.Entry
	if err := nodes2[0].Scan(ctx, "t", func(k string, v []byte) bool {
		backup = append(backup, engine.Entry{Key: k, Value: bytes.Clone(v)}) // Scan aliases the node's storage
		return true
	}); err != nil {
		return nil, err
	}
	if err := loadKeys(ctx, kv2, nKeys, key, func(int) []byte { return val(1) }); err != nil {
		return nil, err
	}
	if err := nodes2[0].BatchPut(ctx, "t", backup); err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < nKeys; i++ {
		if _, err := kv2.Get(ctx, "t", key(i)); err != nil {
			return nil, err
		}
	}
	// The write-backs are asynchronous; wait for the counter to quiesce
	// (every key node 0 replicates is observed stale exactly once), and
	// time the sweep to the last write-back, not to the end of the quiet
	// window that shows it was the last.
	stable, lastChange := int64(-1), time.Now()
	if err := waitUntil("read repair write-backs", func() bool {
		cur := kv2.Stats(ctx).RepairWrites
		if cur != stable {
			stable, lastChange = cur, time.Now()
			return false
		}
		return cur > 0 && time.Since(lastChange) > 25*time.Millisecond
	}); err != nil {
		return nil, err
	}
	row("read repair sweep (stale replica)", nKeys, lastChange.Sub(start), kv2.Stats(ctx))

	return []*Table{t}, nil
}

// memCluster opens a cluster of cfg's shape over memory nodes and returns
// them, so that an experiment can take one down.
func memCluster(ctx context.Context, cfg kvstore.Config) (*kvstore.Store, []*memory.Backend, error) {
	nodes := make([]*memory.Backend, cfg.Nodes)
	cfg.NewBackend = func(id int) (engine.Backend, error) {
		nodes[id] = memory.New()
		return nodes[id], nil
	}
	kv, err := kvstore.Open(ctx, cfg)
	return kv, nodes, err
}

// loadKeys writes keys [0, n) of table "t" in BatchPut groups, and deleteKeys
// removes them in one BatchDelete: the repair and antientropy experiments
// measure convergence, not load, and a per-key write
// is a durable batch of one — an fsync per key on the disk engines.
func loadKeys(ctx context.Context, kv *kvstore.Store, n int, key func(int) string, val func(int) []byte) error {
	const batch = 256
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		entries := make([]kvstore.Entry, 0, hi-lo)
		for i := lo; i < hi; i++ {
			entries = append(entries, kvstore.Entry{Key: key(i), Value: val(i)})
		}
		if err := kv.BatchPut(ctx, "t", entries); err != nil {
			return err
		}
	}
	return nil
}

func deleteKeys(ctx context.Context, kv *kvstore.Store, n int, key func(int) string) error {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = key(i)
	}
	return kv.BatchDelete(ctx, "t", keys)
}
