package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/kvstore"
)

// RunAntiEntropy measures the Merkle-tree anti-entropy extension on lsm
// nodes: what a clean background sweep costs (bytes hashed per rotation
// when nothing diverged — the steady-state tax, which lsm's
// generation-keyed digest memo keeps small), and how fast the loop finds
// and repairs a 1%-diverged replica whose damage was injected behind the
// store's back (no hints parked, zero client reads).
func RunAntiEntropy(opts Options) ([]*Table, error) {
	opts = opts.withDefaults()
	baseKeys := scaled(4000, opts.RecordFrac, 64)
	valSize := scaled(1024, opts.SizeFrac, 64)
	ctx := context.Background()

	dir, err := os.MkdirTemp("", "rstore-bench-antientropy-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t := &Table{
		ID:        "antientropy",
		Title:     fmt.Sprintf("merkle anti-entropy: clean-sweep cost and 1%%-divergence convergence (3 lsm nodes, rf=3, %dB values)", valSize),
		PaperNote: "extension beyond the paper: background replica sync under the paper's replicated KVS assumption",
		Headers:   []string{"keys", "load", "clean sweep MB", "diverged", "converge ms", "keys repaired", "repair MB hashed"},
		Metrics:   map[string]float64{},
	}
	for _, nKeys := range []int{baseKeys, 4 * baseKeys} {
		if err := runAntiEntropyOn(ctx, t, dir, nKeys, valSize); err != nil {
			return nil, fmt.Errorf("bench antientropy: lsm/%d: %w", nKeys, err)
		}
	}
	return []*Table{t}, nil
}

func runAntiEntropyOn(ctx context.Context, t *Table, dir string, nKeys, valSize int) error {
	backends := make([]engine.Backend, 3)
	kv, err := kvstore.Open(ctx, kvstore.Config{
		Nodes: 3, ReplicationFactor: 3, AntiEntropyInterval: time.Millisecond,
		NewBackend: func(id int) (engine.Backend, error) {
			be, err := lsm.Open(filepath.Join(dir, fmt.Sprintf("lsm-%d-%d", nKeys, id)), lsm.Options{MemtableBytes: 256 << 10})
			backends[id] = be
			return be, err
		},
	})
	if err != nil {
		return err
	}
	defer kv.Close()

	waitUntil := func(what string, cond func() bool) error {
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
		return fmt.Errorf("timed out waiting for %s", what)
	}
	key := func(i int) string { return fmt.Sprintf("doc-%06d", i) }
	val := make([]byte, valSize)
	copy(val, "antientropy:")

	loadStart := time.Now()
	if err := loadKeys(ctx, kv, nKeys, key, func(int) []byte { return val }); err != nil {
		return err
	}
	load := time.Since(loadStart)

	// Clean-sweep cost: let the loop run three full pair rotations over
	// the converged corpus and charge the hashed bytes to the steady state.
	base := kv.Stats(ctx)
	cleanTarget := base.AESyncs + 9 // 3 pairs x 3 rotations
	if err := waitUntil("clean rotations", func() bool { return kv.Stats(ctx).AESyncs >= cleanTarget }); err != nil {
		return err
	}
	clean := kv.Stats(ctx)
	cleanRounds := clean.AESyncs - base.AESyncs
	cleanMBPerRotation := float64(clean.AEBytesHashed-base.AEBytesHashed) / float64(cleanRounds) * 3 / (1 << 20)

	// Diverge 1% of the keys on node 1 behind the store's back, then time
	// the loop finding and repairing every one of them.
	nDiverge := nKeys / 100
	if nDiverge == 0 {
		nDiverge = 1
	}
	for i := 0; i < nDiverge; i++ {
		if err := backends[1].Delete(ctx, "t", key(i)); err != nil {
			return err
		}
	}
	pre := kv.Stats(ctx)
	start := time.Now()
	if err := waitUntil("divergence repaired", func() bool {
		for i := 0; i < nDiverge; i++ {
			if _, ok, err := backends[1].Get(ctx, "t", key(i)); err != nil || !ok {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	converge := time.Since(start)
	post := kv.Stats(ctx)

	repaired := int(post.AEKeysRepaired - pre.AEKeysRepaired)
	repairMB := float64(post.AEBytesHashed-pre.AEBytesHashed) / (1 << 20)
	t.AddRow(d(nKeys), secs(load.Seconds()), fmt.Sprintf("%.2f", cleanMBPerRotation),
		d(nDiverge), fmt.Sprintf("%.1f", float64(converge.Microseconds())/1000),
		d(repaired), fmt.Sprintf("%.2f", repairMB))
	prefix := fmt.Sprintf("lsm_%d_", nKeys)
	t.Metrics[prefix+"converge_ms"] = float64(converge.Microseconds()) / 1000
	t.Metrics[prefix+"clean_sweep_mb"] = cleanMBPerRotation
	t.Metrics[prefix+"repair_mb_hashed"] = repairMB
	t.Metrics[prefix+"keys_repaired"] = float64(repaired)
	return nil
}
