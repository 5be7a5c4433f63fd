package rstore_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"rstore"
	"rstore/internal/engine/lsm"
)

// Divergence-injection acceptance test for Merkle-tree anti-entropy.
//
// The scenarios read repair and hinted handoff cannot cover share one
// shape: a replica's on-disk state changes (or rots) with no corresponding
// store operation — a disk restored from an old backup, a file-level
// corruption, an operator's stray write. No hint was ever queued, and if no
// client happens to read the damaged keys, nothing foreground notices. This
// test injects exactly that class of damage behind a live TCP cluster's
// back and requires the background hash-tree sync, alone — hints disabled,
// read repair disabled, zero client reads of the damaged keys — to bring
// every replica's bytes back into agreement.

// scanTable snapshots a replica's full on-disk table through its backend
// handle, values copied (Scan may alias backend buffers).
func scanTable(t *testing.T, c *daemonCluster, node int, table string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := c.backends[node].Scan(context.Background(), table, func(key string, value []byte) bool {
		out[key] = append([]byte(nil), value...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tablesEqual reports whether two replicas hold byte-identical tables.
func tablesEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || !bytes.Equal(v, bv) {
			return false
		}
	}
	return true
}

func TestAntiEntropyEndToEnd(t *testing.T) {
	const nKeys = 40
	c := startDaemons(t, 3, lsm.Options{})
	ctx := context.Background()
	key := func(i int) string { return fmt.Sprintf("doc-%02d", i) }

	kv, err := rstore.OpenCluster(ctx, c.config(rstore.RepairOptions{
		AntiEntropyInterval: 10 * time.Millisecond,
		DisableReadRepair:   true,
		DisableHints:        true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	for i := 0; i < nKeys; i++ {
		if err := kv.Put(ctx, "t", key(i), []byte(fmt.Sprintf("v1-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Capture live envelopes now — they become the "restored from an old
	// backup" payloads after the overwrites below move the cluster on.
	stale := map[string][]byte{}
	for i := 0; i < 5; i++ {
		raw, ok := c.raw(1, "t", key(i))
		if !ok {
			t.Fatalf("node 1 missing %s before injection", key(i))
		}
		stale[key(i)] = raw
	}
	for i := 0; i < 5; i++ {
		if err := kv.Put(ctx, "t", key(i), []byte(fmt.Sprintf("v2-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// A delete node 2 never hears about (it is dead and hints are off):
	// the tombstone on nodes 0/1 is held by 2 of 3 replicas, un-GC-able, and
	// node 2 comes back still holding the live value — a resurrection
	// candidate only anti-entropy can put down.
	if err := kv.Put(ctx, "t", "ghost", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	c.kill(2)
	if err := kv.Delete(ctx, "t", "ghost"); err != nil {
		t.Fatal(err)
	}
	c.restart(2)
	if _, ok := c.raw(2, "t", "ghost"); !ok {
		t.Fatal("precondition: restarted node should still hold the deleted value")
	}

	// Silent corruption on node 1, injected straight into its backend
	// while its daemon serves traffic. The store sees none of it.
	for i := 0; i < 5; i++ {
		if err := c.backends[1].Put(ctx, "t", key(i), stale[key(i)]); err != nil { // regressed to v1
			t.Fatal(err)
		}
	}
	for i := 5; i < 10; i++ {
		if err := c.backends[1].Delete(ctx, "t", key(i)); err != nil { // silently lost
			t.Fatal(err)
		}
	}
	if err := c.backends[1].Put(ctx, "t", key(10), []byte{0xff, 0x01, 0x02}); err != nil { // bit rot
		t.Fatal(err)
	}

	// Convergence, with NO client reads: every replica's full table — keys,
	// envelopes, timestamps, byte for byte — and the resident volumes agree.
	poll(t, "anti-entropy converged all replicas byte-identically", func() bool {
		t0 := scanTable(t, c, 0, "t")
		if _, ok := t0["ghost"]; ok {
			return false // tombstone spread but not yet GC'd
		}
		if !tablesEqual(t0, scanTable(t, c, 1, "t")) || !tablesEqual(t0, scanTable(t, c, 2, "t")) {
			return false
		}
		nb := c.bytesStored()
		return nb[0] == nb[1] && nb[1] == nb[2]
	})

	// The winners must be the cluster's versions, not the injected ones.
	for i := 0; i < 5; i++ {
		raw, ok := c.raw(1, "t", key(i))
		if !ok || !bytes.HasSuffix(raw, []byte(fmt.Sprintf("v2-%02d", i))) {
			t.Fatalf("node 1 %s = %q, %v; want the v2 envelope", key(i), raw, ok)
		}
	}
	for i := 5; i < 11; i++ {
		if _, ok := c.raw(1, "t", key(i)); !ok {
			t.Fatalf("node 1 still missing %s", key(i))
		}
	}
	// The resurrection is dead everywhere: the tombstone spread to node 2,
	// completed its ack set through the repair writes, and was collected.
	for n := 0; n < 3; n++ {
		if raw, ok := c.raw(n, "t", "ghost"); ok {
			t.Fatalf("node %d still holds ghost = %q", n, raw)
		}
	}

	st := kv.Stats(ctx)
	if st.AESyncs < 1 || st.AERangesDiffed < 1 || st.AEKeysRepaired < 11 || st.AEBytesHashed < 1 {
		t.Fatalf("AE stats = syncs %d, ranges %d, keys %d, bytes %d; want all positive (>=11 keys)",
			st.AESyncs, st.AERangesDiffed, st.AEKeysRepaired, st.AEBytesHashed)
	}
	if st.HintsQueued != 0 || st.HintsReplayed != 0 {
		t.Fatalf("hinted handoff leaked into the test: queued=%d replayed=%d", st.HintsQueued, st.HintsReplayed)
	}
}

// TestAntiEntropySurvivesNodeRestartMidSync: the loop must ride out a
// replica dying and returning mid-sync — ticks against the dead node fail
// or skip without wedging the loop, and the divergence (both the damage
// injected before the crash and the restart-window staleness) still
// converges afterwards.
func TestAntiEntropySurvivesNodeRestartMidSync(t *testing.T) {
	const nKeys = 20
	c := startDaemons(t, 3, lsm.Options{})
	ctx := context.Background()
	key := func(i int) string { return fmt.Sprintf("doc-%02d", i) }

	kv, err := rstore.OpenCluster(ctx, c.config(rstore.RepairOptions{
		AntiEntropyInterval: 5 * time.Millisecond,
		DisableReadRepair:   true,
		DisableHints:        true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	for i := 0; i < nKeys; i++ {
		if err := kv.Put(ctx, "t", key(i), []byte(fmt.Sprintf("v1-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Inject damage on node 1, then immediately bounce node 2 while the
	// loop is mid-rotation: syncs touching node 2 fail over the dead TCP
	// connection until the breaker opens, then resume after restart.
	for i := 0; i < 5; i++ {
		if err := c.backends[1].Delete(ctx, "t", key(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.kill(2)
	poll(t, "sync rounds against a dead node", func() bool { return kv.Stats(ctx).AESyncs >= 2 })
	c.restart(2)
	// The cluster client's breaker may still consider node 2 down; writes
	// through the store re-probe it. Write fresh keys so the restarted
	// node also has post-restart divergence to repair (its breaker window
	// missed them... or not — either way AE must reconcile).
	for i := 0; i < 5; i++ {
		if err := kv.Put(ctx, "t", fmt.Sprintf("late-%02d", i), []byte("late")); err != nil {
			t.Fatal(err)
		}
	}

	poll(t, "post-restart convergence", func() bool {
		t0 := scanTable(t, c, 0, "t")
		return tablesEqual(t0, scanTable(t, c, 1, "t")) && tablesEqual(t0, scanTable(t, c, 2, "t"))
	})
	if st := kv.Stats(ctx); st.AEKeysRepaired < 5 {
		t.Fatalf("AEKeysRepaired = %d, want >= 5", st.AEKeysRepaired)
	}
}
