package rstore_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"rstore"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/types"
)

// daemonCluster is the harness of the deployment, repair and anti-entropy
// acceptance tests: real lsm backends behind TCP, each restartable in
// place, with the backend handles exposed so a test can assert what each
// replica holds ON DISK — the whole point of repair is that convergence
// reaches the backend, not just the merged read view.
type daemonCluster struct {
	t        *testing.T
	opts     lsm.Options
	dirs     []string
	addrs    []string
	backends []*lsm.Backend
	servers  []*engined.Server
}

// startDaemons starts n daemons, each over its own lsm directory.
func startDaemons(t *testing.T, n int, opts lsm.Options) *daemonCluster {
	t.Helper()
	c := &daemonCluster{
		t:        t,
		opts:     opts,
		dirs:     make([]string, n),
		addrs:    make([]string, n),
		backends: make([]*lsm.Backend, n),
		servers:  make([]*engined.Server, n),
	}
	root := t.TempDir()
	for i := 0; i < n; i++ {
		c.dirs[i] = filepath.Join(root, fmt.Sprintf("node-%d", i))
		be, err := lsm.Open(c.dirs[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := engined.Start("127.0.0.1:0", be)
		if err != nil {
			t.Fatal(err)
		}
		c.backends[i], c.servers[i] = be, srv
		c.addrs[i] = srv.Addr().String()
	}
	t.Cleanup(func() {
		for i := range c.servers {
			if c.servers[i] != nil {
				c.servers[i].Close()
			}
			if c.backends[i] != nil {
				c.backends[i].Close()
			}
		}
	})
	return c
}

// bytesStored reads each live replica's resident bytes off its backend.
func (c *daemonCluster) bytesStored() []int64 {
	out := make([]int64, len(c.backends))
	for i, be := range c.backends {
		if be != nil {
			out[i] = be.BytesStored()
		}
	}
	return out
}

// kill is a real process death: socket refused, backend files released.
func (c *daemonCluster) kill(i int) {
	c.t.Helper()
	c.servers[i].Close()
	if err := c.backends[i].Close(); err != nil {
		c.t.Fatal(err)
	}
	c.servers[i], c.backends[i] = nil, nil
}

// crash kills node i hard: socket refused, descriptors dropped unsynced
// (lsm.Backend.Kill), so its restart replays logs and clears debris.
func (c *daemonCluster) crash(i int) {
	c.servers[i].Close()
	c.backends[i].Kill()
	c.servers[i], c.backends[i] = nil, nil
}

// restart reopens node i from its data directory on the same address.
func (c *daemonCluster) restart(i int) {
	c.t.Helper()
	be, err := lsm.Open(c.dirs[i], c.opts)
	if err != nil {
		c.t.Fatal(err)
	}
	srv, err := engined.Start(c.addrs[i], be)
	if err != nil {
		c.t.Fatal(err)
	}
	c.backends[i], c.servers[i] = be, srv
}

// raw reads a replica's on-disk state directly through its backend handle.
func (c *daemonCluster) raw(i int, table, key string) ([]byte, bool) {
	c.t.Helper()
	v, ok, err := c.backends[i].Get(context.Background(), table, key)
	if err != nil {
		c.t.Fatal(err)
	}
	return v, ok
}

func (c *daemonCluster) config(opts rstore.RepairOptions) rstore.ClusterConfig {
	return rstore.ClusterConfig{
		Engine: rstore.EngineRemote, NodeAddrs: c.addrs, ReplicationFactor: len(c.addrs),
		Remote: remote.Options{Attempts: 2, Backoff: time.Millisecond},
		Repair: opts,
	}
}

func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRepairEndToEnd is the repair acceptance test on a real cluster:
// kill a storage daemon, overwrite and delete through the survivors,
// restart it, and require that its ON-DISK state converges to the LWW
// winners with no explicit client read of the repaired keys (hinted
// handoff), that tombstones every replica holds are physically collected
// everywhere, and — separately, with hints disabled — that a single read
// repairs a stale replica (read repair).
func TestRepairEndToEnd(t *testing.T) {
	const nKeys = 20
	c := startDaemons(t, 3, lsm.Options{})
	ctx := context.Background()
	key := func(i int) string { return fmt.Sprintf("doc-%02d", i) }

	kv, err := rstore.OpenCluster(context.Background(), c.config(rstore.RepairOptions{
		HintInterval: 10 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nKeys; i++ {
		if err := kv.Put(ctx, "t", key(i), []byte(fmt.Sprintf("v1-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Node 1 dies; the cluster keeps taking overwrites and deletes.
	c.kill(1)
	for i := 0; i < 10; i++ {
		if err := kv.Put(ctx, "t", key(i), []byte(fmt.Sprintf("v2-%02d", i))); err != nil {
			t.Fatalf("put with node down: %v", err)
		}
	}
	for i := 10; i < 15; i++ {
		if err := kv.Delete(ctx, "t", key(i)); err != nil {
			t.Fatalf("delete with node down: %v", err)
		}
	}
	if st := kv.Stats(ctx); st.HintsQueued != 15 || st.HintsPending != 15 {
		t.Fatalf("hints queued/pending = %d/%d, want 15/15", st.HintsQueued, st.HintsPending)
	}

	// Restart node 1: stale for every overwrite and delete it missed. Hint
	// drain must converge it with NO client reads of the repaired keys.
	c.restart(1)
	poll(t, "hint queue drained", func() bool { return kv.Stats(ctx).HintsPending == 0 })

	// Overwritten keys: node 1's on-disk bytes equal a surviving replica's
	// (the winning envelope, timestamp and all).
	for i := 0; i < 10; i++ {
		want, ok := c.raw(0, "t", key(i))
		if !ok {
			t.Fatalf("node 0 missing %s", key(i))
		}
		poll(t, fmt.Sprintf("%s converged on node 1's disk", key(i)), func() bool {
			got, ok := c.raw(1, "t", key(i))
			return ok && bytes.Equal(got, want)
		})
	}
	// Deleted keys: the tombstone reached node 1, so every replica holds it
	// and it must be physically collected from EVERY replica.
	for i := 10; i < 15; i++ {
		poll(t, fmt.Sprintf("tombstone for %s collected everywhere", key(i)), func() bool {
			for n := 0; n < 3; n++ {
				if _, ok := c.raw(n, "t", key(i)); ok {
					return false
				}
			}
			return true
		})
		if _, err := kv.Get(ctx, "t", key(i)); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("deleted %s readable after GC: %v", key(i), err)
		}
	}
	st := kv.Stats(ctx)
	if st.HintsReplayed != 15 || st.TombstonesGCed < 5 {
		t.Fatalf("replayed=%d gced=%d, want 15/>=5", st.HintsReplayed, st.TombstonesGCed)
	}
	// With every key converged and the bookkeeping tables symmetric, the
	// replicas hold identical resident volumes.
	nb := c.bytesStored()
	if nb[0] != nb[1] || nb[1] != nb[2] {
		t.Fatalf("replica volumes diverge after repair: %v", nb)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	// Read repair, isolated: a fresh client with hints disabled writes
	// while node 2 is down, so nothing is parked anywhere. After node 2
	// returns, ONE read of the key must rewrite its on-disk copy.
	c.kill(2)
	kvB, err := rstore.OpenCluster(context.Background(), c.config(rstore.RepairOptions{DisableHints: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer kvB.Close()
	if err := kvB.Put(ctx, "t", "rr-doc", []byte("rr-v1")); err != nil {
		t.Fatal(err)
	}
	c.restart(2)
	if _, ok := c.raw(2, "t", "rr-doc"); ok {
		t.Fatal("restarted node has a write it provably missed")
	}
	if got, err := kvB.Get(ctx, "t", "rr-doc"); err != nil || string(got) != "rr-v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	want, _ := c.raw(0, "t", "rr-doc")
	poll(t, "read repair rewrote the missing replica on disk", func() bool {
		got, ok := c.raw(2, "t", "rr-doc")
		return ok && bytes.Equal(got, want)
	})
	var stB rstore.ClusterStats = kvB.Stats(ctx)
	if stB.RepairWrites < 1 || stB.HintsQueued != 0 {
		t.Fatalf("repairWrites=%d hintsQueued=%d, want >=1/0", stB.RepairWrites, stB.HintsQueued)
	}
}

// TestRepairHintsSurviveClientRestart: hints are durable through the
// engine seam — a cluster client that dies after parking hints leaves them
// in the !hints table, and the next client recovers and drains them.
func TestRepairHintsSurviveClientRestart(t *testing.T) {
	c := startDaemons(t, 3, lsm.Options{})
	ctx := context.Background()

	slow := rstore.RepairOptions{HintInterval: time.Hour} // park only
	kv1, err := rstore.OpenCluster(context.Background(), c.config(slow))
	if err != nil {
		t.Fatal(err)
	}
	if err := kv1.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c.kill(0)
	if err := kv1.Put(ctx, "t", "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := kv1.Stats(ctx).HintsPending; got != 1 {
		t.Fatalf("pending hints = %d, want 1", got)
	}
	if err := kv1.Close(); err != nil { // client dies with the hint parked
		t.Fatal(err)
	}
	c.restart(0)

	kv2, err := rstore.OpenCluster(context.Background(), c.config(rstore.RepairOptions{
		HintInterval: 10 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	if got := kv2.Stats(ctx).HintsPending; got != 1 {
		t.Fatalf("recovered hints = %d, want 1", got)
	}
	want, _ := c.raw(1, "t", "k")
	poll(t, "recovered hint delivered to the restarted node", func() bool {
		got, ok := c.raw(0, "t", "k")
		return ok && bytes.Equal(got, want)
	})
}
