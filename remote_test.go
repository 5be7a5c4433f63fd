package rstore_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"rstore"
	"rstore/internal/engine/lsm"
	"rstore/internal/kvstore"
)

// e2eDoc is document d at revision rev.
func e2eDoc(d, rev int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf(`{"doc":%d,"rev":%d}`, d, rev)), 20)
}

// commitRevs commits revisions from..to-1 of six documents as a chain on
// *parent, each putting the documents touch names, flushes, points main at
// the tip, and returns the versions it made with *parent at the tip.
func commitRevs(t *testing.T, st *rstore.Store, parent *rstore.VersionID, from, to int, touch func(rev, d int) bool) []rstore.VersionID {
	t.Helper()
	var versions []rstore.VersionID
	for rev := from; rev < to; rev++ {
		puts := map[rstore.Key][]byte{}
		for d := 0; d < 6; d++ {
			if touch(rev, d) {
				puts[rstore.Key(fmt.Sprintf("doc-%d", d))] = e2eDoc(d, rev)
			}
		}
		v, err := st.Commit(context.Background(), *parent, rstore.Change{Puts: puts})
		if err != nil {
			t.Fatalf("commit %d: %v", rev, err)
		}
		versions = append(versions, v)
		*parent = v
	}
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.SetBranch(context.Background(), "main", *parent); err != nil {
		t.Fatal(err)
	}
	return versions
}

// e2eSnapshot is every query class's answer, for equality comparison.
type e2eSnapshot struct {
	Versions map[rstore.VersionID]map[string]string
	History  map[string][]string
}

func capture(t *testing.T, st *rstore.Store, versions []rstore.VersionID) e2eSnapshot {
	t.Helper()
	snap := e2eSnapshot{
		Versions: map[rstore.VersionID]map[string]string{},
		History:  map[string][]string{},
	}
	for _, v := range versions {
		recs, _, err := st.GetVersionAll(context.Background(), v)
		if err != nil {
			t.Fatalf("GetVersion(%d): %v", v, err)
		}
		m := map[string]string{}
		for _, r := range recs {
			m[string(r.CK.Key)] = string(r.Value)
		}
		snap.Versions[v] = m
	}
	for d := 0; d < 6; d++ {
		key := fmt.Sprintf("doc-%d", d)
		recs, _, err := st.GetHistoryAll(context.Background(), rstore.Key(key))
		if err != nil {
			t.Fatalf("GetHistory(%s): %v", key, err)
		}
		for _, r := range recs {
			snap.History[key] = append(snap.History[key], fmt.Sprintf("v%d:%s", r.CK.Version, r.Value))
		}
	}
	return snap
}

// openDeployment opens a store at rf 2 over c's daemons, flushing in
// batches of 3.
func openDeployment(t *testing.T, c *daemonCluster) (rstore.ClusterConfig, *kvstore.Store, *rstore.Store) {
	t.Helper()
	cluster := c.config(rstore.RepairOptions{})
	cluster.ReplicationFactor = 2
	kv, err := rstore.OpenCluster(context.Background(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rstore.Open(context.Background(), rstore.Config{KV: kv, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, kv, st
}

// reopenMatches closes the whole stack, opens it again from the daemons,
// and requires main at tip and the answers of want.
func reopenMatches(t *testing.T, cluster rstore.ClusterConfig, kv *kvstore.Store, st *rstore.Store, versions []rstore.VersionID, tip rstore.VersionID, want e2eSnapshot) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	kv2, err := rstore.OpenCluster(context.Background(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	st2, err := rstore.Open(context.Background(), rstore.Config{KV: kv2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, err := st2.Tip("main"); err != nil || got != tip {
		t.Fatalf("Tip after reopen: %d %v", got, err)
	}
	if got := capture(t, st2, versions); !reflect.DeepEqual(want, got) {
		t.Fatal("query results differ after close/reopen of the cluster")
	}
}

// TestRemoteClusterEndToEnd is the deployment acceptance test: a full
// RStore (commits, online partitioning, every query class) running on a
// real cluster — three lsm storage daemons behind TCP sockets — must
// survive one node being stopped and restarted (writes routed around,
// reads recovering from replicas, a stale replica outvoted), and a
// close/reopen of the whole stack must return identical query results,
// exactly like the single-process TestStoreReopen.
func TestRemoteClusterEndToEnd(t *testing.T) {
	c := startDaemons(t, 3, lsm.Options{})
	cluster, kv, st := openDeployment(t, c)

	// A linear history of 8 versions over 6 documents, flushed through the
	// online partitioner in batches of 3.
	parent := rstore.NoParent
	versions := commitRevs(t, st, &parent, 0, 8, func(rev, d int) bool { return (rev+d)%2 == 0 })
	before := capture(t, st, versions)
	if len(before.Versions[versions[7]]) != 6 {
		t.Fatalf("tip version has %d records, want 6", len(before.Versions[versions[7]]))
	}

	// Marker keys for the stale-replica check below: written now so every
	// node (including the one about to stop) holds the old revision.
	mk := make([]string, 10)
	for i := range mk {
		mk[i] = fmt.Sprintf("marker-%d", i)
		if err := kv.Put(context.Background(), "e2e", mk[i], []byte("old")); err != nil {
			t.Fatal(err)
		}
	}

	// Stop node 1: socket refused, not a flag.
	c.kill(1)

	// Reads recover from surviving replicas (rf=2 keeps every chunk alive).
	if got := capture(t, st, versions); !reflect.DeepEqual(before, got) {
		t.Fatal("query results changed with one node down")
	}

	// Writes route around the dead node.
	versions = append(versions, commitRevs(t, st, &parent, 8, 11, func(int, int) bool { return true })...)

	// Overwrite the marker keys while node 1 is down: its replicas of them
	// are now permanently one revision behind.
	for _, k := range mk {
		if err := kv.Put(context.Background(), "e2e", k, []byte("new")); err != nil {
			t.Fatal(err)
		}
	}

	// Restart node 1 from its data directory on the same address. It is
	// stale for everything written while it was down; reads must fall back
	// across replicas transparently.
	c.restart(1)

	// The restarted replica still serves "old" for the markers it holds;
	// the batched read path (one OpMultiGet per node, answers LWW-merged
	// per key across the replica batches) must outvote it on every key.
	mres, err := kv.MultiGet(context.Background(), "e2e", mk)
	if err != nil {
		t.Fatalf("multiget after stale restart: %v", err)
	}
	if len(mres.Missing) != 0 {
		t.Fatalf("multiget after stale restart: missing %v", mres.Missing)
	}
	for i, v := range mres.Values {
		if string(v) != "new" {
			t.Fatalf("marker %d = %q after stale restart, want %q (stale replica not outvoted)", i, v, "new")
		}
	}

	afterRestart := capture(t, st, versions)
	for _, v := range versions {
		if len(afterRestart.Versions[v]) == 0 {
			t.Fatalf("version %d empty after node restart", v)
		}
	}
	if got := afterRestart.Versions[parent]; len(got) != 6 || got["doc-0"] != string(e2eDoc(0, 10)) {
		t.Fatalf("tip after restart: %d records", len(got))
	}
	reopenMatches(t, cluster, kv, st, versions, parent, afterRestart)
}

// TestRemoteClusterLSMEndToEnd is the same deployment with tiny memtables,
// which force every node into a multi-SSTable layout. It shows that the
// daemons merge their dead bytes away on their own and that the merged
// layout serves identical query results. Its node dies hard (descriptors
// dropped unsynced, lsm.Backend.Kill), so the restart exercises real WAL
// replay and debris recovery, not a graceful close.
func TestRemoteClusterLSMEndToEnd(t *testing.T) {
	c := startDaemons(t, 3, lsm.Options{MemtableBytes: 4 << 10})
	cluster, kv, st := openDeployment(t, c)

	// An overwrite-heavy history: every document updated in every version,
	// so the daemons accumulate shadowed chunk versions worth merging.
	parent := rstore.NoParent
	every := func(int, int) bool { return true }
	versions := commitRevs(t, st, &parent, 0, 8, every)
	before := capture(t, st, versions)
	if len(before.Versions[versions[7]]) != 6 {
		t.Fatalf("tip version has %d records, want 6", len(before.Versions[versions[7]]))
	}

	// The daemons merged on their own; results must not change.
	reclaimed := kv.Stats(context.Background()).CompactedBytes
	if reclaimed <= 0 {
		t.Fatalf("the daemons reclaimed %d bytes on their own", reclaimed)
	}
	if got := capture(t, st, versions); !reflect.DeepEqual(before, got) {
		t.Fatal("query results changed after the daemons' merges")
	}

	// Kill node 1 hard. Reads recover from surviving replicas; writes
	// route around.
	c.crash(1)
	if got := capture(t, st, versions); !reflect.DeepEqual(before, got) {
		t.Fatal("query results changed with one node down")
	}
	versions = append(versions, commitRevs(t, st, &parent, 8, 10, every)...)

	// Restart node 1 from its directory: WAL replay + debris recovery.
	c.restart(1)
	afterRestart := capture(t, st, versions)
	for _, v := range versions {
		if len(afterRestart.Versions[v]) == 0 {
			t.Fatalf("version %d empty after node restart", v)
		}
	}
	if got := afterRestart.Versions[parent]; len(got) != 6 || got["doc-0"] != string(e2eDoc(0, 9)) {
		t.Fatalf("tip after restart: %d records", len(got))
	}
	reopenMatches(t, cluster, kv, st, versions, parent, afterRestart)
}
