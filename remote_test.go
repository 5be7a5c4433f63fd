package rstore_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rstore"
	"rstore/internal/engine/disklog"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
)

// TestRemoteClusterEndToEnd is the deployment acceptance test: a full
// RStore (commits, online partitioning, every query class) running on a
// real cluster — three disklog storage daemons behind TCP sockets — must
// survive one node being killed and restarted (writes routed around,
// reads recovering from replicas), and a close/reopen of the whole stack
// must return identical query results, exactly like the single-process
// TestStoreReopen. Its daemons run disklog, the second durable engine;
// TestRemoteClusterLSMEndToEnd is the same deployment on lsm.
func TestRemoteClusterEndToEnd(t *testing.T) {
	const nNodes = 3

	// One storage daemon per node, each over its own disklog directory.
	root := t.TempDir()
	dirs := make([]string, nNodes)
	backends := make([]*disklog.Backend, nNodes)
	servers := make([]*engined.Server, nNodes)
	addrs := make([]string, nNodes)
	for i := 0; i < nNodes; i++ {
		dirs[i] = filepath.Join(root, fmt.Sprintf("node-%d", i))
		be, err := disklog.Open(dirs[i], disklog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := engined.Start("127.0.0.1:0", be)
		if err != nil {
			t.Fatal(err)
		}
		backends[i], servers[i] = be, srv
		addrs[i] = srv.Addr().String()
	}
	t.Cleanup(func() {
		for i := range servers {
			servers[i].Close()
			backends[i].Close()
		}
	})

	cluster := rstore.ClusterConfig{
		Engine: rstore.EngineRemote, NodeAddrs: addrs, ReplicationFactor: 2,
		Remote: remote.Options{Attempts: 2, Backoff: time.Millisecond},
	}
	kv, err := rstore.OpenCluster(context.Background(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rstore.Open(context.Background(), rstore.Config{KV: kv, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}

	doc := func(i, rev int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf(`{"doc":%d,"rev":%d}`, i, rev)), 20)
	}

	// A linear history of 8 versions over 6 documents, flushed through the
	// online partitioner in batches of 3.
	parent := rstore.NoParent
	var versions []rstore.VersionID
	for rev := 0; rev < 8; rev++ {
		puts := map[rstore.Key][]byte{}
		for d := 0; d < 6; d++ {
			if (rev+d)%2 == 0 {
				puts[rstore.Key(fmt.Sprintf("doc-%d", d))] = doc(d, rev)
			}
		}
		v, err := st.Commit(context.Background(), parent, rstore.Change{Puts: puts})
		if err != nil {
			t.Fatalf("commit %d: %v", rev, err)
		}
		versions = append(versions, v)
		parent = v
	}
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.SetBranch(context.Background(), "main", parent); err != nil {
		t.Fatal(err)
	}

	// snapshot captures every query class for later equality comparison.
	type snapshot struct {
		Versions map[rstore.VersionID]map[string]string
		History  map[string][]string
	}
	capture := func(st *rstore.Store) snapshot {
		t.Helper()
		snap := snapshot{
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
	before := capture(st)
	if len(before.Versions[versions[7]]) != 6 {
		t.Fatalf("tip version has %d records, want 6", len(before.Versions[versions[7]]))
	}

	// Marker keys for the stale-replica check below: written now so every
	// node (including the one about to die) holds the old revision.
	mk := make([]string, 10)
	for i := range mk {
		mk[i] = fmt.Sprintf("marker-%d", i)
		if err := kv.Put(context.Background(), "e2e", mk[i], []byte("old")); err != nil {
			t.Fatal(err)
		}
	}

	// Kill node 1: a real process death — socket refused, not a flag.
	servers[1].Close()
	if err := backends[1].Close(); err != nil {
		t.Fatal(err)
	}

	// Reads recover from surviving replicas (rf=2 keeps every chunk alive).
	if got := capture(st); !reflect.DeepEqual(before, got) {
		t.Fatal("query results changed with one node down")
	}

	// Writes route around the dead node.
	for rev := 8; rev < 11; rev++ {
		puts := map[rstore.Key][]byte{}
		for d := 0; d < 6; d++ {
			puts[rstore.Key(fmt.Sprintf("doc-%d", d))] = doc(d, rev)
		}
		v, err := st.Commit(context.Background(), parent, rstore.Change{Puts: puts})
		if err != nil {
			t.Fatalf("commit %d with node down: %v", rev, err)
		}
		versions = append(versions, v)
		parent = v
	}
	if err := st.Flush(context.Background()); err != nil {
		t.Fatalf("flush with node down: %v", err)
	}
	if err := st.SetBranch(context.Background(), "main", parent); err != nil {
		t.Fatal(err)
	}

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
	be, err := disklog.Open(dirs[1], disklog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := engined.Start(addrs[1], be)
	if err != nil {
		t.Fatal(err)
	}
	backends[1], servers[1] = be, srv

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

	afterRestart := capture(st)
	for _, v := range versions {
		if len(afterRestart.Versions[v]) == 0 {
			t.Fatalf("version %d empty after node restart", v)
		}
	}
	if got := afterRestart.Versions[parent]; len(got) != 6 || got["doc-0"] != string(doc(0, 10)) {
		t.Fatalf("tip after restart: %d records", len(got))
	}

	// Close the whole stack and reopen from the daemons: identical results.
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
	exists, err := rstore.Exists(context.Background(), kv2)
	if err != nil || !exists {
		t.Fatalf("Exists after reopen: %v %v", exists, err)
	}
	st2, err := rstore.Load(context.Background(), rstore.Config{KV: kv2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	defer kv2.Close()
	if tip, err := st2.Tip("main"); err != nil || tip != parent {
		t.Fatalf("Tip after reopen: %d %v", tip, err)
	}
	if got := capture(st2); !reflect.DeepEqual(afterRestart, got) {
		t.Fatal("query results differ after close/reopen of the cluster")
	}
}

// TestRemoteClusterLSMEndToEnd is the lsm twin of the disklog deployment
// test: a full RStore on three lsm storage daemons behind TCP sockets. On
// top of the kill/restart cycle it shows that the daemons merge their dead
// bytes away on their own, before and after the crash, and that the merged
// SSTable layout they converge to serves identical query results. The
// killed node dies hard (descriptors dropped unsynced, lsm.Backend.Kill), so
// its restart exercises real WAL replay and debris recovery, not a graceful
// close.
func TestRemoteClusterLSMEndToEnd(t *testing.T) {
	const nNodes = 3

	// Tiny memtables force every node into a multi-SSTable layout.
	root := t.TempDir()
	dirs := make([]string, nNodes)
	backends := make([]*lsm.Backend, nNodes)
	servers := make([]*engined.Server, nNodes)
	addrs := make([]string, nNodes)
	for i := 0; i < nNodes; i++ {
		dirs[i] = filepath.Join(root, fmt.Sprintf("node-%d", i))
		be, err := lsm.Open(dirs[i], lsm.Options{MemtableBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := engined.Start("127.0.0.1:0", be)
		if err != nil {
			t.Fatal(err)
		}
		backends[i], servers[i] = be, srv
		addrs[i] = srv.Addr().String()
	}
	t.Cleanup(func() {
		for i := range servers {
			servers[i].Close()
			backends[i].Close()
		}
	})

	cluster := rstore.ClusterConfig{
		Engine: rstore.EngineRemote, NodeAddrs: addrs, ReplicationFactor: 2,
		Remote: remote.Options{Attempts: 2, Backoff: time.Millisecond},
	}
	kv, err := rstore.OpenCluster(context.Background(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rstore.Open(context.Background(), rstore.Config{KV: kv, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}

	doc := func(i, rev int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf(`{"doc":%d,"rev":%d}`, i, rev)), 20)
	}

	// An overwrite-heavy history: every document updated in every version,
	// so the daemons accumulate shadowed chunk versions worth merging.
	parent := rstore.NoParent
	var versions []rstore.VersionID
	for rev := 0; rev < 8; rev++ {
		puts := map[rstore.Key][]byte{}
		for d := 0; d < 6; d++ {
			puts[rstore.Key(fmt.Sprintf("doc-%d", d))] = doc(d, rev)
		}
		v, err := st.Commit(context.Background(), parent, rstore.Change{Puts: puts})
		if err != nil {
			t.Fatalf("commit %d: %v", rev, err)
		}
		versions = append(versions, v)
		parent = v
	}
	if err := st.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.SetBranch(context.Background(), "main", parent); err != nil {
		t.Fatal(err)
	}

	capture := func(st *rstore.Store) map[rstore.VersionID]map[string]string {
		t.Helper()
		snap := map[rstore.VersionID]map[string]string{}
		for _, v := range versions {
			recs, _, err := st.GetVersionAll(context.Background(), v)
			if err != nil {
				t.Fatalf("GetVersion(%d): %v", v, err)
			}
			m := map[string]string{}
			for _, r := range recs {
				m[string(r.CK.Key)] = string(r.Value)
			}
			snap[v] = m
		}
		return snap
	}
	before := capture(st)
	if len(before[versions[7]]) != 6 {
		t.Fatalf("tip version has %d records, want 6", len(before[versions[7]]))
	}

	// The daemons merged on their own; results must not change.
	reclaimed := kv.Stats(context.Background()).CompactedBytes
	if reclaimed <= 0 {
		t.Fatalf("the daemons reclaimed %d bytes on their own", reclaimed)
	}
	if got := capture(st); !reflect.DeepEqual(before, got) {
		t.Fatal("query results changed after the daemons' merges")
	}

	// Kill node 1 hard: socket refused AND descriptors dropped unsynced.
	servers[1].Close()
	backends[1].Kill()

	// Reads recover from surviving replicas; writes route around.
	if got := capture(st); !reflect.DeepEqual(before, got) {
		t.Fatal("query results changed with one node down")
	}
	for rev := 8; rev < 10; rev++ {
		puts := map[rstore.Key][]byte{}
		for d := 0; d < 6; d++ {
			puts[rstore.Key(fmt.Sprintf("doc-%d", d))] = doc(d, rev)
		}
		v, err := st.Commit(context.Background(), parent, rstore.Change{Puts: puts})
		if err != nil {
			t.Fatalf("commit %d with node down: %v", rev, err)
		}
		versions = append(versions, v)
		parent = v
	}
	if err := st.Flush(context.Background()); err != nil {
		t.Fatalf("flush with node down: %v", err)
	}
	if err := st.SetBranch(context.Background(), "main", parent); err != nil {
		t.Fatal(err)
	}

	// Restart node 1 from its directory: WAL replay + debris recovery.
	be, err := lsm.Open(dirs[1], lsm.Options{MemtableBytes: 4 << 10})
	if err != nil {
		t.Fatalf("reopen killed node: %v", err)
	}
	srv, err := engined.Start(addrs[1], be)
	if err != nil {
		t.Fatal(err)
	}
	backends[1], servers[1] = be, srv

	afterRestart := capture(st)
	for _, v := range versions {
		if len(afterRestart[v]) == 0 {
			t.Fatalf("version %d empty after node restart", v)
		}
	}
	if got := afterRestart[parent]; len(got) != 6 || got["doc-0"] != string(doc(0, 9)) {
		t.Fatalf("tip after restart: %d records", len(got))
	}

	// Close the whole stack and reopen from the daemons: identical results.
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
	st2, err := rstore.Load(context.Background(), rstore.Config{KV: kv2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	defer kv2.Close()
	if tip, err := st2.Tip("main"); err != nil || tip != parent {
		t.Fatalf("Tip after reopen: %d %v", tip, err)
	}
	if got := capture(st2); !reflect.DeepEqual(afterRestart, got) {
		t.Fatal("query results differ after close/reopen of the cluster")
	}
}
