package kvstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/types"
)

// testNode is one in-process storage daemon for cluster tests.
type testNode struct {
	be  engine.Backend
	srv *engined.Server
}

// startNodes boots n daemons over memory backends and returns their
// addresses. kill/restart simulate real process death and recovery.
func startNodes(t *testing.T, n int) ([]string, []*testNode) {
	t.Helper()
	addrs := make([]string, n)
	nodes := make([]*testNode, n)
	for i := range nodes {
		be := memory.New()
		srv, err := engined.Start("127.0.0.1:0", be)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &testNode{be: be, srv: srv}
		addrs[i] = srv.Addr().String()
		t.Cleanup(func() { srv.Close() })
	}
	return addrs, nodes
}

func (tn *testNode) kill() { tn.srv.Close() }

func (tn *testNode) restart(t *testing.T, addr string) {
	t.Helper()
	srv, err := engined.Start(addr, tn.be)
	if err != nil {
		t.Fatal(err)
	}
	tn.srv = srv
	t.Cleanup(func() { srv.Close() })
}

// remoteOpts keeps retry latency test-friendly.
func remoteOpts() remote.Options {
	return remote.Options{Attempts: 2, Backoff: 1e6 /* 1ms */}
}

func openRemote(t *testing.T, addrs []string, rf int) *Store {
	t.Helper()
	s, err := Open(context.Background(), Config{Engine: EngineRemote, NodeAddrs: addrs, ReplicationFactor: rf, Remote: remoteOpts()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRemoteClusterBasicOps(t *testing.T) {
	addrs, _ := startNodes(t, 3)
	s := openRemote(t, addrs, 2)
	if s.Nodes() != 3 {
		t.Fatalf("Nodes = %d", s.Nodes())
	}

	var keys []string
	var entries []Entry
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%03d", i)
		keys = append(keys, k)
		entries = append(entries, Entry{Key: k, Value: []byte("v-" + k)})
	}
	if err := s.BatchPut(context.Background(), "t", entries); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		v, err := s.Get(context.Background(), "t", k)
		if err != nil || string(v) != "v-"+k {
			t.Fatalf("%s: %q %v", k, v, err)
		}
	}
	res, err := s.MultiGet(context.Background(), "t", keys)
	if err != nil || len(res.Missing) != 0 {
		t.Fatalf("multiget: %v missing=%v", err, res.Missing)
	}
	if _, err := s.Get(context.Background(), "t", "absent"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("absent key: %v", err)
	}
	if err := s.Delete(context.Background(), "t", keys[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), "t", keys[0]); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
	// Scan sees each surviving key exactly once despite replication.
	got := map[string]int{}
	if err := s.Scan(context.Background(), "t", func(k string, v []byte) bool { got[k]++; return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys)-1 {
		t.Fatalf("scanned %d keys, want %d", len(got), len(keys)-1)
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("%s visited %d times", k, n)
		}
	}
	if st := s.Stats(context.Background()); st.BytesStored <= 0 {
		t.Fatalf("BytesStored = %d", st.BytesStored)
	}
}

func TestRemoteClusterNodeCountFromAddrs(t *testing.T) {
	addrs, _ := startNodes(t, 2)
	if _, err := Open(context.Background(), Config{Engine: EngineRemote, NodeAddrs: addrs, Nodes: 5}); err == nil {
		t.Fatal("node count / address list mismatch accepted")
	}
	if _, err := Open(context.Background(), Config{Engine: EngineRemote}); err == nil {
		t.Fatal("remote engine with no addresses accepted")
	}
}

func TestRemoteClusterRoutesAroundDeadNode(t *testing.T) {
	addrs, nodes := startNodes(t, 3)
	s := openRemote(t, addrs, 2)

	var keys []string
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%03d", i)
		keys = append(keys, k)
		if err := s.Put(context.Background(), "t", k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}

	// Kill a real process: connection refused, not a flag.
	nodes[1].kill()

	// Reads recover from surviving replicas.
	for _, k := range keys {
		if v, err := s.Get(context.Background(), "t", k); err != nil || string(v) != k {
			t.Fatalf("get %s with node down: %q %v", k, v, err)
		}
	}
	res, err := s.MultiGet(context.Background(), "t", keys)
	if err != nil || len(res.Missing) != 0 {
		t.Fatalf("multiget with node down: %v missing=%v", err, res.Missing)
	}

	// Writes route around the dead node (every key keeps one live replica
	// at rf=2 with one of three nodes down).
	var entries []Entry
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("new%03d", i)
		keys = append(keys, k)
		entries = append(entries, Entry{Key: k, Value: []byte(k)})
	}
	if err := s.BatchPut(context.Background(), "t", entries); err != nil {
		t.Fatalf("batchput with node down: %v", err)
	}

	// Stats skip the unreachable node instead of blocking or lying.
	if st := s.Stats(context.Background()); st.BytesStored <= 0 {
		t.Fatalf("BytesStored with node down = %d", st.BytesStored)
	}
	if nb := s.NodeBytes(context.Background()); nb[1] != 0 {
		t.Fatalf("dead node reports %d bytes", nb[1])
	}

	// Restart: the node comes back (stale for writes made while down —
	// reads fall back across replicas, so every key is still served).
	nodes[1].restart(t, addrs[1])
	for _, k := range keys {
		if v, err := s.Get(context.Background(), "t", k); err != nil || string(v) != k {
			t.Fatalf("get %s after restart: %q %v", k, v, err)
		}
	}
	res, err = s.MultiGet(context.Background(), "t", keys)
	if err != nil || len(res.Missing) != 0 {
		t.Fatalf("multiget after restart: %v missing=%v", err, res.Missing)
	}
}

// TestReadsOutvoteStaleReplica: the replicated read at n = many (one
// MultiGet, one OpMultiGet per node) and at n = 1 (a Get per key) returns
// the same values and the same missing set — what was written — across
// tombstones, a dead node, and the node's stale return: overwrites and
// deletes it missed must outvote what it still holds. Hints and read repair
// are off so the restarted replica stays stale and every read has to do the
// outvoting.
func TestReadsOutvoteStaleReplica(t *testing.T) {
	ctx := context.Background()
	addrs, nodes := startNodes(t, 3)
	s, err := Open(ctx, Config{
		Engine: EngineRemote, NodeAddrs: addrs, ReplicationFactor: 2, Remote: remoteOpts(),
		Repair: RepairOptions{DisableHints: true, DisableReadRepair: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	want := map[string]string{} // live keys only
	var keys []string
	for i := 0; i < 80; i++ {
		k := fmt.Sprintf("k%03d", i)
		keys = append(keys, k)
		want[k] = "v-" + k
		if err := s.Put(ctx, "t", k, []byte(want[k])); err != nil {
			t.Fatal(err)
		}
	}
	del := func(k string) {
		t.Helper()
		if err := s.Delete(ctx, "t", k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	// Tombstones and never-written keys must be missing at either size.
	for i := 0; i < 10; i++ {
		del(keys[i*7])
	}
	keys = append(keys, "never-written-a", "never-written-b")

	check := func(when string) {
		t.Helper()
		res, err := s.MultiGet(ctx, "t", keys)
		if err != nil {
			t.Fatalf("%s: multiget: %v", when, err)
		}
		if res.Requests != len(keys) {
			t.Fatalf("%s: %d requests accounted, want %d", when, res.Requests, len(keys))
		}
		missing := map[int]bool{}
		for _, i := range res.Missing {
			missing[i] = true
		}
		for i, k := range keys {
			v, err := s.Get(ctx, "t", k)
			if err != nil && !errors.Is(err, types.ErrNotFound) {
				t.Fatalf("%s: get %s: %v", when, k, err)
			}
			w, live := want[k]
			if live == missing[i] || string(res.Values[i]) != w {
				t.Fatalf("%s: MultiGet: %s = %q (missing=%v), want %q (live=%v)", when, k, res.Values[i], missing[i], w, live)
			}
			if live == (err != nil) || string(v) != w {
				t.Fatalf("%s: Get: %s = %q (%v), want %q (live=%v)", when, k, v, err, w, live)
			}
		}
	}
	check("all nodes up")

	// One node dead at rf=2: reads route to surviving replicas, and
	// the writes below pass the dead node by.
	nodes[2].kill()
	check("one node down")
	for i := 1; i < 80; i += 5 {
		want[keys[i]] = "v2-" + keys[i]
		if err := s.Put(ctx, "t", keys[i], []byte(want[keys[i]])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i < 80; i += 9 {
		del(keys[i])
	}
	check("overwritten and deleted with one node down")

	// The node returns holding the old values: it is outvoted, not believed.
	nodes[2].restart(t, addrs[2])
	waitFor(t, "restarted node out of probation", func() bool { return s.Stats(ctx).BreakerOpen == 0 })
	stale := 0
	for i := 1; i < 80; i += 5 {
		if raw, ok, _ := s.nodes[2].get(ctx, "t", keys[i]); ok {
			if payload, _, _, _ := unenvelope(raw); string(payload) == "v-"+keys[i] {
				stale++
			}
		}
	}
	if stale == 0 {
		t.Fatal("restarted node holds no stale value: the outvoting below would prove nothing")
	}
	check("after stale restart")
}

func TestRemoteClusterAllReplicasDownIsAnError(t *testing.T) {
	addrs, nodes := startNodes(t, 2)
	s := openRemote(t, addrs, 1)
	if err := s.Put(context.Background(), "t", "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	owner := s.ring.primary("a")
	nodes[owner].kill()
	if _, err := s.Get(context.Background(), "t", "a"); err == nil || !strings.Contains(err.Error(), "all replicas down") {
		t.Fatalf("read from fully-dead replica set: %v", err)
	}
	if err := s.Put(context.Background(), "t", "a", []byte("2")); err == nil {
		t.Fatal("write to fully-dead replica set succeeded")
	}
}

func TestRemoteClusterRejectsFailureInjection(t *testing.T) {
	addrs, _ := startNodes(t, 1)
	s := openRemote(t, addrs, 1)
	if err := s.SetNodeUp(0, false); err == nil || !strings.Contains(err.Error(), "stop the daemon") {
		t.Fatalf("failure injection on a remote node: %v, want the stop-the-daemon refusal", err)
	}
	if !s.nodes[0].isUp() {
		t.Fatal("refused injection still took the node down")
	}
}

// Satellite: Close is idempotent and aggregates per-node errors.

// failingCloseBackend wraps memory with a Close that always errors.
type failingCloseBackend struct {
	engine.Backend
	id int
}

func (b failingCloseBackend) Close() error { return fmt.Errorf("sync of node %d failed", b.id) }

func TestCloseIdempotentAndAggregated(t *testing.T) {
	s, err := Open(context.Background(), Config{Nodes: 3, NewBackend: func(id int) (engine.Backend, error) {
		return failingCloseBackend{Backend: memory.New(), id: id}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Close()
	if err == nil {
		t.Fatal("aggregated close error lost")
	}
	// errors.Join: every node's failure is present, not just the first.
	for id := 0; id < 3; id++ {
		if !strings.Contains(err.Error(), fmt.Sprintf("sync of node %d failed", id)) {
			t.Fatalf("close error lost node %d: %v", id, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("close node %d", id)) {
			t.Fatalf("close error not annotated with node id: %v", err)
		}
	}
	// Second close: no-op, backends not re-touched.
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// Satellite: stats skip down nodes instead of touching their backend.

// pollingBackend counts BytesStored calls so the test can prove a down
// node's backend is never consulted.
type pollingBackend struct {
	engine.Backend
	polls *int
}

func (b pollingBackend) BytesStored() int64 { *b.polls++; return b.Backend.BytesStored() }

func TestStatsSkipDownNodes(t *testing.T) {
	polls := make([]int, 2)
	s, err := Open(context.Background(), Config{Nodes: 2, NewBackend: func(id int) (engine.Backend, error) {
		return pollingBackend{Backend: memory.New(), polls: &polls[id]}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 32; i++ {
		if err := s.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), []byte("xxxx")); err != nil {
			t.Fatal(err)
		}
	}
	all := s.Stats(context.Background()).BytesStored
	if all <= 0 {
		t.Fatalf("BytesStored = %d", all)
	}
	if err := s.SetNodeUp(1, false); err != nil {
		t.Fatal(err)
	}
	polls[1] = 0
	down := s.Stats(context.Background()).BytesStored
	if down <= 0 || down >= all {
		t.Fatalf("BytesStored with node 1 down = %d (all up: %d)", down, all)
	}
	if nb := s.NodeBytes(context.Background()); nb[1] != 0 {
		t.Fatalf("down node reports %d bytes", nb[1])
	}
	if polls[1] != 0 {
		t.Fatalf("down node's backend polled %d times", polls[1])
	}
}

// Scan feeds recovery and snapshots, so it must refuse to present a
// truncated view instead of silently skipping nodes whose keys have no
// other replica.
func TestScanRefusesIncompleteView(t *testing.T) {
	s, err := Open(context.Background(), Config{Nodes: 3, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 60; i++ {
		if err := s.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	count := func() (int, error) {
		n := 0
		err := s.Scan(context.Background(), "t", func(string, []byte) bool { n++; return true })
		return n, err
	}
	// One node down at rf=2: every key still has a live replica, so the
	// sweep is complete.
	if err := s.SetNodeUp(0, false); err != nil {
		t.Fatal(err)
	}
	if n, err := count(); err != nil || n != 60 {
		t.Fatalf("scan with 1/3 nodes down: n=%d err=%v", n, err)
	}
	// Two nodes down at rf=2: some key's whole replica set may be gone.
	if err := s.SetNodeUp(1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := count(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("scan with 2/3 nodes down at rf=2: %v", err)
	}
}

func TestUnreplicatedScanRefusesDownNode(t *testing.T) {
	s, err := Open(context.Background(), Config{Nodes: 2, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		if err := s.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetNodeUp(1, false); err != nil {
		t.Fatal(err)
	}
	err = s.Scan(context.Background(), "t", func(string, []byte) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("unreplicated scan with a down node: %v", err)
	}
}

// The remote counterpart of the GEOMETRY pin: reopening the same daemons
// with the address list reordered (or resized) must be refused — keys
// would hash to the wrong nodes.
func TestRemoteClusterRefusesReorderedAddresses(t *testing.T) {
	addrs, _ := startNodes(t, 3)
	s := openRemote(t, addrs, 1)
	if err := s.Put(context.Background(), "t", "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	swapped := []string{addrs[1], addrs[0], addrs[2]}
	if _, err := Open(context.Background(), Config{Engine: EngineRemote, NodeAddrs: swapped, Remote: remoteOpts()}); err == nil ||
		!strings.Contains(err.Error(), "reordered or resized") {
		t.Fatalf("reordered address list: %v", err)
	}
	shrunk := addrs[:2]
	if _, err := Open(context.Background(), Config{Engine: EngineRemote, NodeAddrs: shrunk, Remote: remoteOpts()}); err == nil {
		t.Fatal("resized address list accepted")
	}

	// The correct list keeps working.
	s2, err := Open(context.Background(), Config{Engine: EngineRemote, NodeAddrs: addrs, Remote: remoteOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, err := s2.Get(context.Background(), "t", "a"); err != nil || string(v) != "1" {
		t.Fatalf("reopen with correct order: %q %v", v, err)
	}
}

// A data directory from before the LWW value format must be refused with
// a clear message, not misparsed.
func TestRefusesPreLWWDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "GEOMETRY"), []byte("nodes=1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(context.Background(), Config{Engine: EngineLSM, Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "pre-lww1 value format") {
		t.Fatalf("pre-LWW directory: %v", err)
	}
}

// A crash while the pin was being written leaves GEOMETRY.tmp, empty or cut
// short, and no GEOMETRY: the directory is fresh, not corrupt. (Written in
// place, the same crash left an empty GEOMETRY that every later open
// refused.)
func TestGeometryCrashLeavesFreshDirectory(t *testing.T) {
	for _, torn := range []string{"", "nodes="} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "GEOMETRY.tmp"), []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(context.Background(), Config{Engine: EngineLSM, Dir: dir, Nodes: 2})
		if err != nil {
			t.Fatalf("open beside a GEOMETRY.tmp of %q: %v", torn, err)
		}
		s.Close()
		if pin, err := os.ReadFile(filepath.Join(dir, "GEOMETRY")); err != nil || string(pin) != "nodes=2 format=lww1\n" {
			t.Fatalf("GEOMETRY = %q (%v)", pin, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "GEOMETRY.tmp")); !os.IsNotExist(err) {
			t.Fatalf("GEOMETRY.tmp survived: %v", err)
		}
		if _, err := Open(context.Background(), Config{Engine: EngineLSM, Dir: dir, Nodes: 3}); err == nil {
			t.Fatal("the pin does not hold: reopened with another node count")
		}
	}
}

// The replication factor is pinned alongside the ring geometry: reopening
// the same daemons with a different -rf would silently under- (or over-)
// replicate every new write, so it must be refused, and so are legacy pins
// written before rf was recorded.
func TestRemoteClusterRefusesReplicationFactorChange(t *testing.T) {
	addrs, nodes := startNodes(t, 3)
	s := openRemote(t, addrs, 2)
	if err := s.Put(context.Background(), "t", "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, err := Open(context.Background(), Config{Engine: EngineRemote, NodeAddrs: addrs, ReplicationFactor: 1, Remote: remoteOpts()})
	if err == nil || !strings.Contains(err.Error(), "replication factor") {
		t.Fatalf("rf change 2 -> 1: %v, want a pinned-replication-factor refusal", err)
	}
	_, err = Open(context.Background(), Config{Engine: EngineRemote, NodeAddrs: addrs, ReplicationFactor: 3, Remote: remoteOpts()})
	if err == nil || !strings.Contains(err.Error(), "replication factor") {
		t.Fatalf("rf change 2 -> 3: %v, want a pinned-replication-factor refusal", err)
	}

	// The pinned factor keeps working.
	s2 := openRemote(t, addrs, 2)
	if v, err := s2.Get(context.Background(), "t", "a"); err != nil || string(v) != "1" {
		t.Fatalf("reopen at pinned rf: %q %v", v, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A legacy pin (written before rf was recorded) is refused whatever rf
	// the open asks for: the cluster must be re-initialized.
	for i, tn := range nodes {
		legacy := fmt.Sprintf("%d of %d format=%s", i, len(nodes), storedFormat)
		env := envelope(envValue, 1, []byte(legacy))
		if err := tn.be.Put(context.Background(), clusterTable, nodeIDKey, env); err != nil {
			t.Fatal(err)
		}
	}
	for _, rf := range []int{2, 3} {
		_, err := Open(context.Background(), Config{Engine: EngineRemote, NodeAddrs: addrs, ReplicationFactor: rf, Remote: remoteOpts()})
		if err == nil || !strings.Contains(err.Error(), "re-initialize") {
			t.Fatalf("open at rf %d over legacy pins: %v, want a re-initialize refusal", rf, err)
		}
	}
}
