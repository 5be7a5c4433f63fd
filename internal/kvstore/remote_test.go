package kvstore

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
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

func openRemote(t *testing.T, addrs []string, rf int) *Store {
	t.Helper()
	s, err := Open(context.Background(), Config{Engine: EngineRemote, NodeAddrs: addrs, ReplicationFactor: rf})
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

	// Stats skip the unreachable node instead of blocking or lying: what
	// they report is what the two live daemons hold.
	live := nodes[0].be.BytesStored() + nodes[2].be.BytesStored()
	if st := s.Stats(context.Background()); st.BytesStored != live {
		t.Fatalf("BytesStored with node down = %d, want the live daemons' %d", st.BytesStored, live)
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
// deletes it missed must outvote what it still holds. The node returns
// refusing writes, so neither a hint replay nor a read's write-back repairs
// it: it stays stale and every read has to do the outvoting.
func TestReadsOutvoteStaleReplica(t *testing.T) {
	ctx := context.Background()
	addrs, nodes := startNodes(t, 3)
	s := openRemote(t, addrs, 2)

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
	nodes[2].be = refusePut{nodes[2].be}
	nodes[2].restart(t, addrs[2])
	waitFor(t, "restarted node out of probation", func() bool { return s.Stats(ctx).BreakerOpen == 0 })
	stale := 0
	for i := 1; i < 80; i += 5 {
		if raw, ok, _ := s.nodes[2].be.Get(ctx, "t", keys[i]); ok {
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

// Satellite: a down node contributes 0 to the stats.

func TestStatsSkipDownNodes(t *testing.T) {
	s, backends := openMem(t, Config{Nodes: 2})
	for i := 0; i < 32; i++ {
		if err := s.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), []byte("xxxx")); err != nil {
			t.Fatal(err)
		}
	}
	all := s.Stats(context.Background()).BytesStored
	if all <= 0 {
		t.Fatalf("BytesStored = %d", all)
	}
	backends[1].SetDown(true)
	down := s.Stats(context.Background()).BytesStored
	if down <= 0 || down >= all || down != backends[0].BytesStored() {
		t.Fatalf("BytesStored with node 1 down = %d (all up: %d, node 0: %d)", down, all, backends[0].BytesStored())
	}
}

// Scan feeds recovery and snapshots, so it must refuse to present a
// truncated view instead of silently skipping nodes whose keys have no
// other replica.
func TestScanRefusesIncompleteView(t *testing.T) {
	s, backends := openMem(t, Config{Nodes: 3, ReplicationFactor: 2})
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
	backends[0].SetDown(true)
	if n, err := count(); err != nil || n != 60 {
		t.Fatalf("scan with 1/3 nodes down: n=%d err=%v", n, err)
	}
	// Two nodes down at rf=2: some key's whole replica set may be gone.
	backends[1].SetDown(true)
	if _, err := count(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("scan with 2/3 nodes down at rf=2: %v", err)
	}
}

func TestUnreplicatedScanRefusesDownNode(t *testing.T) {
	s, backends := openMem(t, Config{Nodes: 2, ReplicationFactor: 1})
	for i := 0; i < 20; i++ {
		if err := s.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	backends[1].SetDown(true)
	err := s.Scan(context.Background(), "t", func(string, []byte) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("unreplicated scan with a down node: %v", err)
	}
}

// pinCase is one reopen of a three-node rf-2 cluster that holds "a" = "1".
// order lists the nodes the reopen is given, by position: 3 is a fourth,
// fresh node.
type pinCase struct {
	name   string
	order  []int
	rf     int
	legacy bool   // every node's pin is first rewritten in the form from before rf was pinned
	want   string // the refusal, "" for an open that must read "a" back
}

var pinCases = []pinCase{
	{name: "reordered", order: []int{1, 0, 2}, rf: 2, want: "reordered or resized"},
	{name: "shrunk", order: []int{0, 1}, rf: 2, want: "reordered or resized"},
	{name: "grown", order: []int{0, 1, 2, 3}, rf: 2, want: "reordered or resized"},
	{name: "rf raised", order: []int{0, 1, 2}, rf: 3, want: "replication factor 2 but was opened with 3"},
	{name: "rf lowered", order: []int{0, 1, 2}, rf: 1, want: "replication factor 2 but was opened with 1"},
	{name: "legacy pin", order: []int{0, 1, 2}, rf: 2, legacy: true, want: "re-initialize"},
	{name: "reopen", order: []int{0, 1, 2}, rf: 2},
}

// pinCluster is four nodes of one engine, the first three of which are
// the cluster: open opens the nodes order names at rf, name is how a
// refusal names node i of such an open, and put writes node i's pin
// directly, with the cluster closed.
type pinCluster struct {
	open func(order []int, rf int) (*Store, error)
	name func(order []int, i int) string
	put  func(i int, value []byte) error
}

// Every node of an lsm or remote cluster pins its ring position, the
// cluster size and the replication factor in !cluster, so a reopen with the
// nodes reordered or resized — keys would hash onto the wrong nodes — or at
// another rf, which would under- or over-replicate every new write, is
// refused, and so is a pin from before rf was pinned. The refusal names the
// node. A refused open changes nothing: the correct reopen then reads every
// key back.

// TestGeometryPinned runs every pin case against lsm node directories.
func TestGeometryPinned(t *testing.T) {
	runPinCases(t, lsmPinCluster, pinCases)
}

// TestRemoteClusterRefusesReorderedAddresses runs the cases that change the
// address list against rstore-node daemons.
func TestRemoteClusterRefusesReorderedAddresses(t *testing.T) {
	runPinCases(t, remotePinCluster, pinCasesNamed("reordered", "shrunk", "grown", "reopen"))
}

// TestRemoteClusterRefusesReplicationFactorChange runs the cases that change
// or predate the pinned rf against rstore-node daemons.
func TestRemoteClusterRefusesReplicationFactorChange(t *testing.T) {
	runPinCases(t, remotePinCluster, pinCasesNamed("rf raised", "rf lowered", "legacy pin"))
}

func pinCasesNamed(names ...string) []pinCase {
	var out []pinCase
	for _, name := range names {
		for _, tc := range pinCases {
			if tc.name == name {
				out = append(out, tc)
			}
		}
	}
	if len(out) != len(names) {
		panic(fmt.Sprintf("pinCasesNamed(%q): %d cases", names, len(out)))
	}
	return out
}

func lsmPinCluster(t *testing.T) pinCluster {
	// Node directories live apart; each open links them into a fresh
	// Dir in the order it is given, as moving them on disk would.
	places := t.TempDir()
	place := func(k int) string { return filepath.Join(places, fmt.Sprint(k)) }
	var dir string
	return pinCluster{
		open: func(order []int, rf int) (*Store, error) {
			dir = t.TempDir()
			for j, k := range order {
				if err := os.MkdirAll(place(k), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.Symlink(place(k), filepath.Join(dir, fmt.Sprintf("node-%d", j))); err != nil {
					t.Fatal(err)
				}
			}
			return Open(context.Background(), Config{Engine: EngineLSM, Dir: dir, Nodes: len(order), ReplicationFactor: rf})
		},
		name: func(_ []int, i int) string { return filepath.Join(dir, fmt.Sprintf("node-%d", i)) },
		put: func(i int, value []byte) error {
			be, err := lsm.Open(place(i), lsm.Options{})
			if err != nil {
				return err
			}
			if err := be.Put(context.Background(), clusterTable, nodeIDKey, value); err != nil {
				be.Close()
				return err
			}
			return be.Close()
		},
	}
}

func remotePinCluster(t *testing.T) pinCluster {
	addrs, nodes := startNodes(t, 4)
	return pinCluster{
		open: func(order []int, rf int) (*Store, error) {
			var list []string
			for _, k := range order {
				list = append(list, addrs[k])
			}
			return Open(context.Background(), Config{Engine: EngineRemote, NodeAddrs: list, ReplicationFactor: rf})
		},
		name: func(order []int, i int) string { return "daemon " + addrs[order[i]] },
		put: func(i int, value []byte) error {
			return nodes[i].be.Put(context.Background(), clusterTable, nodeIDKey, value)
		},
	}
}

func runPinCases(t *testing.T, start func(t *testing.T) pinCluster, cases []pinCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			c := start(t)
			initial := []int{0, 1, 2}
			s, err := c.open(initial, 2)
			if err != nil {
				t.Fatal(err)
			}
			// A node is pinned by its first write, and every refusal below
			// needs the node it names pinned: a batch that reaches all three.
			if err := s.BatchPut(ctx, "t", []Entry{{Key: "a", Value: []byte("1")}, {Key: "b"}, {Key: "c"}, {Key: "d"}}); err != nil {
				t.Fatal(err)
			}
			for _, n := range s.nodes {
				n.pinMu.Lock()
				due := n.pin != nil
				n.pinMu.Unlock()
				if due {
					t.Fatalf("node %d took no write: its pin is still due", n.id)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.legacy {
				for i := range initial {
					legacy := fmt.Sprintf("%d of %d format=%s", i, len(initial), storedFormat)
					if err := c.put(i, envelope(envValue, 1, []byte(legacy))); err != nil {
						t.Fatal(err)
					}
				}
			}

			r, err := c.open(tc.order, tc.rf)
			if tc.want != "" {
				if err == nil {
					r.Close()
					t.Fatalf("open accepted, want a refusal with %q", tc.want)
				}
				if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), c.name(tc.order, 0)) {
					t.Fatalf("open: %v, want %q naming %s", err, tc.want, c.name(tc.order, 0))
				}
				if tc.legacy {
					return
				}
				if r, err = c.open(initial, 2); err != nil {
					t.Fatalf("correct reopen after the refusal: %v", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if v, err := r.Get(ctx, "t", "a"); err != nil || string(v) != "1" {
				t.Fatalf("a = %q, %v", v, err)
			}
		})
	}
}

// TestReadingOpenPinsNothing: an open that only reads leaves a fresh node
// unpinned, so the next open may choose another shape; the first write
// pins it.
func TestReadingOpenPinsNothing(t *testing.T) {
	ctx := context.Background()
	c := lsmPinCluster(t)
	for _, rf := range []int{1, 2} {
		s, err := c.open([]int{0, 1}, rf)
		if err != nil {
			t.Fatalf("open at rf %d after a read: %v", rf, err)
		}
		if _, err := s.Get(ctx, "t", "a"); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("get on a fresh cluster: %v", err)
		}
		s.Close()
	}
	s, err := c.open([]int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "t", "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s, err := c.open([]int{0, 1}, 1); err == nil {
		s.Close()
		t.Fatal("open at rf 1 after a write at rf 2 accepted")
	}
}

// TestUnpinnedClusters: a memory cluster keeps nothing to reopen, and a
// NewBackend cluster's shape is its factory's business, so neither writes a
// !cluster key.
func TestUnpinnedClusters(t *testing.T) {
	ctx := context.Background()
	for name, cfg := range map[string]Config{
		"memory":     {Nodes: 3, ReplicationFactor: 2},
		"NewBackend": {Nodes: 3, ReplicationFactor: 2, NewBackend: func(int) (engine.Backend, error) { return memory.New(), nil }},
	} {
		s, err := Open(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(ctx, "t", "a", []byte("1")); err != nil {
			t.Fatal(err)
		}
		for _, n := range s.nodes {
			if _, ok, err := n.be.Get(ctx, clusterTable, nodeIDKey); ok || err != nil {
				t.Fatalf("%s: node %d holds a cluster pin (%v)", name, n.id, err)
			}
		}
		s.Close()
	}
}

// TestHintReplayDialsWithinBreakerBudget: the hint drain retries a down
// dialed node on every tick or kick, and it is the breaker that keeps those
// retries off the network. Node 2 accepts each connection and closes it at
// once, so every exchange fails and the breaker stays open; over 30 drain
// passes, 10 ms apart, with hints pending, the node sees no dial beyond the
// breaker's own probes and one more trip's worth of attempts.
func TestHintReplayDialsWithinBreakerBudget(t *testing.T) {
	addrs, _ := startNodes(t, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepts atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			c.Close()
		}
	}()
	addrs = append(addrs, ln.Addr().String())

	s := openRemote(t, addrs, 2)
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if err := s.Put(ctx, "t", fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	down := s.nodes[2].rc
	if !down.BreakerStats().Open {
		t.Fatal("precondition: node 2's breaker should be open")
	}
	if s.Stats(ctx).HintsPending == 0 {
		t.Fatal("precondition: no hints parked for node 2")
	}

	dials, probes := accepts.Load(), down.BreakerStats().Probes
	for i := 0; i < 30; i++ {
		s.repair.kickDrain()
		time.Sleep(10 * time.Millisecond)
	}
	if s.Stats(ctx).HintsPending == 0 {
		t.Fatal("hints drained to a node that refuses every exchange")
	}
	dials, probes = accepts.Load()-dials, down.BreakerStats().Probes-probes
	t.Logf("node 2: %d dials, %d probes over 30 drain passes", dials, probes)
	if budget := probes + int64(remote.BreakerThreshold*remote.Attempts); dials > budget {
		t.Fatalf("node 2 dialed %d times over 30 drain passes; the breaker allows %d (%d probes)", dials, budget, probes)
	}
}
