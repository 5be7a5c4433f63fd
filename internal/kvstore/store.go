package kvstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/disklog"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
	"rstore/internal/types"
)

// Engine names accepted by Config.Engine.
const (
	// EngineMemory is the default in-process map backend; nothing persists.
	EngineMemory = "memory"
	// EngineDisklog is the log-structured disk backend; each node's
	// segments live under Config.Dir/node-N and survive restarts.
	EngineDisklog = "disklog"
	// EngineLSM is the log-structured merge-tree disk backend (WAL +
	// memtable + bloom-filtered SSTables); each node's tree lives under
	// Config.Dir/node-N and survives restarts. All nodes of one cluster
	// share a block cache, so the cache budget is per cluster, not per
	// node.
	EngineLSM = "lsm"
	// EngineRemote speaks the engine wire protocol to one storage daemon
	// (cmd/rstore-node) per entry of Config.NodeAddrs: a real cluster
	// instead of the in-process simulator.
	EngineRemote = "remote"
)

// Config configures a cluster.
type Config struct {
	// Nodes is the cluster size. Defaults to 1.
	Nodes int
	// ReplicationFactor is the number of replicas per key. Defaults to 1,
	// capped at Nodes.
	ReplicationFactor int
	// ReadBalance spreads multi-get reads across live replicas (token-aware
	// round-robin, like Cassandra drivers) instead of always reading the
	// primary. With ReplicationFactor > 1 this shortens the per-node serial
	// queue that bounds batch retrieval — the replication effect the
	// paper's conclusion flags for future study.
	ReadBalance bool
	// Cost is the latency model; zero value disables simulated timing.
	Cost CostModel
	// Engine selects the per-node storage backend: EngineMemory (the
	// default), EngineDisklog, EngineLSM, or EngineRemote.
	Engine string
	// Dir is the data directory for disk-backed engines; node i stores its
	// data under Dir/node-i. Required when Engine is EngineDisklog or
	// EngineLSM.
	Dir string
	// NodeAddrs lists one daemon address (host:port) per node for
	// EngineRemote, in node-id order. The address list is the cluster
	// shape: Nodes defaults to len(NodeAddrs) and must match it when set,
	// because keys hash onto nodes by position on the ring.
	NodeAddrs []string
	// Remote tunes the wire clients of EngineRemote (pooling, retries,
	// timeouts); the zero value gives defaults.
	Remote remote.Options
	// Repair tunes replication repair — read repair, hinted handoff, and
	// tombstone GC (see repair.go). The zero value enables repair with
	// defaults whenever ReplicationFactor > 1.
	Repair RepairOptions
	// NewBackend, when set, overrides Engine/Dir with a custom backend
	// factory (tests, out-of-tree engines).
	NewBackend func(nodeID int) (engine.Backend, error)
}

// opener resolves how node id's backend is opened. Only the EngineRemote
// arm dials, so only its nodes carry the wire client in node.rc; it also
// takes the cluster shape from the address list.
func (cfg *Config) opener() (func(id int) (*node, error), error) {
	mk := cfg.NewBackend
	if mk == nil {
		switch cfg.Engine {
		case "", EngineMemory:
			mk = func(int) (engine.Backend, error) { return memory.New(), nil }
		case EngineDisklog:
			mk = func(id int) (engine.Backend, error) {
				return disklog.Open(filepath.Join(cfg.Dir, fmt.Sprintf("node-%d", id)), disklog.Options{})
			}
		case EngineLSM:
			// One cache for the whole cluster: hot blocks compete for a single
			// budget instead of N private ones sized blind to each other.
			cache := lsm.NewBlockCache(0)
			mk = func(id int) (engine.Backend, error) {
				return lsm.Open(filepath.Join(cfg.Dir, fmt.Sprintf("node-%d", id)), lsm.Options{Cache: cache})
			}
		case EngineRemote:
			if cfg.Nodes <= 0 {
				cfg.Nodes = len(cfg.NodeAddrs)
			}
			if cfg.Nodes != len(cfg.NodeAddrs) {
				return nil, fmt.Errorf("kvstore: Nodes=%d but %d node addresses", cfg.Nodes, len(cfg.NodeAddrs))
			}
			if len(cfg.NodeAddrs) == 0 {
				return nil, fmt.Errorf("kvstore: engine %q needs Config.NodeAddrs", cfg.Engine)
			}
			return func(id int) (*node, error) {
				c, err := remote.Dial(cfg.NodeAddrs[id], cfg.Remote)
				if err != nil {
					return nil, err
				}
				return &node{id: id, be: c, rc: c}, nil
			}, nil
		default:
			return nil, fmt.Errorf("kvstore: unknown engine %q (want %q, %q, %q, or %q)",
				cfg.Engine, EngineMemory, EngineDisklog, EngineLSM, EngineRemote)
		}
	}
	return func(id int) (*node, error) {
		be, err := mk(id)
		if err != nil {
			return nil, err
		}
		return &node{id: id, be: be}, nil
	}, nil
}

// SplitNodeAddrs parses a comma-separated daemon address list into
// Config.NodeAddrs form, trimming whitespace and dropping empty elements.
// The CLIs share it so -node-addrs handling cannot diverge.
func SplitNodeAddrs(list string) []string {
	var out []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Entry is one key/value pair of a batched write.
type Entry = engine.Entry

// geometryFile records the cluster shape a disk-backed data directory was
// created with, plus the stored-value format. Keys hash onto nodes by the
// ring, so reopening a directory with a different node count would look up
// keys on the wrong nodes and silently present a partial (or empty) store;
// refuse instead. The format tag exists because raw (pre-LWW) values would
// not fail cleanly through unenvelope — a raw value starting with a 0x00
// or 0x01 byte would be silently misparsed — so a directory without the
// current tag must be refused outright, not read. The replication factor
// is not pinned: the primary replica stays first under any rf, so reads
// keep finding their data.
const (
	geometryFile = "GEOMETRY"
	// storedFormat names the on-backend value encoding; bump when it
	// changes incompatibly. "lww1" is the envelope of lww.go.
	storedFormat = "lww1"
)

func checkGeometry(dir string, nodes int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	path := filepath.Join(dir, geometryFile)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return writeGeometry(dir, path, nodes)
	}
	if err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	var got int
	var format string
	if _, err := fmt.Sscanf(string(b), "nodes=%d format=%s", &got, &format); err != nil {
		// A bare "nodes=N" line is a directory written before value
		// formats existed (raw values, unreadable now).
		if _, err := fmt.Sscanf(string(b), "nodes=%d", &got); err == nil {
			return fmt.Errorf("kvstore: data directory %s was written with a pre-%s value format and cannot be read; recreate it", dir, storedFormat)
		}
		return fmt.Errorf("kvstore: corrupt geometry file %s: %q", path, b)
	}
	if format != storedFormat {
		return fmt.Errorf("kvstore: data directory %s uses value format %q, this build reads %q", dir, format, storedFormat)
	}
	if got != nodes {
		return fmt.Errorf("kvstore: data directory %s was created with %d nodes, reopened with %d", dir, got, nodes)
	}
	return nil
}

// writeGeometry durably records the node count (file and directory entry
// both fsynced — the pin is worthless if a power failure can drop it).
func writeGeometry(dir, path string, nodes int) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	if _, err := fmt.Fprintf(f, "nodes=%d format=%s\n", nodes, storedFormat); err != nil {
		f.Close()
		return fmt.Errorf("kvstore: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("kvstore: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	return nil
}

// Store is an in-process distributed key-value store: the substrate RStore
// persists chunks, chunk maps, indexes, and delta batches into. It exposes
// only the basic get/put/delete interface the paper assumes, plus a parallel
// MultiGet (issuing point gets concurrently, exactly what RStore's query
// module does), a replica-batched BatchPut (the unit the engine's flush path
// commits in), and an administrative Scan used for index rebuilds. Each node
// delegates its data to an engine.Backend selected by Config.Engine.
type Store struct {
	cfg    Config
	ring   *ring
	nodes  []*node
	closed atomic.Bool
	lastTS atomic.Uint64 // LWW write clock (see lww.go)
	// repair is the replication-repair subsystem (repair.go); nil at
	// ReplicationFactor 1, where replicas cannot diverge.
	repair *repairer
	// ae is the background anti-entropy loop (antientropy.go); nil unless
	// RepairOptions.AntiEntropyInterval is set and ReplicationFactor > 1.
	ae *antiEntropy

	// Virtual clock and counters (atomics; Store is safe for concurrent
	// use).
	simClock   atomic.Int64 // accumulated simulated time, ns
	reqCount   atomic.Int64
	bytesRead  atomic.Int64
	bytesPut   atomic.Int64
	writeCalls atomic.Int64
}

// Open creates a cluster, opening one backend (or wire client) per node.
// ctx bounds the open itself — the remote geometry probe and durable-hint
// recovery round-trips — not the lifetime of the returned Store.
func Open(ctx context.Context, cfg Config) (*Store, error) {
	open, err := cfg.opener()
	if err != nil {
		return nil, err
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 1
	}
	if cfg.ReplicationFactor > cfg.Nodes {
		cfg.ReplicationFactor = cfg.Nodes
	}
	if cfg.NewBackend == nil && (cfg.Engine == EngineDisklog || cfg.Engine == EngineLSM) {
		if cfg.Dir == "" {
			return nil, fmt.Errorf("kvstore: engine %q needs Config.Dir", cfg.Engine)
		}
		if err := checkGeometry(cfg.Dir, cfg.Nodes); err != nil {
			return nil, err
		}
	}
	s := &Store{cfg: cfg, ring: newRing(cfg.Nodes)}
	for i := 0; i < cfg.Nodes; i++ {
		n, err := open(i)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("kvstore: open node %d: %w", i, err)
		}
		s.nodes = append(s.nodes, n)
	}
	if err := s.pinRemoteGeometry(ctx); err != nil {
		s.Close()
		return nil, err
	}
	if cfg.ReplicationFactor > 1 {
		s.repair = newRepairer(s, cfg.Repair)
		// Resume draining hints a previous client parked (durable in the
		// !hints tables); unreachable nodes are simply skipped.
		s.repair.recoverHints(ctx)
		if cfg.Repair.AntiEntropyInterval > 0 {
			// Started after the repairer: the loop routes every repair it
			// finds through the repairer's workers and lifecycle context.
			s.ae = newAntiEntropy(s, cfg.Repair)
			s.ae.start()
		}
	}
	// A remote node recovering from probation (breaker closing) kicks hint
	// drain so writes parked while it was down replay promptly — the wire
	// counterpart of SetNodeUp's nudge. Wired last so the callback never
	// observes a half-built Store.
	for _, n := range s.nodes {
		if n.rc != nil {
			n.rc.SetStateListener(func(up bool) {
				if up && s.repair != nil {
					s.repair.kickDrain()
				}
			})
		}
	}
	return s, nil
}

// dialed reports whether kvstore dialed its nodes itself (all of them or
// none: one opener serves the whole cluster), so that each node operation
// is a network round trip to a daemon that outlives this Store.
func (s *Store) dialed() bool { return s.nodes[0].rc != nil }

// clusterTable is a kvstore-private table holding per-daemon identity
// records. It is written and read directly per node (bypassing the ring)
// and excluded from Dump, so snapshots stay portable across cluster
// shapes.
const (
	clusterTable = "!cluster"
	nodeIDKey    = "node-id"
)

// pinRemoteGeometry is the remote counterpart of the disklog GEOMETRY
// file: each daemon records which ring position (and cluster size) it
// serves plus the cluster's replication factor, so reopening the same
// daemons with the address list reordered or resized — or with a different
// -rf, which would silently under- (or over-) replicate every new write —
// is refused instead of accepted. Unreachable daemons are skipped —
// opening with a node down is allowed, and a mismatched daemon will still
// be caught on any open that can reach it. Pins written before the
// replication factor was recorded are upgraded in place when everything
// they do pin matches. Clusters kvstore did not dial pin nothing: their
// shape is pinned by the GEOMETRY file, or is the NewBackend factory's
// business.
func (s *Store) pinRemoteGeometry(ctx context.Context) error {
	if !s.dialed() {
		return nil
	}
	for _, n := range s.nodes {
		want := fmt.Sprintf("%d of %d rf=%d format=%s", n.id, len(s.nodes), s.cfg.ReplicationFactor, storedFormat)
		legacy := fmt.Sprintf("%d of %d format=%s", n.id, len(s.nodes), storedFormat)
		raw, ok, err := n.get(ctx, clusterTable, nodeIDKey)
		if isUnavailable(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("kvstore: node %d geometry probe: %w", n.id, err)
		}
		writePin := !ok
		if ok {
			payload, _, tomb, err := unenvelope(raw)
			if err != nil {
				return fmt.Errorf("kvstore: node %d geometry probe: %w", n.id, err)
			}
			switch {
			case tomb:
				writePin = true
			case string(payload) == want:
				continue
			case string(payload) == legacy:
				// Pre-rf pin with matching position/shape/format: adopt this
				// open's replication factor as the pinned one.
				writePin = true
			default:
				var pid, pn, prf int
				var pfmt string
				if _, err := fmt.Sscanf(string(payload), "%d of %d rf=%d format=%s", &pid, &pn, &prf, &pfmt); err == nil &&
					pid == n.id && pn == len(s.nodes) && pfmt == storedFormat && prf != s.cfg.ReplicationFactor {
					return fmt.Errorf("kvstore: cluster is pinned at replication factor %d but was opened with %d: new writes would be %s-replicated (wipe the daemons or reopen with -rf %d)",
						prf, s.cfg.ReplicationFactor, underOver(s.cfg.ReplicationFactor < prf), prf)
				}
				return fmt.Errorf("kvstore: daemon %s is pinned as node %q but the address list opens it as %q: node addresses reordered or resized",
					n.rc.Addr(), payload, want)
			}
		}
		if writePin {
			env := envelope(envValue, s.nextTS(), []byte(want))
			if err := n.put(ctx, clusterTable, nodeIDKey, env); err != nil && !isUnavailable(err) {
				return fmt.Errorf("kvstore: node %d geometry pin: %w", n.id, err)
			}
		}
	}
	return nil
}

func underOver(under bool) string {
	if under {
		return "under"
	}
	return "over"
}

// Close closes every node's backend, flushing disk-backed engines and
// releasing remote connections. All nodes are closed even when some fail;
// the per-node errors are aggregated. Closing twice is a no-op — backends
// are not re-touched.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.ae != nil {
		// Stop the anti-entropy loop before the repairer it enqueues into.
		s.ae.close()
	}
	if s.repair != nil {
		// Stop repair workers before their nodes' backends go away.
		s.repair.close()
	}
	var errs []error
	for _, n := range s.nodes {
		if err := n.be.Close(); err != nil {
			errs = append(errs, fmt.Errorf("kvstore: close node %d: %w", n.id, err))
		}
	}
	return errors.Join(errs...)
}

// Nodes returns the cluster size.
func (s *Store) Nodes() int { return s.cfg.Nodes }

// Cost returns the configured cost model.
func (s *Store) Cost() CostModel { return s.cfg.Cost }

// Put stores value under (table, key) on all replicas. Replicas that are
// down are routed around, and — with repair enabled — the missed write is
// parked as a hint on a replica that took it, to be replayed when the
// node returns (repair.go).
func (s *Store) Put(ctx context.Context, table, key string, value []byte) error {
	s.writeCalls.Add(1)
	replicas := s.ring.replicas(key, s.cfg.ReplicationFactor)
	env := envelope(envValue, s.nextTS(), value)
	park, missed, err := s.replicatedPut(ctx, replicas, table, key, env)
	if err != nil {
		return fmt.Errorf("kvstore: put %s/%s: %w", table, key, err)
	}
	if park < 0 {
		return allDownErr(ctx, "kvstore: put %s/%s: all replicas down", table, key)
	}
	if s.repair != nil && len(missed) > 0 {
		specs := make([]hintSpec, len(missed))
		for i, n := range missed {
			specs[i] = hintSpec{target: n, table: table, key: key, env: env}
		}
		s.repair.addHints(ctx, park, specs)
	}
	s.bytesPut.Add(int64(len(value)))
	s.simClock.Add(int64(s.cfg.Cost.requestCost(len(value))))
	s.reqCount.Add(1)
	return nil
}

// replicatedPut writes one envelope to every replica, routing around down
// nodes. The replica writes issue concurrently (one goroutine per extra
// replica) so a dead node's dial-retry latency does not stack in front of
// the live ones. It reports the acknowledging node earliest in replica
// order (-1 if none — the caller renders the all-down error; the replica
// order makes the park choice deterministic regardless of completion
// order) and the nodes that missed the write; hard engine errors abort.
func (s *Store) replicatedPut(ctx context.Context, replicas []int, table, key string, env []byte) (park int, missed []int, err error) {
	errs := make([]error, len(replicas))
	if len(replicas) > 1 {
		var wg sync.WaitGroup
		for j, n := range replicas {
			wg.Add(1)
			go func(j, n int) {
				defer wg.Done()
				errs[j] = s.nodes[n].put(ctx, table, key, env)
			}(j, n)
		}
		wg.Wait()
	} else {
		errs[0] = s.nodes[replicas[0]].put(ctx, table, key, env)
	}
	park = -1
	for j, n := range replicas {
		switch err := errs[j]; {
		case err == nil:
			if park < 0 {
				park = n
			}
		case isUnavailable(err):
			missed = append(missed, n)
		default:
			return -1, nil, err
		}
	}
	return park, missed, nil
}

// BatchPut stores many values in one table, grouping the writes per replica
// node and committing each group through the node's backend in a single
// call — one durability sync per node per batch instead of one per key.
// Like Put, it fails only if some entry has no live replica or a backend
// errors; simulated timing follows the MultiGet batch model (per-node serial
// service, parallel client lanes).
func (s *Store) BatchPut(ctx context.Context, table string, entries []Entry) error {
	return s.batchWrite(ctx, "batchput", table, envValue, entries)
}

// BatchDelete removes many keys of one table as BatchPut stores them: one
// tombstone per key, grouped per replica node, each group one backend batch.
// Every key is deleted exactly as Delete deletes it — a replica that misses
// its tombstone is outvoted by the timestamp and, with repair enabled, hinted,
// and a tombstone every replica holds is collected. Deleting a missing key is
// not an error; a key with no live replica is.
func (s *Store) BatchDelete(ctx context.Context, table string, keys []string) error {
	entries := make([]Entry, len(keys))
	for i, key := range keys {
		entries[i].Key = key
	}
	return s.batchWrite(ctx, "batchdelete", table, envTombstone, entries)
}

// batchWrite is BatchPut (flag envValue) and BatchDelete (envTombstone, the
// entries' values nil): one envelope per entry under one timestamp, written to
// every replica in per-node groups.
func (s *Store) batchWrite(ctx context.Context, op, table string, flag byte, entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	s.writeCalls.Add(1)
	perNode := make(map[int][]int)
	replicasOf := make([][]int, len(entries))
	for i, e := range entries {
		replicasOf[i] = s.ring.replicas(e.Key, s.cfg.ReplicationFactor)
		for _, n := range replicasOf[i] {
			perNode[n] = append(perNode[n], i)
		}
	}
	// One envelope per entry (one timestamp per batch), shared across the
	// replica groups.
	ts := s.nextTS()
	envs := make([][]byte, len(entries))
	for i, e := range entries {
		envs[i] = envelope(flag, ts, e.Value)
	}
	// The per-node groups issue concurrently (bounded by the node count:
	// one goroutine per group), so a dead node's dial-retry latency does
	// not serialize in front of the live groups. Hard errors are reported
	// in node order for determinism.
	nids := make([]int, 0, len(perNode))
	for nid := range perNode {
		nids = append(nids, nid)
	}
	sort.Ints(nids)
	groupErrs := make([]error, len(nids))
	var wg sync.WaitGroup
	for j, nid := range nids {
		idxs := perNode[nid]
		group := make([]engine.Entry, len(idxs))
		for k, i := range idxs {
			group[k] = engine.Entry{Key: entries[i].Key, Value: envs[i]}
		}
		wg.Add(1)
		go func(j, nid int, group []engine.Entry) {
			defer wg.Done()
			groupErrs[j] = s.nodes[nid].batchPut(ctx, table, group)
		}(j, nid, group)
	}
	wg.Wait()
	nodeErr := make(map[int]error, len(nids))
	var missedByNode map[int][]int // down node → entry indexes it missed
	for j, nid := range nids {
		switch err := groupErrs[j]; {
		case err == nil:
			nodeErr[nid] = nil
		case isUnavailable(err):
			// Routed around; entries survive on other replicas.
			nodeErr[nid] = err
			if missedByNode == nil {
				missedByNode = make(map[int][]int)
			}
			missedByNode[nid] = perNode[nid]
		default:
			return fmt.Errorf("kvstore: %s %s: node %d: %w", op, table, nid, err)
		}
	}
	// committed[i] = acking node earliest in entry i's replica order, or -1
	// (deterministic park choice, matching replicatedPut).
	committed := make([]int, len(entries))
	var bytes int64
	for i, e := range entries {
		committed[i] = -1
		for _, n := range replicasOf[i] {
			if nodeErr[n] == nil {
				committed[i] = n
				break
			}
		}
		if committed[i] < 0 {
			return allDownErr(ctx, "kvstore: %s %s/%s: all replicas down", op, table, e.Key)
		}
		bytes += int64(len(e.Value))
	}
	if s.repair != nil && flag == envTombstone {
		// Register each tombstone's ack wait BEFORE parking hints, as Delete
		// does: a hint replayed the instant it is parked must find it.
		for i, e := range entries {
			var pending map[int]bool // the replicas that missed it; mostly none
			for _, n := range replicasOf[i] {
				if nodeErr[n] != nil {
					if pending == nil {
						pending = make(map[int]bool)
					}
					pending[n] = true
				}
			}
			s.repair.trackTombstone(table, e.Key, ts, pending, replicasOf[i])
		}
	}
	if s.repair != nil && len(missedByNode) > 0 {
		// Park the missed writes, batched per parking node (the first
		// replica that acknowledged each entry) so the hint log costs one
		// durable batch per park, not one per key.
		perPark := make(map[int][]hintSpec)
		for nid, idxs := range missedByNode {
			for _, i := range idxs {
				park := committed[i]
				perPark[park] = append(perPark[park], hintSpec{
					target: nid, table: table, key: entries[i].Key, env: envs[i],
				})
			}
		}
		for park, specs := range perPark {
			s.repair.addHints(ctx, park, specs)
		}
	}

	// Simulated timing: per-primary serial service, client-side lanes
	// (replica fan-out is free, matching Put's accounting).
	perPrimary := make(map[int][]int)
	for i, e := range entries {
		p := replicasOf[i][0]
		perPrimary[p] = append(perPrimary[p], len(e.Value))
	}
	s.bytesPut.Add(bytes)
	s.reqCount.Add(int64(len(entries)))
	s.simClock.Add(int64(s.cfg.Cost.batchElapsed(perPrimary)))
	return nil
}

// Get retrieves the value under (table, key). It returns types.ErrNotFound
// if no live replica has the key (or the newest version is a tombstone),
// and an error when every replica is down.
func (s *Store) Get(ctx context.Context, table, key string) ([]byte, error) {
	v, ok, anyUp, err := s.lwwGet(ctx, table, key)
	if err != nil {
		return nil, fmt.Errorf("kvstore: get %s/%s: %w", table, key, err)
	}
	if !anyUp {
		return nil, allDownErr(ctx, "kvstore: get %s/%s: all replicas down", table, key)
	}
	if ok {
		s.account(1, len(v))
		return v, nil
	}
	s.account(1, 0)
	return nil, fmt.Errorf("%w: %s/%s", types.ErrNotFound, table, key)
}

// lwwGet reads (table, key) from every live replica and resolves the
// newest version by write timestamp — a node that restarted stale (it was
// down while peers accepted overwrites or deletes) is outvoted instead of
// believed; see lww.go. Timestamp ties resolve deterministically
// (tombstone first, then lowest node id — lwwNewer), so every reader and
// every repair picks the same winner. On dialed clusters the replicas are
// consulted concurrently so one dead node's dial-retry latency does not
// stack in front of the others — worth a goroutine per replica when each
// read is a network round trip, pure overhead when it is an in-process map
// lookup. Cost accounting charges one request per key regardless: replica
// consultation is modeled as free digest reads, mirroring how Put charges
// once despite its replica fan-out. It reports whether any replica was
// reachable; err is a hard engine error.
//
// Divergence observed here is also queued for read repair: live replicas
// that returned an older version (or missed a live key, or hold a value a
// tombstone deleted) get the winning envelope written back asynchronously.
func (s *Store) lwwGet(ctx context.Context, table, key string) (v []byte, ok, anyUp bool, err error) {
	replicas := s.ring.replicas(key, s.cfg.ReplicationFactor)
	results := make([]readResult, len(replicas))
	if len(replicas) > 1 && s.dialed() {
		var wg sync.WaitGroup
		for j, n := range replicas {
			wg.Add(1)
			go func(j, n int) {
				defer wg.Done()
				r := &results[j]
				r.raw, r.present, r.err = s.nodes[n].get(ctx, table, key)
			}(j, n)
		}
		wg.Wait()
	} else {
		for j, n := range replicas {
			r := &results[j]
			r.raw, r.present, r.err = s.nodes[n].get(ctx, table, key)
		}
	}
	return s.resolveRead(table, key, replicas, results)
}

// readResult is one replica's answer for one key: a raw envelope (or its
// absence), or the error the attempt returned. ts and tomb are filled in
// by resolveRead.
type readResult struct {
	raw     []byte
	present bool
	err     error
	ts      uint64
	tomb    bool
}

// resolveRead LWW-merges one key's per-replica read results: the newest
// version wins (ties resolved by lwwNewer), divergent live replicas are
// queued for read repair, and fully-agreed expired tombstones are handed
// to TTL collection. It is the shared resolution step of lwwGet and the
// batched MultiGet path, so both observe divergence identically. results
// must align with replicas (results[j] answers replicas[j]).
func (s *Store) resolveRead(table, key string, replicas []int, results []readResult) (v []byte, ok, anyUp bool, err error) {
	var best []byte
	var bestTS uint64
	var bestNode int
	found, tombstone := false, false
	for i := range results {
		r := &results[i]
		if isUnavailable(r.err) {
			continue
		}
		if r.err != nil {
			return nil, false, true, r.err
		}
		anyUp = true
		if !r.present {
			continue
		}
		payload, ts, tomb, err := unenvelope(r.raw)
		if err != nil {
			return nil, false, true, err
		}
		r.ts, r.tomb = ts, tomb
		if !found || lwwNewer(ts, tomb, replicas[i], bestTS, tombstone, bestNode) {
			found, bestTS, tombstone, bestNode, best = true, ts, tomb, replicas[i], payload
		}
	}

	if s.repair != nil && found {
		// complete = every replica was reachable and agrees with the
		// winner. For a tombstone winner a replica that is missing the key
		// also agrees in effect — it holds nothing the tombstone protects
		// against — so it neither blocks TTL collection nor gets the
		// tombstone re-created (which would undo GC).
		complete := true
		var losers []int
		for i := range results {
			r := &results[i]
			if r.err != nil {
				complete = false
				continue
			}
			if r.present && r.ts == bestTS && r.tomb == tombstone {
				continue // carries the winning version
			}
			if !r.present && tombstone {
				continue
			}
			complete = false
			losers = append(losers, replicas[i])
		}
		if len(losers) > 0 && !s.repair.opts.DisableReadRepair {
			flag := byte(envValue)
			if tombstone {
				flag = envTombstone
			}
			// envelope() builds a fresh buffer, so the queued task owns its
			// bytes (best may alias a result buffer).
			s.repair.enqueue(repairTask{
				table: table, key: key,
				env: envelope(flag, bestTS, best), ts: bestTS, tomb: tombstone,
				targets: losers,
			})
		}
		if tombstone && complete {
			s.repair.observeExpiredTombstone(table, key, bestTS, replicas)
		}
	}

	if !found || tombstone {
		return nil, false, anyUp, nil
	}
	return best, true, anyUp, nil
}

// Delete removes (table, key) from all replicas by writing a tombstone:
// a replica that misses the delete (down at the time) is outvoted by the
// tombstone's newer timestamp when it comes back, instead of resurrecting
// the value — and, with repair enabled, receives the tombstone by hint
// replay. Once every replica has acknowledged the tombstone (now, or
// later through hints and read repair), it is physically collected
// (repair.go). Deleting a missing key is not an error, but — matching
// Put — deleting while every replica is down is: the tombstone took hold
// nowhere.
func (s *Store) Delete(ctx context.Context, table, key string) error {
	s.writeCalls.Add(1)
	replicas := s.ring.replicas(key, s.cfg.ReplicationFactor)
	ts := s.nextTS()
	env := envelope(envTombstone, ts, nil)
	park, missed, err := s.replicatedPut(ctx, replicas, table, key, env)
	if err != nil {
		return fmt.Errorf("kvstore: delete %s/%s: %w", table, key, err)
	}
	if park < 0 {
		return allDownErr(ctx, "kvstore: delete %s/%s: all replicas down", table, key)
	}
	if s.repair != nil {
		// Register the ack wait BEFORE parking hints: a hint replayed the
		// instant it is parked (the target flapped back up mid-drain) must
		// find the wait registered, or its acknowledgment would be dropped
		// and the tombstone never collected.
		pending := make(map[int]bool, len(missed))
		for _, n := range missed {
			pending[n] = true
		}
		s.repair.trackTombstone(table, key, ts, pending, replicas)
		if len(missed) > 0 {
			specs := make([]hintSpec, len(missed))
			for i, n := range missed {
				specs[i] = hintSpec{target: n, table: table, key: key, env: env}
			}
			s.repair.addHints(ctx, park, specs)
		}
	}
	s.account(1, 0)
	return nil
}

// MultiGetResult reports the outcome of a parallel multi-key fetch.
type MultiGetResult struct {
	// Values holds one entry per requested key, in request order; missing
	// keys yield nil entries.
	Values [][]byte
	// Missing lists the indexes of keys that were not found.
	Missing []int
	// Requests is the number of point requests issued.
	Requests int
	// BytesRead is the total response volume.
	BytesRead int64
	// Elapsed is the simulated wall time of the batch under the cost model
	// (parallel lanes, per-node serialization).
	Elapsed time.Duration
}

// MultiGet fetches many keys from one table — the access pattern of
// RStore's query processing module. Keys are grouped by replica node and
// each node's group is read in one batched request (a single wire round
// trip per node on remote clusters), issued in parallel; each key's
// replica answers are then LWW-merged exactly like a point Get. Keys
// whose every replica batch came back unavailable fall back to per-key
// reads, whose retry schedule re-discovers liveness. Missing keys are
// reported, not errors: what a hole means is the caller's to say (to core,
// which only asks for what its layout placed, it is corruption).
func (s *Store) MultiGet(ctx context.Context, table string, keys []string) (*MultiGetResult, error) {
	res := &MultiGetResult{Values: make([][]byte, len(keys))}
	if len(keys) == 0 {
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("kvstore: multiget %s: %w", table, err)
	}

	// Group request indexes by serving replica: the primary by default, or
	// the least-loaded live replica when read balancing is on (tracked with
	// O(1) per-replica load counters). available() is only a hint (a remote
	// node's liveness is discovered per request), so the fetch paths below
	// still fall back across replicas. The serving grouping drives the
	// simulated batch cost; the physical reads consult every replica.
	rf := s.cfg.ReplicationFactor
	replicasOf := make([][]int, len(keys))
	load := make([]int, len(s.nodes))
	byNode := make(map[int][]int)
	for i, k := range keys {
		replicasOf[i] = s.ring.replicas(k, rf)
		n := -1
		for _, r := range replicasOf[i] {
			if !s.nodes[r].isUp() {
				continue
			}
			if !s.cfg.ReadBalance {
				n = r
				break
			}
			if n == -1 || load[r] < load[n] {
				n = r
			}
		}
		if n < 0 {
			return nil, fmt.Errorf("kvstore: multiget %s: all replicas down for %q", table, k)
		}
		load[n]++
		byNode[n] = append(byNode[n], i)
	}

	missing, err := s.multiGetBatched(ctx, table, keys, replicasOf, res)
	if err != nil {
		return nil, err
	}
	res.Missing = missing
	sort.Ints(res.Missing)

	// Simulated timing: per-node serial service, client-side lanes.
	perNode := make(map[int][]int, len(byNode))
	for nid, idxs := range byNode {
		sizes := make([]int, len(idxs))
		for j, i := range idxs {
			sizes[j] = len(res.Values[i])
		}
		perNode[nid] = sizes
	}
	res.Requests = len(keys)
	for _, v := range res.Values {
		res.BytesRead += int64(len(v))
	}
	res.Elapsed = s.cfg.Cost.batchElapsed(perNode)
	s.reqCount.Add(int64(res.Requests))
	s.bytesRead.Add(res.BytesRead)
	s.simClock.Add(int64(res.Elapsed))
	return res, nil
}

// multiGetBatched issues one batched read per node covering every key the
// node replicates, in parallel, then LWW-merges each key's answers across
// its replicas' batches — the same resolution (and read-repair
// observation) as a point Get, at one wire round trip per node instead of
// one per key per replica. A node whose batch failed as unavailable
// contributes no answers (its keys merge from the replicas that did
// answer, mirroring how lwwGet skips unavailable replicas); keys with no
// answering replica at all are retried through per-key lwwGet, whose
// per-operation retries re-discover liveness. Hard errors abort.
func (s *Store) multiGetBatched(ctx context.Context, table string, keys []string, replicasOf [][]int, res *MultiGetResult) (missing []int, err error) {
	// slot records where key i landed in each replica's batch, so its
	// answers can be collected without searching.
	type slot struct{ node, off int }
	perNode := make(map[int][]int)
	slots := make([][]slot, len(keys))
	for i := range keys {
		for _, r := range replicasOf[i] {
			slots[i] = append(slots[i], slot{r, len(perNode[r])})
			perNode[r] = append(perNode[r], i)
		}
	}

	type batch struct {
		vals    [][]byte
		present []bool
		err     error
	}
	batches := make(map[int]*batch, len(perNode))
	var wg sync.WaitGroup
	for nid, idxs := range perNode {
		b := &batch{}
		batches[nid] = b
		ks := make([]string, len(idxs))
		for j, i := range idxs {
			ks[j] = keys[i]
		}
		wg.Add(1)
		go func(nid int, ks []string, b *batch) {
			defer wg.Done()
			b.vals, b.present, b.err = s.nodes[nid].multiGet(ctx, table, ks)
		}(nid, ks, b)
	}
	wg.Wait()
	for nid, b := range batches {
		if b.err != nil && !isUnavailable(b.err) {
			return nil, fmt.Errorf("kvstore: multiget %s: node %d: %w", table, nid, b.err)
		}
	}

	var fallback []int
	for i := range keys {
		results := make([]readResult, len(slots[i]))
		answered := false
		for j, sl := range slots[i] {
			b := batches[sl.node]
			if b.err != nil {
				results[j].err = b.err
				continue
			}
			answered = true
			results[j].raw = b.vals[sl.off]
			results[j].present = b.present[sl.off]
		}
		if !answered {
			fallback = append(fallback, i)
			continue
		}
		v, ok, _, err := s.resolveRead(table, keys[i], replicasOf[i], results)
		if err != nil {
			return nil, fmt.Errorf("kvstore: multiget %s/%s: %w", table, keys[i], err)
		}
		if ok {
			res.Values[i] = v
		} else {
			missing = append(missing, i)
		}
	}

	for _, i := range fallback {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("kvstore: multiget %s: %w", table, err)
		}
		v, ok, anyUp, err := s.lwwGet(ctx, table, keys[i])
		switch {
		case err != nil:
			return nil, fmt.Errorf("kvstore: multiget %s/%s: %w", table, keys[i], err)
		case !anyUp:
			return nil, allDownErr(ctx, "kvstore: multiget %s/%s: all replicas down", table, keys[i])
		case ok:
			res.Values[i] = v
		default:
			missing = append(missing, i)
		}
	}
	return missing, nil
}

// Scan visits every live key/value of a table exactly once, in unspecified
// order, skipping tombstones; values are copied before fn sees them.
// Backend failures surface as the returned error.
//
// Scan feeds recovery (core's Load), snapshots, and index rebuilds, so it
// must not silently present a partial table: if enough nodes are
// unreachable that some key's entire replica set may have been
// unobservable (at ReplicationFactor 1, any down node), Scan errors
// instead of returning a truncated view — a Load over a truncated view
// would re-issue version ids and overwrite acknowledged commits. With
// fewer failures the sweep is complete and proceeds.
//
// Without replication each node streams its own keys. With replication the
// primary-owned restriction would be wrong twice over — a key's primary may
// be down (its replicas still hold the data) or freshly restarted and stale
// (holding an old version) — so Scan sweeps every reachable node and keeps
// the newest version of each key by LWW timestamp.
func (s *Store) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	if s.cfg.ReplicationFactor <= 1 {
		return s.scanUnreplicated(ctx, table, fn)
	}

	// Sweep all reachable replicas, retaining a copy of each key's newest
	// version (scan values alias backend buffers, so the winner must be
	// copied; losers are overwritten in place; tombstone winners buffer
	// only their timestamp). Holding the winners in memory is deliberate:
	// the alternative — resolve timestamps first, then re-read each winner
	// — costs one network round trip per key, and Scan's consumers (Load,
	// Dump, index rebuilds) are whole-table operations that buffer
	// comparable state themselves. A streaming merge-scan would need
	// ordered per-node iteration, which engine.Backend does not promise.
	//
	// The sweep doubles as a whole-table divergence detector: each winner
	// tracks (in two bitmasks, clusters ≤ 64 nodes) which nodes reported
	// it and which reported the winning version, so stale or missing
	// replicas can be queued for read repair after the sweep.
	detect := s.repair != nil && len(s.nodes) <= 64
	var upMask uint64
	best := make(map[string]*scanWinner)
	unavailable := 0
	var envErr error
	for _, n := range s.nodes {
		err := n.scan(ctx, table, func(k string, v []byte) bool {
			payload, ts, tomb, err := unenvelope(v)
			if err != nil {
				envErr = err
				return false
			}
			w, ok := best[k]
			if !ok {
				w = &scanWinner{}
				best[k] = w
			}
			if detect {
				w.reported |= 1 << n.id
			}
			if ok && !lwwNewer(ts, tomb, n.id, w.ts, w.tomb, w.node) {
				if detect && ts == w.ts && tomb == w.tomb {
					w.winners |= 1 << n.id
				}
				return true
			}
			w.ts, w.tomb, w.node = ts, tomb, n.id
			if detect {
				w.winners = 1 << n.id
			}
			w.value = append(w.value[:0], payload...)
			return true
		})
		if envErr != nil {
			return fmt.Errorf("kvstore: scan %s: %w", table, envErr)
		}
		if isUnavailable(err) {
			unavailable++
			continue
		}
		if err != nil {
			return fmt.Errorf("kvstore: scan %s: %w", table, err)
		}
		if detect {
			upMask |= 1 << n.id
		}
	}
	if unavailable >= s.cfg.ReplicationFactor {
		// Every key has ReplicationFactor distinct replicas, so with fewer
		// nodes down each key was observable on at least one; at or past
		// that threshold some key may have had no reachable replica.
		return fmt.Errorf("kvstore: scan %s: %d nodes unavailable at replication factor %d: view would be incomplete",
			table, unavailable, s.cfg.ReplicationFactor)
	}

	if detect {
		s.scanRepairs(table, best, upMask)
	}
	for k, w := range best {
		if w.tomb {
			continue
		}
		if !fn(k, w.value) {
			return nil
		}
	}
	return nil
}

// scanWinner is a replicated Scan's per-key resolution state: the newest
// observed version plus the divergence bitmasks scanRepairs consumes.
type scanWinner struct {
	ts    uint64
	tomb  bool
	node  int
	value []byte
	// winners = nodes that reported exactly the winning (ts, tomb);
	// reported = nodes that reported any version of the key.
	winners, reported uint64
}

// scanRepairs queues read repair for every key a replicated Scan found
// divergent: reachable replicas that reported a losing version or missed
// the key get the winner written back. Expired tombstones whose replicas
// all agree are handed to TTL collection. Clusters past 64 nodes skip
// detection (the masks are single words).
func (s *Store) scanRepairs(table string, best map[string]*scanWinner, upMask uint64) {
	for k, w := range best {
		replicas := s.ring.replicas(k, s.cfg.ReplicationFactor)
		complete := true
		var losers []int
		for _, n := range replicas {
			bit := uint64(1) << n
			if upMask&bit == 0 {
				complete = false
				continue // unreachable: nothing to fix now
			}
			if w.winners&bit != 0 {
				continue
			}
			if w.reported&bit == 0 && w.tomb {
				// Missing + tombstone winner: nothing to outvote, and in
				// effect in agreement (mirrors lwwGet).
				continue
			}
			complete = false
			losers = append(losers, n)
		}
		if len(losers) > 0 && !s.repair.opts.DisableReadRepair {
			flag := byte(envValue)
			if w.tomb {
				flag = envTombstone
			}
			s.repair.enqueue(repairTask{
				table: table, key: k,
				env: envelope(flag, w.ts, w.value), ts: w.ts, tomb: w.tomb,
				targets: losers,
			})
		}
		if w.tomb && complete {
			s.repair.observeExpiredTombstone(table, k, w.ts, replicas)
		}
	}
}

// scanUnreplicated streams each node's primarily-owned keys — with one
// replica per key there is nothing to reconcile, so no buffering is
// needed, but any unreachable node makes the view incomplete.
func (s *Store) scanUnreplicated(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	stop := false
	var envErr error
	for _, n := range s.nodes {
		if stop || envErr != nil {
			break
		}
		err := n.scan(ctx, table, func(k string, v []byte) bool {
			if s.ring.primary(k) != n.id {
				return true // visited via its primary owner
			}
			payload, _, tomb, err := unenvelope(v)
			if err != nil {
				envErr = err
				return false
			}
			if tomb {
				return true
			}
			cp := make([]byte, len(payload))
			copy(cp, payload)
			if !fn(k, cp) {
				stop = true
				return false
			}
			return true
		})
		if isUnavailable(err) {
			return fmt.Errorf("kvstore: scan %s: node %d unavailable with no replicas: view would be incomplete", table, n.id)
		}
		if err != nil {
			return fmt.Errorf("kvstore: scan %s: %w", table, err)
		}
	}
	if envErr != nil {
		return fmt.Errorf("kvstore: scan %s: %w", table, envErr)
	}
	return nil
}

// allDownErr renders an "all replicas down" failure. When the caller's
// context ended, the context's error is the real cause (every replica
// attempt died on it) and is kept matchable in the chain.
func allDownErr(ctx context.Context, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s: %w", msg, err)
	}
	return errors.New(msg)
}

// account books a sequential operation.
func (s *Store) account(reqs, bytes int) {
	s.reqCount.Add(int64(reqs))
	s.bytesRead.Add(int64(bytes))
	s.simClock.Add(int64(s.cfg.Cost.requestCost(bytes)))
}

// ChargeScan adds client-side scan cost for n bytes to the virtual clock and
// returns the charged duration. The query module calls it when extracting
// records from retrieved chunks.
func (s *Store) ChargeScan(n int) time.Duration {
	d := s.cfg.Cost.scanCost(n)
	s.simClock.Add(int64(d))
	return d
}

// Stats is a snapshot of cluster counters. The repair fields are zero
// when replication repair is off (ReplicationFactor 1).
type Stats struct {
	Requests    int64
	BytesRead   int64
	BytesPut    int64
	WriteCalls  int64 // Put, BatchPut, Delete and BatchDelete calls, whatever they carried
	SimElapsed  time.Duration
	BytesStored int64 // resident across nodes (including replicas)

	// Replication repair (repair.go). Lifetime counters are per Store
	// instance (a reopened client starts at zero, though it inherits and
	// re-counts durable hints it recovers).
	RepairWrites   int64 // winning envelopes written back to losing replicas
	RepairDropped  int64 // repair tasks dropped on a full queue
	HintsQueued    int64 // writes parked for down replicas (lifetime)
	HintsReplayed  int64 // parked writes delivered to recovered replicas
	HintsPending   int64 // parked writes currently awaiting replay
	TombstonesGCed int64 // tombstones physically collected

	// Anti-entropy (antientropy.go). All zero unless the loop is enabled
	// via RepairOptions.AntiEntropyInterval.
	AESyncs        int64 // completed replica-pair sync rounds
	AERangesDiffed int64 // unequal tree buckets drilled into
	AEKeysRepaired int64 // differing keys handed to the repair writer
	AEBytesHashed  int64 // key+value bytes digested by tree sweeps

	// Storage reclaim, summed over reachable nodes whose backend supports
	// compaction (the disklog and lsm engines, local or behind a daemon);
	// all zero on a pure memory cluster. Byte counts include record framing,
	// so DiskBytes-LiveBytes is exactly what a full compaction would reclaim.
	DiskBytes      int64   // total log/segment/sstable bytes on disk
	LiveBytes      int64   // portion of DiskBytes still referenced by live keys
	CompactedBytes int64   // cumulative bytes reclaimed by compaction
	LiveRatio      float64 // LiveBytes/DiskBytes; 1 when nothing is on disk

	// Failure detector (remote clusters only; see remote.BreakerStats).
	// Counters are summed over the cluster's wire clients.
	BreakerOpen      int   // nodes currently in probation (breaker open)
	BreakerTrips     int64 // closed→open transitions across all nodes
	BreakerProbes    int64 // background reachability probes issued
	BreakerFastFails int64 // operations rejected without touching the network
}

// Stats returns a snapshot of the counters; ctx bounds the per-node
// storage probes (on a remote cluster each probe is a network round
// trip with retries). Down or unreachable nodes contribute zero to
// BytesStored — their storage cannot be observed.
func (s *Store) Stats(ctx context.Context) Stats {
	st := Stats{
		Requests:   s.reqCount.Load(),
		BytesRead:  s.bytesRead.Load(),
		BytesPut:   s.bytesPut.Load(),
		WriteCalls: s.writeCalls.Load(),
		SimElapsed: time.Duration(s.simClock.Load()),
	}
	if r := s.repair; r != nil {
		st.RepairWrites = r.repairWrites.Load()
		st.RepairDropped = r.repairDropped.Load()
		st.HintsQueued = r.hintsQueued.Load()
		st.HintsReplayed = r.hintsReplayed.Load()
		st.HintsPending = r.hintsPending.Load()
		st.TombstonesGCed = r.tombstonesGC.Load()
	}
	if a := s.ae; a != nil {
		st.AESyncs = a.syncs.Load()
		st.AERangesDiffed = a.rangesDiffed.Load()
		st.AEKeysRepaired = a.keysRepaired.Load()
		st.AEBytesHashed = a.bytesHashed.Load()
	}
	for _, n := range s.nodes {
		if n.rc != nil {
			bs := n.rc.BreakerStats()
			if bs.Open {
				st.BreakerOpen++
			}
			st.BreakerTrips += bs.Trips
			st.BreakerProbes += bs.Probes
			st.BreakerFastFails += bs.FastFails
		}
		if b, err := n.stored(ctx); err == nil {
			st.BytesStored += b
		}
		// Unsupported or unreachable nodes contribute zero, mirroring the
		// BytesStored probes.
		if cs, err := n.compactStats(ctx); err == nil {
			st.DiskBytes += cs.DiskBytes
			st.LiveBytes += cs.LiveBytes
			st.CompactedBytes += cs.CompactedBytes
		}
	}
	st.LiveRatio = 1
	if st.DiskBytes > 0 {
		st.LiveRatio = float64(st.LiveBytes) / float64(st.DiskBytes)
	}
	return st
}

// Compact asks every node whose backend supports compaction
// (engine.Compactor) to reclaim dead storage, and reports the bytes
// reclaimed across the cluster by this call. Nodes without compaction
// support are skipped; down or unreachable nodes are skipped too — like
// Stats, storage that cannot be observed cannot be compacted, and the node
// can be compacted again once it returns. Hard backend errors are
// aggregated per node.
func (s *Store) Compact(ctx context.Context) (reclaimed int64, err error) {
	var errs []error
	for _, n := range s.nodes {
		before, err := n.compactStats(ctx)
		if errors.Is(err, engine.ErrNoCompaction) || isUnavailable(err) {
			continue
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("kvstore: compact node %d: %w", n.id, err))
			continue
		}
		after, err := n.compact(ctx)
		if err != nil {
			if !isUnavailable(err) {
				errs = append(errs, fmt.Errorf("kvstore: compact node %d: %w", n.id, err))
			}
			continue
		}
		reclaimed += after.CompactedBytes - before.CompactedBytes
	}
	return reclaimed, errors.Join(errs...)
}

// Reset wipes every node's backend empty (engine.Resetter) so benchmarks
// and end-to-end tests can reuse a running cluster — and, on a remote
// cluster, its daemons — between phases instead of reopening everything.
// The caller must quiesce concurrent writers first: a write racing the
// wipe may land on either side of it. Nodes whose backend does not
// implement Resetter surface engine.ErrNoReset, and any per-node failure
// (including unavailability) is an error — a half-wiped cluster would
// resurrect old data through replication repair — with failures
// aggregated per node. In-memory repair bookkeeping (parked-hint indexes,
// tombstone waits) is dropped alongside the data it describes, and remote
// geometry pins, wiped with everything else, are re-pinned before
// returning.
func (s *Store) Reset(ctx context.Context) error {
	var errs []error
	for _, n := range s.nodes {
		if err := n.reset(ctx); err != nil {
			errs = append(errs, fmt.Errorf("kvstore: reset node %d: %w", n.id, err))
		}
	}
	if s.repair != nil {
		s.repair.resetState()
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return s.pinRemoteGeometry(ctx)
}

// ResetClock zeroes the virtual clock and counters (between experiment
// phases).
func (s *Store) ResetClock() {
	s.simClock.Store(0)
	s.reqCount.Store(0)
	s.bytesRead.Store(0)
	s.bytesPut.Store(0)
	s.writeCalls.Store(0)
}

// SetNodeUp marks a node up or down, for failure-injection tests. Remote
// nodes refuse: their availability is a property of the real process, not
// a flag (stop the daemon instead). Reviving a node nudges the hint drain
// loop so parked writes replay promptly.
func (s *Store) SetNodeUp(id int, up bool) error {
	if id < 0 || id >= len(s.nodes) {
		return fmt.Errorf("kvstore: no node %d", id)
	}
	err := s.nodes[id].setUp(up)
	if err == nil && up && s.repair != nil {
		s.repair.kickDrain()
	}
	return err
}

// NodeBytes returns resident bytes per node, for balance checks; ctx
// bounds the probes. Down or unreachable nodes report zero.
func (s *Store) NodeBytes(ctx context.Context) []int64 {
	out := make([]int64, len(s.nodes))
	for i, n := range s.nodes {
		if b, err := n.stored(ctx); err == nil {
			out[i] = b
		}
	}
	return out
}
