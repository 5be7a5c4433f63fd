package kvstore

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
)

// Engine names accepted by Config.Engine.
const (
	// EngineMemory is the default in-process map backend; nothing persists.
	EngineMemory = "memory"
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
	// Cost is the model that prices reads on the cluster's clock,
	// Stats.SimElapsed, for the paper's figure drivers; the zero value
	// prices nothing.
	Cost CostModel
	// Engine selects the per-node storage backend: EngineMemory (the
	// default), EngineLSM, or EngineRemote.
	Engine string
	// Dir is the data directory of EngineLSM; node i stores its data under
	// Dir/node-i. Required when Engine is EngineLSM.
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
	// defaults whenever ReplicationFactor > 1; tombstones are collected at
	// every ReplicationFactor.
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
		case EngineLSM:
			// One cache for the whole cluster: hot blocks compete for a single
			// budget instead of N private ones sized blind to each other.
			cache := lsm.NewBlockCache(0)
			mk = func(id int) (engine.Backend, error) {
				return lsm.Open(cfg.nodeDir(id), lsm.Options{Cache: cache})
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
			return nil, fmt.Errorf("kvstore: unknown engine %q (want %q, %q, or %q)",
				cfg.Engine, EngineMemory, EngineLSM, EngineRemote)
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

// nodeDir is the data directory of EngineLSM's node id.
func (cfg *Config) nodeDir(id int) string {
	return filepath.Join(cfg.Dir, fmt.Sprintf("node-%d", id))
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

// storedFormat names the on-backend value encoding; bump when it changes
// incompatibly. "lww1" is the envelope of lww.go.
const storedFormat = "lww1"

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
	// repair is the replication-repair subsystem (repair.go), at every
	// ReplicationFactor: at 1, where replicas cannot diverge, it only
	// collects tombstones.
	repair *repairer
	// ae is the background anti-entropy loop (antientropy.go); nil unless
	// RepairOptions.AntiEntropyInterval is set and ReplicationFactor > 1.
	ae *antiEntropy

	// Modeled clock and counters (atomics; Store is safe for concurrent
	// use).
	simClock   atomic.Int64 // modeled read time under cfg.Cost, ns
	reqCount   atomic.Int64
	bytesRead  atomic.Int64
	bytesPut   atomic.Int64
	writeCalls atomic.Int64
}

// Open creates a cluster, opening one backend (or wire client) per node.
// An lsm or remote cluster checks its shape against the pin each node holds
// (pinCluster); a node that holds none is pinned by the first write sent to
// it, so an open that only reads leaves its nodes as it found them. ctx
// bounds the open itself — the pin reads and durable-hint recovery — not
// the lifetime of the returned Store.
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
	if cfg.NewBackend == nil && cfg.Engine == EngineLSM && cfg.Dir == "" {
		return nil, fmt.Errorf("kvstore: engine %q needs Config.Dir", cfg.Engine)
	}
	s := &Store{cfg: cfg, ring: newRing(cfg.Nodes)}
	// Built before any node opens: Close, which the failure paths below
	// run, stops it.
	s.repair = newRepairer(s, cfg.Repair)
	for i := 0; i < cfg.Nodes; i++ {
		n, err := open(i)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("kvstore: open node %d: %w", i, err)
		}
		s.nodes = append(s.nodes, n)
	}
	if err := s.pinCluster(ctx); err != nil {
		s.Close()
		return nil, err
	}
	if cfg.ReplicationFactor > 1 {
		// Resume draining hints a previous client parked (durable in the
		// !hints tables); unreachable nodes are simply skipped.
		s.repair.recoverHints(ctx)
		if cfg.Repair.AntiEntropyInterval > 0 {
			// Started after the repairer: the loop routes every repair it
			// finds through the repairer's workers and runs on its lifecycle.
			s.ae = &antiEntropy{s: s, interval: cfg.Repair.AntiEntropyInterval}
			s.repair.wg.Add(1)
			go s.ae.run()
		}
	}
	// A remote node recovering from probation (breaker closing) kicks hint
	// drain so writes parked while it was down replay promptly — the one
	// kick there is. Wired last so the callback never observes a half-built
	// Store.
	for _, n := range s.nodes {
		if n.rc != nil {
			n.rc.SetStateListener(func(up bool) {
				if up {
					s.repair.kickDrain()
				}
			})
		}
	}
	return s, nil
}

// clusterTable is a kvstore-private table holding each node's pin of the
// cluster's shape. It is written and read directly per node (bypassing the
// ring).
const (
	clusterTable = "!cluster"
	nodeIDKey    = "node-id"
)

// pinCluster checks on each node the pin of which ring position (and
// cluster size) it serves plus the cluster's replication factor, so
// reopening the same nodes reordered or resized — which would look keys up
// on the wrong nodes — or with a different rf, which would silently under-
// (or over-) replicate every new write, is refused instead of accepted.
// Unreachable nodes are skipped: opening with a node down is allowed, and a
// mismatched node will still be caught on any open that can reach it. A pin
// written before the replication factor was recorded is refused: the store
// under it is older than core reads.
//
// A node that holds no pin is not pinned here but by the first write
// kvstore sends it (node.pinFirst): a read of a fresh cluster — a command
// that finds no store and says "run init first" — must not fix the shape
// the init after it chooses. The pin is an unsynced Put, durable by the
// node's Close; one a crash loses is written again by the next open's
// first write.
//
// Only the nodes kvstore opened by engine name onto storage that outlives
// the Store — lsm directories and daemons — hold a pin; a memory cluster
// keeps nothing to reopen, and a NewBackend cluster's shape is its
// factory's business.
func (s *Store) pinCluster(ctx context.Context) error {
	if s.cfg.NewBackend != nil || (s.cfg.Engine != EngineLSM && s.cfg.Engine != EngineRemote) {
		return nil
	}
	for _, n := range s.nodes {
		where := s.cfg.nodeDir(n.id)
		if n.rc != nil {
			where = "daemon " + n.rc.Addr()
		}
		want := fmt.Sprintf("%d of %d rf=%d format=%s", n.id, len(s.nodes), s.cfg.ReplicationFactor, storedFormat)
		raw, ok, err := n.be.Get(ctx, clusterTable, nodeIDKey)
		if isUnavailable(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("kvstore: %s: cluster pin: %w", where, err)
		}
		writePin := !ok
		if ok {
			payload, _, tomb, err := unenvelope(raw)
			if err != nil {
				return fmt.Errorf("kvstore: %s: cluster pin: %w", where, err)
			}
			switch {
			case tomb:
				writePin = true
			case string(payload) == want:
				continue
			case string(payload) == fmt.Sprintf("%d of %d format=%s", n.id, len(s.nodes), storedFormat):
				return fmt.Errorf("kvstore: %s holds a pin %q in the format from before the replication factor was pinned: re-initialize the cluster",
					where, payload)
			default:
				var pid, pn, prf int
				var pfmt string
				if _, err := fmt.Sscanf(string(payload), "%d of %d rf=%d format=%s", &pid, &pn, &prf, &pfmt); err == nil &&
					pid == n.id && pn == len(s.nodes) && pfmt == storedFormat && prf != s.cfg.ReplicationFactor {
					return fmt.Errorf("kvstore: %s: cluster is pinned at replication factor %d but was opened with %d: new writes would be %s-replicated (re-initialize the cluster or reopen with -rf %d)",
						where, prf, s.cfg.ReplicationFactor, underOver(s.cfg.ReplicationFactor < prf), prf)
				}
				return fmt.Errorf("kvstore: %s is pinned as node %q but opened as %q: cluster nodes reordered or resized",
					where, payload, want)
			}
		}
		if writePin {
			n.pin = envelope(envValue, s.nextTS(), []byte(want))
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
	// Stop the repair workers, the hint drain and the anti-entropy loop
	// before their nodes' backends go away.
	s.repair.close()
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
