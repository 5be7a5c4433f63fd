package kvstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/reclog"
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
	// ReadBalance spreads multi-get reads across live replicas (token-aware
	// round-robin, like Cassandra drivers) instead of always reading the
	// primary. With ReplicationFactor > 1 this shortens the per-node serial
	// queue that bounds batch retrieval — the replication effect the
	// paper's conclusion flags for future study.
	ReadBalance bool
	// Cost is the latency model; zero value disables simulated timing.
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
		return writeGeometry(path, nodes)
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

// writeGeometry durably records the node count, atomically: a crash leaves
// no GEOMETRY or a whole one, never an empty file that would wedge the
// directory as "corrupt".
func writeGeometry(path string, nodes int) error {
	return reclog.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "nodes=%d format=%s\n", nodes, storedFormat)
		return err
	})
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
	if cfg.NewBackend == nil && cfg.Engine == EngineLSM {
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
// records. It is written and read directly per node (bypassing the ring).
const (
	clusterTable = "!cluster"
	nodeIDKey    = "node-id"
)

// pinRemoteGeometry is the remote counterpart of the GEOMETRY file: each
// daemon records which ring position (and cluster size) it serves plus the cluster's replication factor, so reopening the same
// daemons with the address list reordered or resized — or with a different
// -rf, which would silently under- (or over-) replicate every new write —
// is refused instead of accepted. Unreachable daemons are skipped —
// opening with a node down is allowed, and a mismatched daemon will still
// be caught on any open that can reach it. A pin written before the
// replication factor was recorded is refused: the store under it is older
// than core reads. Clusters kvstore did not dial pin nothing: their
// shape is pinned by the GEOMETRY file, or is the NewBackend factory's
// business.
func (s *Store) pinRemoteGeometry(ctx context.Context) error {
	if !s.dialed() {
		return nil
	}
	for _, n := range s.nodes {
		want := fmt.Sprintf("%d of %d rf=%d format=%s", n.id, len(s.nodes), s.cfg.ReplicationFactor, storedFormat)
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
			case string(payload) == fmt.Sprintf("%d of %d format=%s", n.id, len(s.nodes), storedFormat):
				return fmt.Errorf("kvstore: daemon %s holds a pin %q in the format from before the replication factor was pinned: re-initialize the cluster",
					n.rc.Addr(), payload)
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
