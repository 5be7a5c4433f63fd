// Package rstore is a distributed multi-version document store: a layer on
// top of a distributed key-value store that compactly stores a large number
// of versions (snapshots) of a collection of keyed documents while
// efficiently answering record, full-version, partial-version, and
// record-evolution queries.
//
// It is an independent reproduction of "RStore: A Distributed Multi-version
// Document Store" (Bhattacherjee & Deshpande, ICDE 2018; arXiv:1802.07693).
//
// # Model
//
// The unit of storage is an immutable record identified by a composite key
// ⟨primary key, origin version⟩. A commit derives a new version from a
// parent by adding, modifying, and deleting records; version histories form
// a branched graph. Records are deduplicated across versions and grouped
// into approximately fixed-size chunks by a partitioning algorithm that
// exploits the version graph, minimizing the number of chunks (the "span")
// any retrieval has to touch. Multiple versions of one record can be
// delta-compressed together in sub-chunks.
//
// # Quick start
//
//	ctx := context.Background()
//	st, _ := rstore.Open(ctx, rstore.Config{})
//	v0, _ := st.Commit(ctx, rstore.NoParent, rstore.Change{Puts: map[rstore.Key][]byte{
//		"patient-1": []byte(`{"age":52}`),
//	}})
//	v1, _ := st.Commit(ctx, v0, rstore.Change{Puts: map[rstore.Key][]byte{
//		"patient-1": []byte(`{"age":53}`),
//	}})
//	rec, _, _ := st.GetRecord(ctx, "patient-1", v1)
//
// # Durability
//
// A durable store lives in a cluster opened with OpenCluster (an lsm data
// directory, or rstore-node daemons) and passed as Config.KV. Open is the
// one call that opens it, the first time and every time after: it returns
// what the cluster holds — the placed versions plus every commit
// acknowledged since the last flush — or an empty store where it holds
// none.
//
// # Contexts and streaming queries
//
// Every operation that touches the backing cluster takes a
// context.Context and honors cancellation and deadlines end to end — down
// to the storage-node wire protocol when the cluster is remote. The
// set-returning queries (GetVersion, GetRange, GetHistory) return a
// *Cursor that streams records incrementally as chunks arrive:
//
//	for rec, err := range st.GetVersion(ctx, v1).Records() {
//		if err != nil {
//			return err
//		}
//		use(rec)
//	}
//
// Abandoning the loop (or cancelling ctx) stops further chunk fetches.
// The ...All convenience wrappers (GetVersionAll, GetRangeAll,
// GetHistoryAll) drain the cursor into a sorted slice for callers that
// want the old materialized shape.
//
// See examples/ for complete programs and internal/bench for the harness
// that regenerates the paper's evaluation.
package rstore

import (
	"context"

	"rstore/internal/core"
	"rstore/internal/engine"
	"rstore/internal/kvstore"
	"rstore/internal/partition"
	"rstore/internal/types"
)

// Re-exported model types.
type (
	// Key is a record's primary key.
	Key = types.Key
	// VersionID identifies a committed version.
	VersionID = types.VersionID
	// CompositeKey is ⟨primary key, origin version⟩ — the global record id.
	CompositeKey = types.CompositeKey
	// Record is an immutable stored document.
	Record = types.Record
	// Delta is a set of record-level changes between two versions.
	Delta = types.Delta
	// Change is the commit payload: new values and deleted keys.
	Change = core.Change
	// Config configures a Store; the zero value is usable.
	Config = core.Config
	// Store is the versioned document store.
	Store = core.Store
	// QueryStats reports per-query retrieval costs.
	QueryStats = core.QueryStats
	// Cursor is a streaming query result; see Store.GetVersion.
	Cursor = core.Cursor
	// Range selects primary keys for GetRange; build with KeyRange or
	// KeyRangeFrom.
	Range = core.Range
	// VersionDiff is the record-level difference between two versions.
	VersionDiff = core.VersionDiff
	// Info is a snapshot of store-level statistics.
	Info = core.Info
)

// NoParent is the parent of the first (root) commit.
const NoParent = types.InvalidVersion

// Sentinel errors (match with errors.Is).
var (
	ErrNotFound          = types.ErrNotFound
	ErrVersionUnknown    = types.ErrVersionUnknown
	ErrInconsistentDelta = types.ErrInconsistentDelta
	ErrClosed            = types.ErrClosed
	ErrReadOnly          = types.ErrReadOnly
	ErrPoisoned          = types.ErrPoisoned
	// ErrNoHashRange reports that a cluster node's backend does not
	// implement the optional hash-tree extension the anti-entropy loop
	// requires (see RepairOptions.AntiEntropyInterval).
	ErrNoHashRange = engine.ErrNoHashRange
)

// Open opens the store kept in cfg.KV: what its root commits, plus the
// commits acknowledged since the last flush, replayed; a cluster that holds
// no store yet gives an empty one, whose root a writable Open writes at once.
// With a zero Config it runs on a private single-node in-process memory
// cluster, with Bottom-Up partitioning, 1 MiB chunks, and no record-level
// compression; a durable or remote store runs on a cluster opened with
// OpenCluster and passed as Config.KV, and reopening it is the same call.
// ctx bounds the open itself, not the Store's lifetime.
func Open(ctx context.Context, cfg Config) (*Store, error) { return core.Open(ctx, cfg) }

// KeyRange is the bounded key range [lo, hi) for Store.GetRange.
func KeyRange(lo, hi Key) Range { return core.KeyRange(lo, hi) }

// KeyRangeFrom is the unbounded key range [lo, ∞) for Store.GetRange —
// the explicit way to read to the top of the keyspace (no sentinel key).
func KeyRangeFrom(lo Key) Range { return core.KeyRangeFrom(lo) }

// Cluster options for Config.KV.

// ClusterConfig configures the backing key-value cluster.
type ClusterConfig = kvstore.Config

// RepairOptions tunes replication repair — read repair, hinted handoff,
// and tombstone GC — for ClusterConfig.Repair. The zero value enables
// repair with defaults whenever ClusterConfig.ReplicationFactor > 1;
// tombstones every replica holds are collected at every replication
// factor.
type RepairOptions = kvstore.RepairOptions

// ClusterStats is a snapshot of cluster counters, including replication
// repair traffic (see kvstore.Store.Stats).
type ClusterStats = kvstore.Stats

// Backend engine names for ClusterConfig.Engine.
const (
	// EngineMemory is the default in-process map backend; nothing persists.
	EngineMemory = kvstore.EngineMemory
	// EngineLSM is the durable backend: a log-structured merge tree, whose
	// write-ahead-logged memtable flushes into immutable, bloom-filtered,
	// block-cached SSTables, with size-tiered compaction. A batch is fsynced
	// before it is acknowledged.
	EngineLSM = kvstore.EngineLSM
	// EngineRemote speaks the engine wire protocol to one storage daemon
	// (cmd/rstore-node) per ClusterConfig.NodeAddrs entry: a real
	// distributed cluster instead of the in-process simulator. Transient
	// node unavailability is retried and routed around by replication.
	EngineRemote = kvstore.EngineRemote
)

// OpenCluster creates a distributed key-value cluster (in-process or, with
// EngineRemote, over real storage daemons) to back one or more stores. ctx
// bounds the open's wire round-trips (cluster pin, hint recovery), not
// the cluster's lifetime.
func OpenCluster(ctx context.Context, cfg ClusterConfig) (*kvstore.Store, error) {
	return kvstore.Open(ctx, cfg)
}

// SplitNodeAddrs parses a comma-separated daemon address list into
// ClusterConfig.NodeAddrs form (whitespace trimmed, empty elements
// dropped).
func SplitNodeAddrs(list string) []string { return kvstore.SplitNodeAddrs(list) }

// Partitioning algorithms for Config.Partitioner.

// Partitioner is a chunking algorithm.
type Partitioner = partition.Algorithm

// BottomUp returns the paper's Bottom-Up tree partitioner (§3.2), the
// default and uniformly strongest choice. beta bounds the per-subtree set
// count (0 = unlimited).
func BottomUp(beta int) Partitioner { return partition.BottomUp{Beta: beta} }

// Shingle returns the min-hash partitioner (§3.1).
func Shingle(seed int64) Partitioner { return partition.Shingle{Seed: seed} }

// DepthFirst returns the greedy DFS traversal partitioner (§3.3).
func DepthFirst() Partitioner { return partition.DepthFirst{} }

// BreadthFirst returns the greedy BFS traversal partitioner (§3.3).
func BreadthFirst() Partitioner { return partition.BreadthFirst{} }
