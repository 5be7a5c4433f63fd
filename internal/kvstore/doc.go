// Package kvstore implements the distributed key-value substrate that RStore
// layers on (paper §2.4 "Backend Key-value Store"). It reproduces the
// properties RStore depends on — basic get/put, key partitioning across
// nodes, replication, parallel multi-key fetch — as a cluster of storage
// nodes behind a consistent-hash ring. Each node holds one engine.Backend
// — the only seam between this package and a storage node — behind a
// failure-injection flag (node.go): an in-process engine, or the wire
// client from internal/engine/remote against a real rstore-node daemon,
// which is a Backend like the others. A calibrated network cost model
// drives a virtual clock so experiments report Cassandra-like retrieval
// times deterministically.
//
// # Replication, LWW envelopes, and repair
//
// Every value the cluster stores is wrapped in a 9-byte last-write-wins
// envelope (flag + timestamp; deletes are tombstones — see lww.go and
// docs/FORMATS.md), so a replica that was down while its peers accepted
// writes is outvoted on read instead of serving stale bytes. Replication is
// four rules, each stated once:
//
//   - one write (write.go, batchWrite): Put, Delete, BatchPut and BatchDelete
//     are one per-node-grouped, fsynced engine batch that routes around down
//     replicas, parks hints for them (hints.go: the durable !hints table,
//     replayed on recovery) and registers tombstones for collection;
//   - one read (read.go, readReplicas): Get and MultiGet ask every replica of
//     every key, in one batched request per node;
//   - one verdict (verdict.go, judge): the winner, the losers to overwrite and
//     whether all replicas agree — for reads, replicated Scans and the
//     anti-entropy loop (antientropy.go) alike; repairer.settle acts on it;
//   - one conditional write-back (repair.go, writeBack): read repair,
//     anti-entropy repair and hint replay apply an envelope only over
//     strictly older state, and absence acknowledges a tombstone.
//
// # One logical writer per cluster
//
// A Store assumes it is the only cluster client mutating its backends: the
// engine seam has no compare-and-swap, so the read-then-write sequences
// repair and tombstone GC issue would interleave under concurrent writing
// clients (see the internal/engine package comment). Deployments enforce
// this with the data directory's flock locally and by convention (one
// rstore-server per daemon set) remotely; the !cluster table pins each
// daemon's ring position, the cluster shape, and the replication factor so
// a client opening with a reordered/resized address list or a different
// -rf is refused instead of silently corrupting placement or replication.
//
// # Value ownership
//
// Get and MultiGet return private copies the caller may retain and mutate.
// Scan hands the callback values that may alias backend buffers — copy
// before retaining (the envelopes are stripped either way). Entry values
// passed to Put/BatchPut are not retained after the call returns.
//
// # Storage reclaim
//
// Backends that implement engine.Compactor (lsm, locally or behind a
// daemon) expose their dead-byte accounting through Stats
// (DiskBytes, LiveBytes, LiveRatio, CompactedBytes) and are compacted
// cluster-wide by Store.Compact; engines without compaction are skipped.
package kvstore
