// Package kvstore implements the distributed key-value substrate that RStore
// layers on (paper §2.4 "Backend Key-value Store"). It reproduces the
// properties RStore depends on — basic get/put, key partitioning across
// nodes, replication, parallel multi-key fetch — as a cluster of storage
// nodes behind a consistent-hash ring. Each node is one engine.Backend —
// the only seam between this package and a storage node (node.go): an
// in-process engine, or the wire client from internal/engine/remote against
// a real rstore-node daemon, which is a Backend like the others. A node is
// down when its calls answer engine.ErrUnavailable; in-process, the memory
// engine simulates that (memory.Backend.SetDown). A calibrated cost model
// (cost.go) prices every read on the cluster's clock, Stats.SimElapsed,
// which the paper's figure drivers read as their stopwatch: it reports
// Cassandra-like retrieval times deterministically.
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
//     replayed on recovery) and collects a tombstone every replica took;
//   - one read (read.go, readReplicas): Get and MultiGet ask every replica of
//     every key, in one batched request per node;
//   - one verdict (verdict.go, judge): the winner, the losers to overwrite and
//     whether all replicas agree — for reads, Scans (each key judged once
//     its last replica has answered) and the anti-entropy loop
//     (antientropy.go) alike; repairer.settle queues a key
//     with losers, or with a tombstone a minute old all replicas agree on;
//   - one repair (repair.go, converge), reusing the one read and the one
//     verdict: read repair, anti-entropy repair, hint replay and tombstone
//     collection name a key, read all its replicas at once, judge them,
//     put the winner to the losers and collect a tombstone every replica
//     then holds, re-reading each replica before its delete — at once
//     after a delete, a hint replay or its own delivery.
//
// # One logical writer per cluster
//
// A Store assumes it is the only cluster client mutating its backends: the
// engine seam has no compare-and-swap, so the read-then-write sequences
// repair and tombstone GC issue would interleave under concurrent writing
// clients (see the internal/engine package comment). Deployments enforce
// this with the data directory's flock locally and by convention (one
// rstore-server per daemon set) remotely; the !cluster table pins each lsm
// node's or daemon's ring position, the cluster shape, and the replication
// factor so a client opening with a reordered/resized node list or a
// different -rf is refused instead of silently corrupting placement or
// replication.
// A client that only reads (core's read-only replicas) still writes: it
// writes back the losers it observes, and collects the tombstones it sees
// on every replica once older than tombGrace (younger ones are left to
// their writer, which may be rewriting the key).
//
// # Value ownership
//
// Get and MultiGet return private copies the caller may retain and mutate,
// and Scan hands the callback each value as its own copy (the envelopes are
// stripped either way). Entry values
// passed to Put/BatchPut are not retained after the call returns.
//
// # Storage reclaim
//
// Reclaiming dead bytes is each node's engine's own job: lsm, locally or
// behind a daemon, merges a run less than half live in its worker's pass
// after a flush, and nothing above the engine asks it to. Backends that
// implement engine.Compactor expose their dead-byte accounting through
// Stats (DiskBytes, LiveBytes, LiveRatio, CompactedBytes); engines without
// it count zero.
package kvstore
