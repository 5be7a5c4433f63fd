// Package engine defines the storage-backend seam of the simulated cluster:
// every kvstore node owns one Backend and delegates all data operations to
// it. The paper's design point is that RStore layers on an off-the-shelf
// key-value substrate (§2.4); this interface is our substrate boundary, so
// the engines — in-memory maps (memory), an LSM tree (lsm), and a client of
// an engine served over TCP (remote) — swap under the same cluster, core,
// and query layers. lsm is the one durable engine; the conformance suite
// holds all three to the same contract.
//
// Every data operation takes a context.Context as its first parameter and
// must honor cancellation and deadlines: an implementation that can block —
// on the network, on disk, or on a long scan — returns (an error wrapping)
// ctx.Err() promptly once the context ends, instead of finishing work nobody
// is waiting for. Purely in-memory implementations may only check the
// context at natural yield points (per scanned entry); they must still not
// start new work under a dead context.
//
// Implementations must be safe for concurrent use. Values passed to Put and
// BatchPut must be copied (or otherwise made immune to caller mutation)
// before the call returns, and values returned by Get must not alias backend
// state. Scan is the one exception: the values it passes to the callback may
// alias internal buffers and must not be retained or mutated.
//
// BatchPut is the durable write: a durable backend fsyncs before it
// acknowledges. Put and Delete need not be synced — lsm (a log per user
// table) makes them durable no later than the next BatchPut to the same
// table or Close — so a caller may use them only for writes it can afford
// to lose in a crash. kvstore does:
// every replicated data write, per-key ones included, is a BatchPut, and the
// unsynced calls carry only repair write-backs (one lost leaves a replica as
// diverged as it was found, to be found again), the removal of spent hints
// and collected tombstones (one lost is repeated: replay and collection are
// idempotent) and the cluster pin of an lsm or remote cluster (rewritten by
// the next open).
//
// # Deployment caveat: one logical writer
//
// A Backend serializes the individual operations it receives, but the seam
// offers no compare-and-swap or compare-and-delete: read-then-write
// sequences issued by DIFFERENT cluster clients against the same backend
// can interleave. The layers above (kvstore's replication repair, core's
// flush path) therefore assume each backend is driven by one logical
// writer at a time — one cluster client per data directory (the durable
// engines enforce this with an exclusive flock) or per remote daemon. Multiple
// concurrent *reading* clients are fine; concurrent writing clients are
// outside the contract (see the tombstone-GC follow-up in ROADMAP.md).
//
// Backends that reclaim dead storage additionally implement the optional
// Compactor interface — one of three optional seams with implementers
// (MultiGetter, Compactor, HashRanger) discovered by type assertion;
// seams.go holds the one rule for what a caller gets when a seam is absent.
// Resetter is declared but implemented by no engine (see its comment).
package engine

import (
	"context"
	"errors"
)

// ErrUnavailable classifies a backend failure as transient unavailability:
// the node could not be reached (connection refused, dial timeout, a
// connection that died mid-request) or is administratively down, as opposed
// to a hard engine error (corruption, I/O failure, closed backend) that
// reached the node and failed there. Layers above route around unavailable
// replicas and retry; hard errors abort the operation. Implementations wrap
// transport-level failures so errors.Is(err, ErrUnavailable) holds.
//
// A context that ends mid-operation also surfaces wrapped in ErrUnavailable
// by the remote backend (the node was not proven reachable), with the
// context's error preserved in the chain so errors.Is(err,
// context.DeadlineExceeded) (or context.Canceled) holds too.
var ErrUnavailable = errors.New("engine: backend unavailable")

// Entry is one key/value pair of a batched write.
type Entry struct {
	Key   string
	Value []byte
}

// ScratchLimit is what a reused encode or receive buffer may keep between
// requests: a few chunk capacities, enough for the chunk-write groups of a
// bulk load to reuse one buffer.
const ScratchLimit = 8 << 20

// TrimScratch returns buf emptied for reuse by the next request, or nil once
// it has grown past ScratchLimit: one large request must not pin its size in
// memory for the life of a connection or a log.
func TrimScratch(buf []byte) []byte {
	if cap(buf) > ScratchLimit {
		return nil
	}
	return buf[:0]
}

// Backend is a per-node storage engine: a durable (or simulated) map of
// (table, key) → value with batched writes and full-table scans.
type Backend interface {
	// Put stores value under (table, key), overwriting any previous value.
	Put(ctx context.Context, table, key string, value []byte) error

	// Get returns the value under (table, key). The second result reports
	// whether the key was present; the error is reserved for engine
	// failures (I/O errors, closed backend), not for missing keys.
	Get(ctx context.Context, table, key string) ([]byte, bool, error)

	// Delete removes (table, key). Deleting a missing key is a no-op.
	Delete(ctx context.Context, table, key string) error

	// BatchPut applies all entries to one table atomically with respect to
	// durability: a durable backend must not acknowledge the batch until
	// every entry is on stable storage (fsync-on-batch). Entries are applied
	// in order, so a later entry for the same key wins. Cancellation must
	// not break the atomicity contract: a batch either fails before any
	// entry is durable or completes whole.
	BatchPut(ctx context.Context, table string, entries []Entry) error

	// Scan visits every key/value of a table in unspecified order until fn
	// returns false, the table is exhausted, or ctx ends (the scan then
	// returns ctx's error). Values passed to fn may alias internal storage;
	// fn must not retain or mutate them.
	Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error

	// Tables lists the tables that currently hold at least one key, in
	// unspecified order.
	Tables(ctx context.Context) ([]string, error)

	// BytesStored reports the resident live payload volume: the summed
	// length of all current values, excluding per-key overhead, dead
	// versions, and tombstones.
	BytesStored() int64

	// Close releases the backend's resources, flushing anything buffered to
	// stable storage first. Operations after Close fail.
	Close() error
}

// MultiGetter is the optional batched-read extension of Backend: MultiGet
// resolves many keys of one table in a single call, returning values and
// presence flags in request order (values[i] and present[i] answer keys[i]).
// Returned values follow the Get contract — they must not alias backend
// state. The error is all-or-nothing: a failing backend fails the whole
// batch rather than returning partial results.
//
// The remote wire client implements it (one network round trip for the
// whole batch instead of one per key); callers go through the package's
// MultiGet function, which falls back to per-key Get when it is absent.
type MultiGetter interface {
	MultiGet(ctx context.Context, table string, keys []string) (values [][]byte, present []bool, err error)
}

// ErrNoCompaction reports that a backend does not implement Compactor (or,
// over the wire, that the daemon's backend does not). Callers that compact
// opportunistically match it with errors.Is and move on.
var ErrNoCompaction = errors.New("engine: backend does not support compaction")

// CompactionStats is a snapshot of a backend's storage-reclaim state. All
// byte counts include record framing, so DiskBytes-LiveBytes is exactly the
// volume a full compaction could reclaim from sealed storage.
type CompactionStats struct {
	// DiskBytes is the total size of the backend's log and table files.
	DiskBytes int64
	// LiveBytes is the portion of DiskBytes that compaction cannot reclaim:
	// records the key index still references. The rest is dead —
	// overwritten values, tombstones, superseded records.
	LiveBytes int64
	// CompactedBytes is the cumulative volume reclaimed by compaction over
	// the lifetime of this backend instance.
	CompactedBytes int64
	// Segments is the number of log and table files backing the store.
	Segments int
}

// LiveRatio is LiveBytes/DiskBytes — the fraction of on-disk storage that
// is live. An empty backend reports 1 (nothing is dead).
func (s CompactionStats) LiveRatio() float64 {
	if s.DiskBytes <= 0 {
		return 1
	}
	return float64(s.LiveBytes) / float64(s.DiskBytes)
}

// ErrNoReset and Resetter have no implementer or caller in this module: no
// engine, layer or binary wipes a node. They stay only because the
// benchmark's API contract (benchmark/README.md) lists them and
// benchmark/trace.go and its test reference them; ROADMAP item 11's step 1
// removes the names.

// ErrNoReset reports that a backend does not implement Resetter.
var ErrNoReset = errors.New("engine: backend does not support reset")

// Resetter is a wipe extension of Backend that no engine implements: Reset
// would drop every table and key without closing the backend.
type Resetter interface {
	Reset(ctx context.Context) error
}

// Compactor is the optional storage-reclaim extension of Backend: log- or
// LSM-structured engines accumulate dead bytes (overwritten values,
// tombstones) that only a merge can give back to the filesystem, and they
// decide those merges themselves. Callers obtain it by type assertion;
// engines with nothing to compact (in-memory maps) simply do not implement
// it.
type Compactor interface {
	// Compact flushes and returns once the engine's own reclaim has
	// settled, with the stats as it left them: it asks for no merge the
	// engine would not make on its own. It is safe to call concurrently
	// with reads and writes, must be crash-safe (a crash mid-flush or
	// mid-merge loses no acknowledged write), and returns ctx's error
	// promptly once ctx ends.
	Compact(ctx context.Context) (CompactionStats, error)

	// CompactionStats reports the current reclaim state without compacting.
	// Its numbers are settled: an engine that flushes or merges in the
	// background (lsm's worker) first finishes what the writes before the
	// call set off, so a read after a write reports what that write did;
	// that wait, too, ends with ctx.
	CompactionStats(ctx context.Context) (CompactionStats, error)
}
