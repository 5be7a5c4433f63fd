// Package core implements the RStore engine (paper §2.4): the application-
// server layer that sits on the distributed key-value store and provides
// versioned commits, full/partial version retrieval, record retrieval, and
// record-evolution queries over chunked, deduplicated, optionally compressed
// record storage.
//
// Architecture mirrors the paper's three modules:
//
//   - Data Ingest: Commit assigns version ids, derives composite-key deltas,
//     and parks them in the delta store (a KVS table) for batching. A
//     commit resolves only the keys its change touches, the way a read
//     plans one key: the parent's pending overlay, then the placed
//     anchor's record; CommitDelta checks a client's delta against the
//     parent the same way.
//   - Data Placement: one mechanism (place) over two inputs. Materialize
//     partitions everything offline onto a fresh chunk.Layout under the
//     next generation; the online path (§4) partitions each batch of new
//     versions as it closes onto the live layout, persisting only what the
//     batch adds. A batch that fits one chunk is one instance and one
//     chunk; a larger one is two instances — its open records, still alive
//     at a pending leaf and so read by every later version, and its closed
//     ones, which only the batch's own versions read — chunked apart, open
//     chunks first. The open ones take in the few records a nearly dead
//     placed chunk still holds at the batch's tips, copied forward, so a
//     later version's span does not decay into a tail of such chunks.
//     Both paths lay chunks out — as key-ordered segments of
//     ≈ 64 KiB, the unit a read transfers — and fill chunk maps and the
//     version→chunks projection through the same chunk.Layout, and both
//     persist through publish: new chunk segments, one placement record, the
//     root. A run that fails part-way poisons the Store (types.ErrPoisoned)
//     until it is reopened.
//   - Query Processing: every query plans under the store's read lock and
//     streams outside it. The plan is the exact (chunk, slot) set the query
//     returns, resolved from memory — a version's slot bitmaps; for a key,
//     its records' locations tested against the version's bitmaps — plus
//     the pending (not yet partitioned) deltas it overlays on the nearest
//     partitioned ancestor, and it pins the placement generation it was
//     resolved under. The stream MultiGets only the segments those slots fall
//     in and decodes only those slots; a slow consumer holds up no writer,
//     and a repartition defers deleting the generation it supersedes until
//     the last stream reading it ends. The paper's second projection
//     (key→chunks) and its index-ANDing are not kept: nothing is fetched to
//     be found empty.
//
// A Store does not configure the cluster it sits on: it only gets from and
// puts to it (§2.4). The caller opens the cluster (kvstore.Open) with its
// engine, nodes and replication, and hands it over in Config.KV. Open is
// the only constructor, and the store it returns is what the cluster holds:
// the placed chunks the root commits plus the delta store's pending
// commits, replayed — an empty store where the cluster holds none, whose
// root a writable Open writes at once.
//
// A Store is safe for concurrent use, but it must be the only writer of its
// underlying cluster: writers coordinate through the Store's own locks, not
// through the storage layer, which offers no cross-client atomicity (see the
// internal/engine and internal/kvstore package comments on the
// one-logical-writer contract). Writers serialise on a writer lock held
// across their storage I/O and take the store lock only to install what
// they have made durable, so a plan waits for no writer's I/O.
// Queries return streaming cursors whose records are private copies —
// callers may retain them freely.
//
// The layer diagram lives in docs/ARCHITECTURE.md; every on-disk format the
// engine persists through the cluster (root v13, placement log, delta store,
// chunk segments and their generations) is specified in docs/FORMATS.md.
package core

import (
	"context"

	"rstore/internal/kvstore"
	"rstore/internal/partition"
	"rstore/internal/types"
)

// Config configures a Store.
type Config struct {
	// KV is the backing cluster, opened by the caller (rstore.OpenCluster
	// or kvstore.Open) with whatever engine, nodes and replication it
	// needs; the caller closes it. Nil gives the Store a private one-node
	// in-process memory cluster, which Close closes.
	KV *kvstore.Store
	// Partitioner is the chunking algorithm; nil means BottomUp.
	Partitioner partition.Algorithm
	// ChunkCapacity is the nominal chunk size C (default 1 MiB, the paper's
	// operating point), in plain bytes: what the partitioner charges a
	// record, its key and value spelled out. The chunk's stored segments
	// code values against one another, pack what is left at the width of
	// their alphabet, and are smaller — about half for structured documents
	// (docs/FORMATS.md, `chunks`).
	ChunkCapacity int
	// SubChunkK is the max records compressed together per sub-chunk
	// (paper's k); ≤1 disables record-level compression. Applied by
	// Materialize; the online path places records uncompressed (§4 notes
	// online re-compression is future work).
	SubChunkK int
	// BatchSize is the number of pending versions that triggers online
	// partitioning (§4's user-configurable batch size). ≤0 disables
	// automatic flushing; call Flush explicitly.
	BatchSize int
	// ReadOnly rejects all mutations (Commit/Flush/Materialize/SetBranch).
	// The paper notes multiple application servers may front one cluster
	// with the caveat that shared mutable state is unsupported (§2.4);
	// read-only replicas are the safe multi-AS deployment. A ReadOnly Open
	// writes nothing, not even the root of a new store.
	ReadOnly bool
}

// withDefaults fills in defaults; ownsKV reports that a private cluster was
// created for this store and should be closed with it. ctx bounds the
// private cluster's open.
func (c Config) withDefaults(ctx context.Context) (Config, bool, error) {
	ownsKV := false
	if c.KV == nil {
		kv, err := kvstore.Open(ctx, kvstore.Config{})
		if err != nil {
			return c, false, err
		}
		c.KV = kv
		ownsKV = true
	}
	if c.Partitioner == nil {
		c.Partitioner = partition.BottomUp{}
	}
	if c.ChunkCapacity <= 0 {
		c.ChunkCapacity = 1 << 20
	}
	if c.SubChunkK < 1 {
		c.SubChunkK = 1
	}
	return c, ownsKV, nil
}

// KVS table names used by the engine.
const (
	// TableChunks holds chunk segments, keyed by placement generation, chunk
	// id and segment index (chunk.SegmentKey), each written once and never
	// rewritten. The paper stores the chunk map M_Ci alongside each chunk so
	// one fetch returns both; here the application server holds every map in
	// memory (in Store.layout, rebuilt from TablePlacement on Open), so a
	// fetch needs only the segments its slots fall in and a new version never
	// rewrites a chunk to extend its map.
	TableChunks = "chunks"
	// TablePlacement holds the append-only placement log: one record per
	// flushed batch (one per full repartition) carrying its versions' graph
	// edges and chunk-map slot bitmaps — the only statement of which records
	// a version holds.
	TablePlacement = "placement"
	// TableDeltaStore holds pending version deltas awaiting batch
	// placement (§4's write store): written by Commit, drained by the flush
	// that places them, and read only by Open, which replays them. Queries
	// take pending deltas from the corpus.
	TableDeltaStore = "deltastore"
	// TableMeta holds the root (placement generation, committed counts,
	// branches) — the commit point of every flush.
	TableMeta = "meta"
)

// QueryStats reports the cost of one retrieval operation.
type QueryStats struct {
	// Span is the number of chunks consulted — the paper's cost of a query,
	// whatever share of each chunk was transferred. Pending records are
	// served from memory and cost nothing.
	Span int
	// Requests is the number of point requests issued to the KVS: one per
	// chunk segment fetched.
	Requests int
	// BytesRead is the response volume: the fetched segments' bytes.
	BytesRead int64
	// Records is the number of records returned.
	Records int
	// WastedChunks counts fetched chunks that contained no requested
	// record — the lossy-projection artifact of §2.4. Queries resolve slots
	// exactly before they fetch, so it stays 0; the field remains for the
	// clients and benchmarks that report it.
	WastedChunks int
}

// Change is the user-facing commit payload: new values for inserted or
// modified keys, and deleted keys. The engine derives the composite-key
// delta (old-version deletions) itself, so clients need not track origin
// versions.
type Change struct {
	Puts    map[types.Key][]byte
	Deletes []types.Key
}
