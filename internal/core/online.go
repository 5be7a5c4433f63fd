package core

import (
	"context"
	"fmt"
	"sort"

	"rstore/internal/bitset"
	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/kvstore"
	"rstore/internal/partition"
	"rstore/internal/types"
	"rstore/internal/vgraph"
)

// Flush runs online partitioning (paper §4) over all pending versions: new
// records are chunked with the configured algorithm restricted to the batch
// subtree, existing records keep their chunks (no re-partitioning), chunk
// maps touched by the batch are rebuilt from in-memory state and written
// back once, and the projections gain the new versions.
//
// Flush honors ctx for its KVS writes. An error mid-flush — including a
// cancellation — never corrupts the persisted state (the chunks →
// projections → manifest → delta-drain crash ordering means Load repairs
// it), but it can leave this process's in-memory placement ahead of what
// was persisted; treat a failed Flush like a crash and reopen with Load
// rather than continuing to serve from the same Store. Prefer a
// non-cancellable context here unless abandoning the store on interruption
// is acceptable.
func (s *Store) Flush(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mutable(); err != nil {
		return err
	}
	return s.flushLocked(ctx)
}

func (s *Store) flushLocked(ctx context.Context) error {
	if len(s.pending) == 0 {
		return nil
	}

	// New records: committed but not yet placed.
	var newIDs []uint32
	for id, loc := range s.locs {
		if loc.Chunk == chunk.NoChunk {
			newIDs = append(newIDs, uint32(id))
		}
	}

	var batchChunks [][]uint32 // per new chunk: record ids
	if len(newIDs) > 0 {
		in, err := s.batchInstance(newIDs)
		if err != nil {
			return err
		}
		assign, err := s.cfg.Partitioner.Partition(in)
		if err != nil {
			return fmt.Errorf("rstore: flush: %s: %w", s.cfg.Partitioner.Name(), err)
		}
		// Translate item indexes back to record ids.
		batchChunks = make([][]uint32, len(assign.Chunks))
		for ci, itemIdxs := range assign.Chunks {
			recs := make([]uint32, len(itemIdxs))
			for j, ii := range itemIdxs {
				recs[j] = newIDs[ii]
			}
			batchChunks[ci] = recs
		}
	}

	touched := make(map[chunk.ID]bool)

	// Materialize the new chunks: payloads, locations, empty maps.
	for _, recs := range batchChunks {
		cid := chunk.ID(s.numChunks)
		s.numChunks++
		items := make([]chunk.Item, len(recs))
		for j, rec := range recs {
			it, err := chunk.SingleRecordItem(s.corpus, rec)
			if err != nil {
				return err
			}
			items[j] = it
			s.locs[rec] = chunk.Loc{Chunk: cid, Slot: uint32(j)}
		}
		payload := encodeChunkPayload(items)
		s.chunkPayloadCache(cid, payload)
		s.maps = append(s.maps, chunk.NewMap(len(recs)))
		touched[cid] = true
	}

	// Update chunk maps and the version projection for each pending
	// version, in id order so parents are handled before children.
	for _, v := range s.pending {
		span, err := s.extendMaps(v, touched)
		if err != nil {
			return err
		}
		for _, cid := range span {
			s.proj.ObserveVersionChunk(v, cid)
		}
		// Key projection entries for records newly placed at this version.
		for _, rec := range s.corpus.Adds(v) {
			loc := s.locs[rec]
			s.proj.AddKeyChunk(s.corpus.Record(rec).CK.Key, loc.Chunk)
		}
	}
	s.proj.Normalize()

	// Persist: every touched chunk entry is rewritten once per batch (the
	// paper's rebuild-instead-of-fetch optimization) in one batched write —
	// grouped per replica node, one durability sync per node — then
	// projections for the affected versions/keys, then the write store
	// drains.
	entries := make([]kvstore.Entry, 0, len(touched))
	for cid := range touched {
		payload, err := s.payloadOf(ctx, cid)
		if err != nil {
			return err
		}
		entries = append(entries, kvstore.Entry{
			Key:   chunk.KVKey(s.gen, cid),
			Value: encodeChunkEntry(payload, s.maps[cid]),
		})
	}
	if err := s.kv.BatchPut(ctx, TableChunks, entries); err != nil {
		return err
	}
	if err := s.proj.Save(ctx, s.kv); err != nil {
		return err
	}
	// Commit point: the manifest must land BEFORE the write store drains.
	// Crash-ordering contract with Load: chunks → projections → manifest →
	// delta deletes. A crash before the manifest leaves orphan chunks and
	// stale projection rows that Load skips/prunes (the versions are still
	// pending and re-flush); a crash after it leaves only stale delta
	// entries that Load garbage-collects.
	flushed := s.pending
	s.pending = nil
	s.pendingSet = make(map[types.VersionID]bool)
	if err := s.saveManifest(ctx); err != nil {
		return err
	}
	for _, v := range flushed {
		if err := s.kv.Delete(ctx, TableDeltaStore, deltaKey(v)); err != nil {
			return err
		}
	}

	// Periodic full repartitioning (§4's pragmatic combination).
	s.batchesSinceRepartition++
	if s.cfg.RepartitionEvery > 0 && s.batchesSinceRepartition >= s.cfg.RepartitionEvery {
		s.batchesSinceRepartition = 0
		return s.materializeLocked(ctx)
	}
	return nil
}

// batchInstance builds the partitioning instance for the pending subtrees:
// a virtual empty root stands in for the already-partitioned store, with the
// pending versions hanging off it in commit order.
func (s *Store) batchInstance(newIDs []uint32) (*partition.Input, error) {
	itemIdx := make(map[uint32]uint32, len(newIDs))
	items := make([]chunk.Item, len(newIDs))
	for i, rec := range newIDs {
		it, err := chunk.SingleRecordItem(s.corpus, rec)
		if err != nil {
			return nil, err
		}
		items[i] = it
		itemIdx[rec] = uint32(i)
	}

	g := vgraph.New()
	if _, err := g.AddRoot(); err != nil {
		return nil, err
	}
	mapped := make(map[types.VersionID]types.VersionID, len(s.pending))
	adds := [][]uint32{nil} // virtual root: nothing
	dels := [][]uint32{nil}
	for _, v := range s.pending {
		parent := s.graph.Parent(v)
		tp := types.VersionID(0)
		if mp, ok := mapped[parent]; ok {
			tp = mp
		}
		nv, err := g.AddVersion(tp)
		if err != nil {
			return nil, err
		}
		mapped[v] = nv
		adds = append(adds, filterMapIDs(s.corpus.Adds(v), itemIdx))
		dels = append(dels, filterMapIDs(s.corpus.Dels(v), itemIdx))
	}
	return &partition.Input{
		Graph:    g,
		Items:    items,
		Adds:     adds,
		Dels:     dels,
		Capacity: s.cfg.ChunkCapacity,
		Slack:    s.cfg.Slack,
	}, nil
}

// filterMapIDs projects record ids into batch item space, dropping records
// that already have a placement (old records re-appearing through merges).
func filterMapIDs(ids []uint32, itemIdx map[uint32]uint32) []uint32 {
	var out []uint32
	for _, id := range ids {
		if ii, ok := itemIdx[id]; ok {
			out = append(out, ii)
		}
	}
	return out
}

// extendMaps computes version v's slot bitmaps across chunks from its
// parent's, applies v's delta, installs them in the in-memory chunk maps,
// and returns v's chunk span (sorted). Chunks whose maps change are added to
// touched.
func (s *Store) extendMaps(v types.VersionID, touched map[chunk.ID]bool) ([]chunk.ID, error) {
	perChunk := make(map[chunk.ID]*bitset.BitSet)
	parent := s.graph.Parent(v)
	if parent != types.InvalidVersion {
		for _, cid := range s.proj.VersionChunks(parent) {
			if bm := s.maps[cid].SlotsOf(parent); bm != nil {
				perChunk[cid] = bm.Clone()
			}
		}
	}
	for _, rec := range s.corpus.Dels(v) {
		loc := s.locs[rec]
		if loc.Chunk == chunk.NoChunk {
			return nil, fmt.Errorf("rstore: flush: deleted record %d unplaced", rec)
		}
		if bm := perChunk[loc.Chunk]; bm != nil {
			bm.Clear(loc.Slot)
		}
	}
	for _, rec := range s.corpus.Adds(v) {
		loc := s.locs[rec]
		if loc.Chunk == chunk.NoChunk {
			return nil, fmt.Errorf("rstore: flush: added record %d unplaced", rec)
		}
		bm := perChunk[loc.Chunk]
		if bm == nil {
			bm = bitset.New(s.maps[loc.Chunk].NumSlots)
			perChunk[loc.Chunk] = bm
		}
		bm.Set(loc.Slot)
	}

	span := make([]chunk.ID, 0, len(perChunk))
	for cid, bm := range perChunk {
		if bm.Empty() {
			continue
		}
		s.maps[cid].Versions[v] = bm
		touched[cid] = true
		span = append(span, cid)
	}
	sort.Slice(span, func(i, j int) bool { return span[i] < span[j] })
	return span, nil
}

// encodeChunkPayload lays out a chunk payload from items (online path; the
// offline path goes through chunk.Build).
func encodeChunkPayload(items []chunk.Item) []byte {
	var buf []byte
	buf = codec.PutUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = append(buf, it.Encoded...)
	}
	return buf
}

// chunkPayloadCache stages freshly built payloads until the batch write; the
// engine otherwise keeps chunk payloads only in the KVS.
func (s *Store) chunkPayloadCache(cid chunk.ID, payload []byte) {
	if s.stagedPayloads == nil {
		s.stagedPayloads = make(map[chunk.ID][]byte)
	}
	s.stagedPayloads[cid] = payload
}

// payloadOf returns a chunk's payload: staged (new this batch) or fetched
// from the KVS (old chunk whose map is being rewritten).
func (s *Store) payloadOf(ctx context.Context, cid chunk.ID) ([]byte, error) {
	if p, ok := s.stagedPayloads[cid]; ok {
		delete(s.stagedPayloads, cid)
		return p, nil
	}
	entry, err := s.kv.Get(ctx, TableChunks, chunk.KVKey(s.gen, cid))
	if err != nil {
		return nil, fmt.Errorf("rstore: flush: chunk %d payload: %w", cid, err)
	}
	payload, _, err := decodeChunkEntry(entry)
	if err != nil {
		return nil, err
	}
	return payload, nil
}
