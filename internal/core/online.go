package core

import (
	"context"
	"fmt"
	"slices"

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
// subtree, existing records keep their chunks (no re-partitioning), and the
// in-memory chunk maps and projections gain the new versions. What it
// persists is what the batch adds, whatever the store already holds: each
// new chunk's payload, written once and never again, then one placement
// record (the batch's graph edges, composite-key deltas and slot bitmaps),
// then the root.
//
// Flush honors ctx for its KVS writes. An error mid-flush — including a
// cancellation — never corrupts the persisted state (the chunks → placement
// record → root → delta-drain crash ordering means Load repairs it), but it
// can leave this process's in-memory placement ahead of what was persisted;
// treat a failed Flush like a crash and reopen with Load rather than
// continuing to serve from the same Store. Prefer a non-cancellable context
// here unless abandoning the store on interruption is acceptable.
func (s *Store) Flush(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mutable(); err != nil {
		return err
	}
	return s.flushLocked(ctx)
}

func (s *Store) flushLocked(ctx context.Context) error {
	pending := s.pending()
	if len(pending) == 0 {
		return nil
	}

	// New records: added by the batch and not yet placed (a record re-added
	// through a merge may already have its chunk). In record-id order, the
	// order the partitioner has always seen them in.
	var newIDs []uint32
	for _, v := range pending {
		for _, id := range s.corpus.Adds(v) {
			if s.locs[id].Chunk == chunk.NoChunk {
				newIDs = append(newIDs, id)
			}
		}
	}
	slices.Sort(newIDs)
	newIDs = slices.Compact(newIDs)

	var items []chunk.Item // the new records as partitioner items, aligned with newIDs
	var chunks [][]uint32  // per new chunk: item indexes
	if len(newIDs) > 0 {
		in, err := s.batchInstance(pending, newIDs)
		if err != nil {
			return err
		}
		assign, err := s.cfg.Partitioner.Partition(in)
		if err != nil {
			return fmt.Errorf("rstore: flush: %s: %w", s.cfg.Partitioner.Name(), err)
		}
		items, chunks = in.Items, assign.Chunks
	}

	// Materialize the new chunks: payloads, locations, key projection, empty
	// maps. added collects what the batch adds to the chunk maps — the
	// placement record's map half. New chunk ids ascend past every existing
	// one, so the key lists stay sorted.
	added := make(map[chunk.ID]*chunk.Map)
	payloads := make([]kvstore.Entry, 0, len(chunks))
	for _, itemIdxs := range chunks {
		cid := chunk.ID(s.numChunks)
		s.numChunks++
		members := make([]chunk.Item, len(itemIdxs))
		for slot, ii := range itemIdxs {
			members[slot] = items[ii]
			s.locs[newIDs[ii]] = chunk.Loc{Chunk: cid, Slot: uint32(slot)}
			s.proj.AddKeyChunk(items[ii].CK.Key, cid)
		}
		payloads = append(payloads, kvstore.Entry{Key: chunk.KVKey(s.gen, cid), Value: encodeChunkPayload(members)})
		s.maps = append(s.maps, chunk.NewMap(len(members)))
		added[cid] = chunk.NewMap(len(members))
	}

	// Extend the chunk maps and the version projection for each pending
	// version, in id order so parents are handled before children.
	for _, v := range pending {
		span, err := s.extendMaps(v, added)
		if err != nil {
			return err
		}
		for _, cid := range span {
			s.proj.ObserveVersionChunk(v, cid)
		}
	}

	// Persist, in the crash order Load repairs: chunk payloads (one batched
	// write — grouped per replica node, one durability sync per node) →
	// placement record → root, the commit point → write-store drain. A
	// crash before the root leaves chunks and a record past the root's
	// counts, which Load skips and deletes (the versions are still pending
	// and re-flush under the same ids); a crash after it leaves only stale
	// delta entries that Load garbage-collects.
	if err := s.kv.BatchPut(ctx, TableChunks, payloads); err != nil {
		return err
	}
	if err := s.savePlacement(ctx, pending[0], len(pending), added); err != nil {
		return err
	}
	s.placed += len(pending)
	if err := s.saveRoot(ctx); err != nil {
		return err
	}
	for _, v := range pending {
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
func (s *Store) batchInstance(pending []types.VersionID, newIDs []uint32) (*partition.Input, error) {
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
	mapped := make(map[types.VersionID]types.VersionID, len(pending))
	adds := [][]uint32{nil} // virtual root: nothing
	dels := [][]uint32{nil}
	for _, v := range pending {
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
// parent's, applies v's delta, installs them in the in-memory chunk maps —
// and in added, the batch's share of each map — and returns v's chunk span
// (sorted).
func (s *Store) extendMaps(v types.VersionID, added map[chunk.ID]*chunk.Map) ([]chunk.ID, error) {
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
		if added[cid] == nil {
			added[cid] = chunk.NewMap(s.maps[cid].NumSlots)
		}
		added[cid].Versions[v] = bm
		span = append(span, cid)
	}
	slices.Sort(span)
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
