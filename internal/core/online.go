package core

import (
	"context"
	"slices"

	"rstore/internal/chunk"
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
// cancellation — never corrupts the persisted state (publish's crash
// ordering means Load repairs it), but it leaves this process's in-memory
// placement ahead of what was persisted, so the Store refuses every further
// mutation with types.ErrPoisoned: reads keep answering, Close skips its
// final flush, and Load recovers every acknowledged commit. Prefer a
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
			if s.layout.Loc(id).Chunk == chunk.NoChunk {
				newIDs = append(newIDs, id)
			}
		}
	}
	slices.Sort(newIDs)
	newIDs = slices.Compact(newIDs)

	var in *partition.Input // nil: a batch that adds no record adds no chunk
	if len(newIDs) > 0 {
		var err error
		if in, err = s.batchInstance(pending, newIDs); err != nil {
			return err
		}
	}
	return s.place(ctx, "flush", in, placement{gen: s.gen, layout: s.layout, proj: s.proj, first: pending[0]})
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
