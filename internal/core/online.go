package core

import (
	"context"
	"slices"

	"rstore/internal/bitset"
	"rstore/internal/chunk"
	"rstore/internal/partition"
	"rstore/internal/types"
	"rstore/internal/vgraph"
)

// Flush runs online partitioning (paper §4) over all pending versions: the
// batch's new records are chunked with the configured algorithm restricted
// to the batch subtree, existing records keep their chunks (no
// re-partitioning), and the in-memory chunk maps and the version→chunks
// projection gain the new versions.
//
// The batch subtree's leaves are not the end of its records' lives: a
// record still alive at a pending leaf (open) is read by every descendant
// committed later, one superseded or deleted inside the batch on every path
// (closed) only by the batch's own versions. A batch whose packed size
// exceeds ChunkCapacity is therefore partitioned as two instances, open
// records and closed records, and laid out open chunks first, so a later
// version fetches the batch's open chunks — about ⌈open bytes / capacity⌉ —
// instead of all of them. A batch that fits one chunk stays one instance
// and one chunk.
//
// What a flush persists is what the batch adds, whatever the store already
// holds: each new chunk's payload, written once and never again, then one
// placement record (the batch's graph edges and slot bitmaps), then the root.
// Queries go on beside it: the batch is partitioned, coded and written with
// the store lock released, and the live layout grows in publish's one install
// step, once the new chunks are durable.
//
// Flush honors ctx for its KVS writes. An error mid-flush — including a
// cancellation — never corrupts the persisted state (publish's crash
// ordering means Load repairs it), but it may leave this process's in-memory
// placement ahead of what was persisted, so the Store refuses every further
// mutation with types.ErrPoisoned: reads keep answering, Close skips its
// final flush, and Load recovers every acknowledged commit. Prefer a
// non-cancellable context here unless abandoning the store on interruption
// is acceptable.
func (s *Store) Flush(ctx context.Context) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.mutable(); err != nil {
		return err
	}
	return s.flush(ctx)
}

// flush places the pending versions. Callers hold s.wmu and not s.mu.
func (s *Store) flush(ctx context.Context) error {
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

	items := chunk.RecordItems(s.corpus, newIDs)
	size := 0
	for i := range items {
		size += items[i].PackedSize()
	}

	// A batch that fits one chunk is one instance and one chunk. A larger
	// one is split at the frontier: the open records, which every later
	// version may read, are chunked apart from the closed ones, which only
	// the batch's own versions read — open chunks first.
	groups := [][]chunk.Item{items}
	if size > s.cfg.ChunkCapacity {
		opened, closed := s.splitAtFrontier(pending, items)
		groups = [][]chunk.Item{opened, closed}
	}
	var ins []*partition.Input // stays empty: a batch that adds no record adds no chunk
	for _, group := range groups {
		if len(group) == 0 {
			continue
		}
		in, err := s.batchInstance(pending, group)
		if err != nil {
			return err
		}
		ins = append(ins, in)
	}
	return s.place(ctx, ins, placement{op: "flush", corpus: s.corpus, keys: s.sortedKeys, layout: s.layout, gen: s.gen, first: pending[0]})
}

// splitAtFrontier classifies the batch's new records (items: one per
// record, ascending record id, not empty) by one parents-first walk over
// the pending subtrees: a record is open when some pending leaf — a pending
// version without a child — still contains it, so its run of versions
// continues into whatever is committed next; it is closed when every path of
// the batch supersedes or deletes it. A record deleted on one branch and
// alive at the tip of another is open. Both halves keep record-id order.
func (s *Store) splitAtFrontier(pending []types.VersionID, items []chunk.Item) (opened, closed []chunk.Item) {
	// Bitsets over the batch's record-id range, which is dense: ids are
	// handed out at commit.
	base := items[0].Members[0]
	n := int(items[len(items)-1].Members[0]-base) + 1
	live, open := bitset.New(n), bitset.New(n)
	// set marks the new records among recs alive or dead. Every unplaced
	// record a pending delta names is one of items: no placed version holds
	// it, so a pending one added it.
	set := func(recs []uint32, alive bool) {
		for _, rec := range recs {
			if s.layout.Loc(rec).Chunk != chunk.NoChunk {
				continue // placed by an earlier batch
			}
			if alive {
				live.Set(rec - base)
			} else {
				live.Clear(rec - base)
			}
		}
	}
	var walk func(v types.VersionID)
	walk = func(v types.VersionID) {
		set(s.corpus.Dels(v), false)
		set(s.corpus.Adds(v), true)
		children := s.graph.Children(v) // of a pending version: all pending
		if len(children) == 0 {
			open.Or(live)
		}
		for _, c := range children {
			walk(c)
		}
		set(s.corpus.Adds(v), false) // undo, for v's siblings
		set(s.corpus.Dels(v), true)
	}
	for _, v := range pending {
		if p := s.graph.Parent(v); p == types.InvalidVersion || p < pending[0] {
			walk(v) // the root of a pending subtree
		}
	}

	nOpen := open.Count()
	opened = make([]chunk.Item, 0, nOpen)
	closed = make([]chunk.Item, 0, len(items)-nOpen)
	for _, it := range items {
		if open.Contains(it.Members[0] - base) {
			opened = append(opened, it)
		} else {
			closed = append(closed, it)
		}
	}
	return opened, closed
}

// batchInstance builds a partitioning instance over items, single-record
// items of the batch: a virtual empty root stands in for the
// already-partitioned store, with the pending versions hanging off it in
// commit order and their deltas projected onto the items' records.
func (s *Store) batchInstance(pending []types.VersionID, items []chunk.Item) (*partition.Input, error) {
	itemIdx := make(map[uint32]uint32, len(items))
	for i, it := range items {
		itemIdx[it.Members[0]] = uint32(i)
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

// filterMapIDs projects record ids into an instance's item space, dropping
// records outside it: those that already have a placement (old records
// re-appearing through merges) and those of the batch's other instance.
func filterMapIDs(ids []uint32, itemIdx map[uint32]uint32) []uint32 {
	var out []uint32
	for _, id := range ids {
		if ii, ok := itemIdx[id]; ok {
			out = append(out, ii)
		}
	}
	return out
}
