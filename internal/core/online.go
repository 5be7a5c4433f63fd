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
// re-partitioning) but for the copies below, and the in-memory chunk maps
// and the version→chunks projection gain the new versions.
//
// A flush copies forward what a nearly dead chunk still holds at the
// batch's tips, which keeps a version's span from decaying into a tail of
// old chunks that each still hold a few of its records: a placed chunk
// whose records alive at some pending leaf pack into more than nothing and
// at most 1/copyForwardShare of the chunk's own packed bytes and of
// ChunkCapacity (4 KiB of a full 1 MiB chunk) has those records copied into
// the batch's open chunks. The batch's versions, and every later one, read
// them from there, and the old chunk drops out of their span; older versions
// keep reading the old slots (chunk.Layout). A chunk is copied from at most
// once on a chain — its records then live elsewhere at the tips — and gives
// at most 1/copyForwardShare of its own bytes, so the copies cost at most
// 1/copyForwardShare of the stored bytes, however small the flushes are.
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
// ordering means Open repairs it), but it may leave this process's in-memory
// placement ahead of what was persisted, so the Store refuses every further
// mutation with types.ErrPoisoned: reads keep answering, Close skips its
// final flush, and Open recovers every acknowledged commit. Prefer a
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
	chunk.RankItems(s.corpus, items)
	size := 0
	for i := range items {
		size += items[i].PackedSize()
	}

	// A batch that fits one chunk is one instance and one chunk. A larger
	// one is split at the frontier: the open records, which every later
	// version may read, are chunked apart from the closed ones, which only
	// the batch's own versions read — open chunks first. The records copied
	// forward are open: they join the first group, ranked with it.
	groups := [][]chunk.Item{items}
	if size > s.cfg.ChunkCapacity {
		opened, closed := s.splitAtFrontier(pending, items)
		groups = [][]chunk.Item{opened, closed}
	}
	copies := s.copyForward(pending)
	if len(copies) > 0 {
		groups[0] = append(groups[0], chunk.RecordItems(s.corpus, copies)...)
		chunk.RankItems(s.corpus, groups[0])
	}
	var ins []*partition.Input // stays empty: a batch that adds and copies no record adds no chunk
	for _, group := range groups {
		if len(group) == 0 {
			continue
		}
		in, err := s.batchInstance(pending, group, copies)
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
	for _, v := range pending {
		if p := s.graph.Parent(v); p == types.InvalidVersion || p < pending[0] {
			s.walkLeaves(v, set, func() { open.Or(live) }) // the root of a pending subtree
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

// copyForwardShare bounds what a flush copies forward (Flush): the records
// of a placed chunk alive at the batch's tips, when they pack into at most
// 1/copyForwardShare of the chunk's own packed bytes and of ChunkCapacity —
// 4 KiB of a full 1 MiB chunk, about seven records of 512 B. It is the most a
// chunk adds to the stored bytes as copies, relative to its own size: a chunk
// of a few records, as a flush of a commit or two makes, is never copied from.
const copyForwardShare = 256

// copyForward returns, ascending, the placed records a flush copies forward:
// per placed chunk, the records some pending leaf holds there, when they
// pack into more than nothing and at most 1/copyForwardShare of the chunk's
// packed bytes and of ChunkCapacity. What a leaf holds is what the placed
// parent of its pending subtree holds, as the parent's bitmaps say, less and
// plus what the deltas on the path delete and add.
func (s *Store) copyForward(pending []types.VersionID) []uint32 {
	live := make([]*bitset.BitSet, s.layout.NumChunks()) // per placed chunk, the slots some pending leaf holds
	for _, v := range pending {
		if p := s.graph.Parent(v); p != types.InvalidVersion && p < pending[0] {
			s.leafSlots(v, p, live) // the root of a pending subtree
		}
	}
	ceiling := s.cfg.ChunkCapacity / copyForwardShare
	var out []uint32
	for cid, slots := range live {
		if slots == nil {
			continue
		}
		recs, size := s.layout.Records(chunk.ID(cid)), 0
		slots.ForEach(func(slot uint32) bool {
			size += chunk.RecordPackedSize(s.corpus.Record(recs[slot]))
			return size <= ceiling
		})
		if size == 0 || size > ceiling || size*copyForwardShare > s.packedBytes(recs) {
			continue
		}
		slots.ForEach(func(slot uint32) bool {
			out = append(out, recs[slot])
			return true
		})
	}
	slices.Sort(out)
	return slices.Compact(out) // two parents may hold one record at two copies
}

// packedBytes sums the packed sizes of recs.
func (s *Store) packedBytes(recs []uint32) int {
	n := 0
	for _, rec := range recs {
		n += chunk.RecordPackedSize(s.corpus.Record(rec))
	}
	return n
}

// leafSlots adds to live, per placed chunk, the slots some leaf of the
// pending subtree rooted at root holds: what parent, root's tree parent,
// holds, less the placed records the subtree deletes on the way to the leaf
// and plus those it re-adds — each at the copy parent holds, or else the
// newest.
func (s *Store) leafSlots(root, parent types.VersionID, live []*bitset.BitSet) {
	// held is parent's bitmap in each chunk, and at what the version the walk
	// is at holds there.
	held, at := make([]*bitset.BitSet, s.layout.NumChunks()), make([]*bitset.BitSet, s.layout.NumChunks())
	for _, cid := range s.layout.VersionChunks(parent) {
		held[cid] = s.layout.Map(cid).SlotsOf(parent)
		at[cid] = held[cid].Clone()
	}
	s.walkLeaves(root, func(recs []uint32, alive bool) {
		for _, rec := range recs {
			loc := s.layout.Loc(rec)
			if loc.Chunk == chunk.NoChunk {
				continue // a record of the batch
			}
			if held[loc.Chunk] == nil || !held[loc.Chunk].Contains(loc.Slot) {
				if old, ok := s.layout.Held(rec, parent); ok {
					loc = old
				}
			}
			if at[loc.Chunk] == nil {
				at[loc.Chunk] = bitset.New(s.layout.Map(loc.Chunk).NumSlots)
			}
			if alive {
				at[loc.Chunk].Set(loc.Slot)
			} else {
				at[loc.Chunk].Clear(loc.Slot)
			}
		}
	}, func() {
		for cid, bits := range at {
			if bits == nil {
				continue
			}
			if live[cid] == nil {
				live[cid] = bitset.New(s.layout.Map(chunk.ID(cid)).NumSlots)
			}
			live[cid].Or(bits)
		}
	})
}

// walkLeaves walks the pending subtree rooted at v parents first: on the
// way down to a version it calls set with the records the version deletes,
// dead, then with those it adds, alive; at a pending leaf, leaf; on the way
// back up, set again with the two undone, for the version's siblings.
func (s *Store) walkLeaves(v types.VersionID, set func(recs []uint32, alive bool), leaf func()) {
	set(s.corpus.Dels(v), false)
	set(s.corpus.Adds(v), true)
	children := s.graph.Children(v) // of a pending version: all pending
	if len(children) == 0 {
		leaf()
	}
	for _, c := range children {
		s.walkLeaves(c, set, leaf)
	}
	set(s.corpus.Adds(v), false)
	set(s.corpus.Dels(v), true)
}

// batchInstance builds a partitioning instance over items, single-record
// items of the batch: a virtual root stands in for the already-partitioned
// store, holding the records copied forward (copies) that are among the
// items, with the pending versions hanging off it in commit order and their
// deltas projected onto the items' records.
func (s *Store) batchInstance(pending []types.VersionID, items []chunk.Item, copies []uint32) (*partition.Input, error) {
	itemIdx := make(map[uint32]uint32, len(items))
	for i, it := range items {
		itemIdx[it.Members[0]] = uint32(i)
	}

	g := vgraph.New()
	if _, err := g.AddRoot(); err != nil {
		return nil, err
	}
	mapped := make(map[types.VersionID]types.VersionID, len(pending))
	adds := [][]uint32{filterMapIDs(copies, itemIdx)} // virtual root: the copies
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

// filterMapIDs projects record ids into an instance's item space, ascending,
// dropping records outside it: those that already have a placement (old
// records re-appearing through merges) and are not copied forward, and those
// of the batch's other instance.
func filterMapIDs(ids []uint32, itemIdx map[uint32]uint32) []uint32 {
	var out []uint32
	for _, id := range ids {
		if ii, ok := itemIdx[id]; ok {
			out = append(out, ii)
		}
	}
	slices.Sort(out) // copies follow the new records, whose ids are higher
	return out
}
