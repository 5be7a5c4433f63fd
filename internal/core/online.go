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
// ChunkCapacity (8 KiB of a full 1 MiB chunk) has those records copied into
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
// Both rules rest on one fact, what the batch's pending leaves hold, and one
// walk over the pending subtrees learns it (frontier): which new records are
// open, and which slots of each placed chunk are alive at a leaf, the
// candidates copied forward.
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

	// The copies follow the new records and are ranked with them once: Code
	// orders a chunk's slots by rank, and ranks over the union order each
	// group as ranks over the group alone would.
	open, live := s.frontier(pending, newIDs)
	copies := s.copyForward(live)
	items := chunk.RecordItems(s.corpus, slices.Concat(newIDs, copies))
	chunk.RankItems(s.corpus, items)
	fresh, copied := items[:len(newIDs)], items[len(newIDs):]
	size := 0
	for i := range fresh {
		size += fresh[i].PackedSize()
	}

	// A batch that fits one chunk is one instance and one chunk. A larger
	// one is split at the frontier: the open records, which every later
	// version may read, are chunked apart from the closed ones, which only
	// the batch's own versions read — open chunks first. The records copied
	// forward are open: they join the first group, after its new records,
	// which stay in record-id order in both groups.
	groups := [][]chunk.Item{items}
	if size > s.cfg.ChunkCapacity {
		var opened, closed []chunk.Item
		for _, it := range fresh {
			if open.Contains(it.Members[0] - newIDs[0]) {
				opened = append(opened, it)
			} else {
				closed = append(closed, it)
			}
		}
		groups = [][]chunk.Item{append(opened, copied...), closed}
	}
	ins, err := s.batchInstances(pending, groups, copies)
	if err != nil {
		return err
	}
	return s.place(ctx, ins, placement{op: "flush", corpus: s.corpus, keys: s.sortedKeys, layout: s.layout, gen: s.gen, first: pending[0]})
}

// frontier walks each pending subtree once, parents first, and returns what
// the batch's leaves — pending versions without a child — hold. open is over
// the batch's new records (newIDs, ascending; bit i is record newIDs[0]+i, a
// dense range, as ids are handed out at commit): those some leaf holds, the
// open records of Flush (one deleted on one branch and alive at the tip of
// another is open). live is, per placed chunk, the slots some leaf holds:
// what the placed parent of the leaf's subtree holds, as its bitmaps say,
// less the placed records the path deletes and plus those it re-adds, each at
// the copy the parent holds or else the newest. A subtree without a placed
// parent tracks new records only.
func (s *Store) frontier(pending []types.VersionID, newIDs []uint32) (open *bitset.BitSet, live []*bitset.BitSet) {
	base, n := uint32(0), 0
	if len(newIDs) > 0 {
		base, n = newIDs[0], int(newIDs[len(newIDs)-1]-newIDs[0])+1
	}
	open, fresh := bitset.New(n), bitset.New(n) // fresh: the new records the walk's version holds
	live = make([]*bitset.BitSet, s.layout.NumChunks())
	for _, root := range pending {
		parent := s.graph.Parent(root)
		if parent != types.InvalidVersion && parent >= pending[0] {
			continue // not the root of a pending subtree
		}
		// held is parent's bitmap in each chunk, and at what the walk's
		// version holds there; both stay nil without a placed parent.
		var held, at []*bitset.BitSet
		if parent != types.InvalidVersion {
			held, at = make([]*bitset.BitSet, len(live)), make([]*bitset.BitSet, len(live))
			for _, cid := range s.layout.VersionChunks(parent) {
				held[cid] = s.layout.Map(cid).SlotsOf(parent)
				at[cid] = held[cid].Clone()
			}
		}
		s.walkLeaves(root, func(recs []uint32, alive bool) {
			for _, rec := range recs {
				// Every unplaced record a pending delta names is one of
				// newIDs: no placed version holds it, so a pending one added it.
				bits, i := fresh, rec-base
				if loc := s.layout.Loc(rec); loc.Chunk != chunk.NoChunk {
					if at == nil {
						continue // no placed parent: new records only
					}
					if held[loc.Chunk] == nil || !held[loc.Chunk].Contains(loc.Slot) {
						if old, ok := s.layout.Held(rec, parent); ok {
							loc = old
						}
					}
					if at[loc.Chunk] == nil {
						at[loc.Chunk] = bitset.New(s.layout.Map(loc.Chunk).NumSlots)
					}
					bits, i = at[loc.Chunk], loc.Slot
				}
				if alive {
					bits.Set(i)
				} else {
					bits.Clear(i)
				}
			}
		}, func() {
			open.Or(fresh)
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
	return open, live
}

// copyForwardShare bounds what a flush copies forward (Flush): the records
// of a placed chunk alive at the batch's tips, when they pack into at most
// 1/copyForwardShare of the chunk's own packed bytes and of ChunkCapacity —
// 8 KiB of a full 1 MiB chunk, about thirteen records of 512 B. It is the most
// a chunk adds to the stored bytes as copies, relative to its own size: a
// chunk of a few records, as a flush of a commit or two makes, is never copied
// from. On the benchmark's ingest chain of 1 080 commits, a version is read
// from 9.05 chunks at 1/256, 8.50 at 1/128 and 7.75 at 1/64; against 1/256,
// 1/128 stores 0.15 % more bytes and 1/64 0.50 %, all of the benchmark's
// bound on stored and disk bytes.
const copyForwardShare = 128

// copyForward returns, ascending, the placed records a flush copies forward:
// per placed chunk, the slots live (frontier's) says some pending leaf holds
// there, when their records pack into more than nothing and at most
// 1/copyForwardShare of the chunk's packed bytes and of ChunkCapacity.
func (s *Store) copyForward(live []*bitset.BitSet) []uint32 {
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

// batchInstances builds a partitioning instance over each non-empty group of
// single-record items of the batch — none for a batch that adds and copies no
// record, which adds no chunk. The instances share one graph: a virtual root
// stands in for the already-partitioned store, with the pending versions
// hanging off it in commit order. Each instance holds at the virtual root the
// records copied forward (copies) among its items, and projects the pending
// deltas onto its items' records.
func (s *Store) batchInstances(pending []types.VersionID, groups [][]chunk.Item, copies []uint32) ([]*partition.Input, error) {
	g := vgraph.New()
	if _, err := g.AddRoot(); err != nil {
		return nil, err
	}
	for _, v := range pending {
		tp := types.VersionID(0) // the virtual root, under the root of a pending subtree
		if p := s.graph.Parent(v); p != types.InvalidVersion && p >= pending[0] {
			tp = p - pending[0] + 1
		}
		if _, err := g.AddVersion(tp); err != nil {
			return nil, err
		}
	}
	var ins []*partition.Input
	for _, items := range groups {
		if len(items) == 0 {
			continue
		}
		itemIdx := make(map[uint32]uint32, len(items))
		for i, it := range items {
			itemIdx[it.Members[0]] = uint32(i)
		}
		adds := [][]uint32{filterMapIDs(copies, itemIdx)} // virtual root: the copies
		dels := [][]uint32{nil}
		for _, v := range pending {
			adds = append(adds, filterMapIDs(s.corpus.Adds(v), itemIdx))
			dels = append(dels, filterMapIDs(s.corpus.Dels(v), itemIdx))
		}
		ins = append(ins, &partition.Input{
			Graph:    g,
			Items:    items,
			Adds:     adds,
			Dels:     dels,
			Capacity: s.cfg.ChunkCapacity,
		})
	}
	return ins, nil
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
