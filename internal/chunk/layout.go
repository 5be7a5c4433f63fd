package chunk

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"rstore/internal/bitset"
	"rstore/internal/corpus"
	"rstore/internal/types"
)

// Loc records where a record physically lives: which chunk and which slot
// within it.
type Loc struct {
	Chunk ID
	Slot  uint32
}

// NoChunk marks a record no chunk holds yet.
const NoChunk = ID(^uint32(0))

// Layout is the physical placement of a corpus's records — the record→Loc
// catalog, per chunk its Map and the first slot of each of its segments, and
// the version→chunks projection of paper §2.4 (Fig 3b) — and the only writer
// of any of them. The projection is lossy in the paper's sense (it names
// chunks, not slots; the maps say which slots) and a function of the maps,
// built with them (§3.1), so it is never persisted. The paper's second
// projection, key→chunks, is not kept: Loc and corpus.KeyRecords answer
// "where are this key's records" exactly. It grows by
// two mutators: AddChunk adds a group of items Code laid out as the next
// chunk, and PlaceVersion gives a version its slot bitmaps. Offline partitioning (§3)
// drives them over the whole corpus on a fresh Layout, online partitioning
// (§4) over one batch on the live one ("existing records keep their
// chunks"), and RestoreChunk, ApplyDiffs and BindRecords fold what they
// persisted back in at load time. A version's bitmap in a chunk its delta
// does not touch is its tree parent's, shared: bitmaps are immutable once
// placed. Chunk ids are dense in the order chunks are added. Not safe for
// concurrent mutation.
type Layout struct {
	c     *corpus.Corpus
	locs  []Loc                    // record id → location; ids past the end are unplaced
	maps  []*Map                   // chunk id → chunk map
	segs  [][]uint32               // chunk id → first slot of each segment, ascending from 0
	spans map[types.VersionID][]ID // version → the chunks holding its records, ascending
	// delta is what AddChunk and PlaceVersion added to the maps since the
	// last TakeDelta: per chunk, a Map of the new versions' parent diffs.
	delta map[ID]*Map
}

// NewLayout returns an empty layout of c's records.
func NewLayout(c *corpus.Corpus) *Layout {
	return &Layout{c: c, spans: make(map[types.VersionID][]ID)}
}

// VersionChunks returns the chunks holding records of version v, ascending.
// Shared; callers must not mutate.
func (l *Layout) VersionChunks(v types.VersionID) []ID { return l.spans[v] }

// VersionSpan returns |chunks(v)| — the span of a full version retrieval.
func (l *Layout) VersionSpan(v types.VersionID) int { return len(l.spans[v]) }

// TotalVersionSpan sums the span over all versions — the headline
// partitioning-quality metric of the paper's Figs 8–10.
func (l *Layout) TotalVersionSpan() int {
	total := 0
	for _, s := range l.spans {
		total += len(s)
	}
	return total
}

// VersionIndexBytes estimates the version→chunks projection's footprint as
// the paper reports it: the adjacency lists stored as 4-byte ids.
func (l *Layout) VersionIndexBytes() int64 { return int64(4 * l.TotalVersionSpan()) }

// NumChunks returns the number of chunks laid out; it is the next chunk's id.
func (l *Layout) NumChunks() int { return len(l.maps) }

// Map returns chunk c's map. Shared; callers must not mutate.
func (l *Layout) Map(c ID) *Map { return l.maps[c] }

// Segments returns the first slot of each of chunk c's segments: segment i
// holds slots [Segments(c)[i], Segments(c)[i+1]), the last one up to the
// chunk's slot count. Shared; callers must not mutate.
func (l *Layout) Segments(c ID) []uint32 { return l.segs[c] }

// Loc returns where record rec lives; Chunk is NoChunk until a chunk holds it.
func (l *Layout) Loc(rec uint32) Loc {
	if int(rec) >= len(l.locs) {
		return Loc{Chunk: NoChunk}
	}
	return l.locs[rec]
}

// openChunk appends the next chunk, of numSlots slots cut into segments at the
// slots of segs, with an empty map; bindRecords says which records fill it.
func (l *Layout) openChunk(numSlots int, segs []uint32) ID {
	l.maps = append(l.maps, NewMap(numSlots))
	l.segs = append(l.segs, segs)
	return ID(len(l.maps) - 1)
}

// bindRecords sets the Loc of chunk cid's records, recs in slot order.
func (l *Layout) bindRecords(cid ID, recs []uint32) error {
	for slot, rec := range recs {
		if at := l.Loc(rec).Chunk; at != NoChunk {
			return fmt.Errorf("chunk: record %d assigned to chunks %d and %d", rec, at, cid)
		}
		for int(rec) >= len(l.locs) {
			l.locs = append(l.locs, Loc{Chunk: NoChunk})
		}
		l.locs[rec] = Loc{Chunk: cid, Slot: uint32(slot)}
	}
	return nil
}

// Coded is a chunk as Code lays it out, before it has an id: the records
// that fill its slots, in slot order, the first slot of each of its segments,
// and the segments' values, in segment order.
type Coded struct {
	Records  []uint32
	Segments []uint32
	Values   [][]byte
}

// Code lays items[idxs[0]], items[idxs[1]], … out as one chunk. Slots number
// the items' members with the items in the order of their representatives'
// composite keys — primary key, then version, compared as (Rank, version), so
// the items must have been ranked together — whatever order idxs lists them
// in, so the records of a key range sit in neighbouring slots and a key shares
// a prefix with its predecessor's; a segment is cut after the item that fills
// it (SegmentTarget). Code reads items and writes nothing they share: chunks
// are coded concurrently, and AddChunk takes them in id order.
func Code(items []Item, idxs []uint32) (*Coded, error) {
	size, members := 0, 0
	type slotKey struct {
		key  uint64 // rank, then version
		item uint32
	}
	keys := make([]slotKey, len(idxs))
	for i, ii := range idxs {
		if int(ii) >= len(items) {
			return nil, fmt.Errorf("chunk: assignment references item %d of %d", ii, len(items))
		}
		it := &items[ii]
		size += len(it.Encoded)
		members += len(it.Members)
		keys[i] = slotKey{uint64(it.Rank)<<32 | uint64(it.CK.Version), ii}
	}
	slices.SortFunc(keys, func(a, b slotKey) int { return cmp.Compare(a.key, b.key) })
	order := make([]uint32, len(keys))
	for i, k := range keys {
		order[i] = k.item
	}

	// One buffer for all segments, sized once: a segment frames an item in no
	// more bytes than EncodeItem did, plus its literal code and two varints.
	nsegs := size/SegmentTarget + 1
	buf := make([]byte, 0, size+nsegs*(maxCodeLen+2*binary.MaxVarintLen32))
	c := &Coded{
		Records:  make([]uint32, 0, members),
		Segments: make([]uint32, 0, nsegs),
		Values:   make([][]byte, 0, nsegs),
	}
	for i := 0; i < len(order); {
		j, packed, first := i, 0, uint32(len(c.Records))
		for ; j < len(order) && packed < SegmentTarget; j++ {
			packed += len(items[order[j]].Encoded)
			c.Records = append(c.Records, items[order[j]].Members...)
		}
		start := len(buf)
		var err error
		if buf, err = appendSegment(buf, first, items, order[i:j]); err != nil {
			return nil, fmt.Errorf("chunk: re-framing an item: %w", err)
		}
		c.Values = append(c.Values, buf[start:len(buf):len(buf)])
		c.Segments = append(c.Segments, first)
		i = j
	}
	return c, nil
}

// AddChunk adds a coded chunk as the next one and returns its id: each of
// its records' Loc is set and its (still empty) map is opened. A record some
// chunk already holds is an error, and adds no chunk.
func (l *Layout) AddChunk(c *Coded) (ID, error) {
	cid := ID(len(l.maps))
	if err := l.bindRecords(cid, c.Records); err != nil {
		return NoChunk, err
	}
	l.noteDelta(l.openChunk(len(c.Records), c.Segments))
	return cid, nil
}

// PlaceVersion gives version v its slot bitmaps: its tree parent's, minus
// the records v deletes, plus the records it adds. It states v's delta as
// diffs — per chunk, the slots it takes out of or puts into the parent's
// bitmap there; a delete of a record the parent does not hold, or an add of
// one it does, changes nothing — notes them in the pending delta, and folds
// them as core.Open will (ApplyDiffs). The parent must be placed and every
// record of v's delta must be in a chunk.
func (l *Layout) PlaceVersion(v types.VersionID) error {
	parent := l.c.Graph().Parent(v)
	perChunk := make(map[ID]*bitset.BitSet)
	// differ notes record rec's slot as one v differs from its parent in,
	// provided the parent holds the record (a delete) or does not (an add).
	differ := func(rec uint32, role string, held bool) error {
		loc := l.Loc(rec)
		if loc.Chunk == NoChunk {
			return fmt.Errorf("chunk: record %d %s version %d but unplaced", rec, role, v)
		}
		m := l.maps[loc.Chunk]
		if was := m.SlotsOf(parent); (was != nil && was.Contains(loc.Slot)) != held {
			return nil
		}
		if perChunk[loc.Chunk] == nil {
			perChunk[loc.Chunk] = bitset.New(m.NumSlots)
		}
		perChunk[loc.Chunk].Set(loc.Slot)
		return nil
	}
	for _, rec := range l.c.Dels(v) {
		if err := differ(rec, "deleted by", true); err != nil {
			return err
		}
	}
	for _, rec := range l.c.Adds(v) {
		if err := differ(rec, "live in", false); err != nil {
			return err
		}
	}
	diffs := make([]Slots, 0, len(perChunk))
	for _, cid := range slices.Sorted(maps.Keys(perChunk)) {
		diffs = append(diffs, Slots{cid, perChunk[cid]})
		l.noteDelta(cid).Versions[v] = perChunk[cid]
	}
	return l.ApplyDiffs(v, parent, diffs)
}

// noteDelta returns chunk cid's entry in the pending delta, opening it.
func (l *Layout) noteDelta(cid ID) *Map {
	if l.delta == nil {
		l.delta = make(map[ID]*Map)
	}
	if l.delta[cid] == nil {
		l.delta[cid] = NewMap(l.maps[cid].NumSlots)
	}
	return l.delta[cid]
}

// TakeDelta returns what AddChunk and PlaceVersion added to the chunk maps
// since the previous call, as parent diffs, and starts afresh: per chunk
// added or changed since, a Map holding — for every version placed since whose
// bitmap there differs from its tree parent's — the XOR of the two (against
// the empty set for a root version or a chunk the parent has nothing in). A
// version the Map does not list holds in that chunk what its parent holds. It
// is the chunk-map half of a placement record; RestoreChunk and ApplyDiffs
// read it back.
func (l *Layout) TakeDelta() map[ID]*Map {
	d := l.delta
	l.delta = nil
	return d
}

// Slots is a set of slots of one chunk: a version's bitmap there, or its
// difference from another's.
type Slots struct {
	Chunk ID
	Bits  *bitset.BitSet
}

// RestoreChunk opens chunk cid at load time, as its decoded segments describe
// it. Chunks open in id order, each by the first placement record that names
// it, before that record's versions get their bitmaps; which records fill it is
// bound once they are registered (BindRecords).
func (l *Layout) RestoreChunk(cid ID, stored Stored) error {
	if int(cid) != len(l.maps) {
		return fmt.Errorf("%w: chunk %d opened out of turn, after %d chunks", types.ErrCorrupt, cid, len(l.maps))
	}
	l.openChunk(len(stored.Records), stored.Segments)
	return nil
}

// ApplyDiffs gives version v, whose tree parent is parent (InvalidVersion for
// a root), the slot bitmaps its diffs state — PlaceVersion's, or the ones a
// placement record kept of them (TakeDelta) — ascending by chunk, each within
// its chunk's slots: in a chunk with a diff, the parent's bitmap XOR the diff;
// in any other, the parent's own, shared. The parent must have its bitmaps,
// every chunk of diffs must be open. v's span is recorded in chunk order.
func (l *Layout) ApplyDiffs(v, parent types.VersionID, diffs []Slots) error {
	parentChunks := l.spans[parent] // ascending; none for a root
	hold := func(cid ID, bm *bitset.BitSet) {
		if !bm.Empty() {
			l.maps[cid].Versions[v] = bm
			l.spans[v] = append(l.spans[v], cid)
		}
	}
	for _, d := range diffs {
		if int(d.Chunk) >= len(l.maps) {
			return fmt.Errorf("%w: version %d placed in chunk %d of %d", types.ErrCorrupt, v, d.Chunk, len(l.maps))
		}
		for ; len(parentChunks) > 0 && parentChunks[0] < d.Chunk; parentChunks = parentChunks[1:] {
			hold(parentChunks[0], l.maps[parentChunks[0]].SlotsOf(parent))
		}
		bm := d.Bits
		if len(parentChunks) > 0 && parentChunks[0] == d.Chunk {
			bm = l.maps[d.Chunk].SlotsOf(parent).Clone()
			bm.Xor(d.Bits)
			parentChunks = parentChunks[1:]
		}
		hold(d.Chunk, bm)
	}
	for _, cid := range parentChunks {
		hold(cid, l.maps[cid].SlotsOf(parent))
	}
	return nil
}

// BindRecords completes a chunk RestoreChunk opened: every record its segments
// decoded to must by now be registered in the corpus — some version's bitmap
// claims it — and takes its slot as its Loc.
func (l *Layout) BindRecords(cid ID, stored Stored) error {
	recs := make([]uint32, len(stored.Records))
	for slot, r := range stored.Records {
		rec, ok := l.c.IDForCK(r.CK)
		if !ok {
			return fmt.Errorf("%w: chunked record %v belongs to no placed version", types.ErrCorrupt, r.CK)
		}
		recs[slot] = rec
	}
	if err := l.bindRecords(cid, recs); err != nil {
		return fmt.Errorf("%w: %v", types.ErrCorrupt, err)
	}
	return nil
}

// Stored is a chunk as its segment values describe it: its records in slot
// order and the first slot of each segment.
type Stored struct {
	Records  []types.Record
	Segments []uint32
}

// Part is one decoded segment value: the segment index its key names, the
// slot its header says it begins at, and its records.
type Part struct {
	Index, First uint32
	Records      []types.Record
}

// JoinSegments assembles the chunk whose segments decoded to parts, in any
// order. Every index up to the highest must be there, each segment must begin
// at the slot its predecessor ended at, the first at 0: a missing segment or
// one stored under another's key is corruption, never a shorter chunk. (A
// missing tail shows when the chunk's map counts more slots than the chunk
// holds; DecodeMap.)
func JoinSegments(parts []Part) (Stored, error) {
	slices.SortFunc(parts, func(a, b Part) int { return cmp.Compare(a.Index, b.Index) })
	st := Stored{Segments: make([]uint32, len(parts))}
	for i, p := range parts {
		if int(p.Index) != i {
			return Stored{}, fmt.Errorf("%w: segment %d missing, segment %d stored", types.ErrCorrupt, i, p.Index)
		}
		if int(p.First) != len(st.Records) {
			return Stored{}, fmt.Errorf("%w: segment %d begins at slot %d, its predecessors hold %d", types.ErrCorrupt, i, p.First, len(st.Records))
		}
		st.Segments[i] = p.First
		if i == 0 {
			st.Records = p.Records // the only segment of most small chunks: no copy
		} else {
			st.Records = append(st.Records, p.Records...)
		}
	}
	return st, nil
}
