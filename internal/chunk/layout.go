package chunk

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"

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

// Projection is the version→chunk index of paper §2.4 as a Layout sees it:
// it reports a version's chunks when the version is placed (§3.1 builds chunk
// maps and the projection together), and reads a parent's span back to derive
// its child's. *index.Projections implements it.
type Projection interface {
	ObserveVersionChunk(v types.VersionID, c ID)
	VersionChunks(v types.VersionID) []ID
}

// Layout is the physical placement of a corpus's records — the record→Loc
// catalog and, per chunk, its Map and the first slot of each of its segments
// — and the only writer of any of them. It grows by
// two mutators: AddChunk lays a group of items out as the next chunk, and
// PlaceVersion gives a version its slot bitmaps. Offline partitioning (§3)
// drives them over the whole corpus on a fresh Layout, online partitioning
// (§4) over one batch on the live one ("existing records keep their
// chunks"), and Restore folds what they persisted back in at load time.
// Chunk ids are dense in the order chunks are added. Not safe for concurrent
// mutation.
type Layout struct {
	c    *corpus.Corpus
	proj Projection
	locs []Loc      // record id → location; ids past the end are unplaced
	maps []*Map     // chunk id → chunk map
	segs [][]uint32 // chunk id → first slot of each segment, ascending from 0
	// delta is what AddChunk and PlaceVersion added to the maps since the
	// last TakeDelta: per chunk, a Map sharing the new bitmaps.
	delta map[ID]*Map
}

// NewLayout returns an empty layout of c's records that fills proj.
func NewLayout(c *corpus.Corpus, proj Projection) *Layout {
	return &Layout{c: c, proj: proj}
}

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

// openChunk appends the next chunk with recs in slot order, cut into segments
// at the slots of segs.
func (l *Layout) openChunk(recs, segs []uint32) (ID, error) {
	cid := ID(len(l.maps))
	for slot, rec := range recs {
		if at := l.Loc(rec).Chunk; at != NoChunk {
			return cid, fmt.Errorf("chunk: record %d assigned to chunks %d and %d", rec, at, cid)
		}
		for int(rec) >= len(l.locs) {
			l.locs = append(l.locs, Loc{Chunk: NoChunk})
		}
		l.locs[rec] = Loc{Chunk: cid, Slot: uint32(slot)}
	}
	l.maps = append(l.maps, NewMap(len(recs)))
	l.segs = append(l.segs, segs)
	return cid, nil
}

// AddChunk lays items[idxs[0]], items[idxs[1]], … out as the next chunk and
// returns its segment values, in segment order. Slots number the items'
// members with the items in the order of their representatives' composite
// keys — primary key, then version — whatever order idxs lists them in, so the
// records of a key range sit in neighbouring slots and a key shares a prefix
// with its predecessor's; a segment is cut after the item that fills it
// (SegmentTarget). Each member's Loc is set and the chunk's (still empty) map
// is opened. A record some chunk already holds is an error.
func (l *Layout) AddChunk(items []Item, idxs []uint32) ([][]byte, error) {
	size, members := 0, 0
	for _, ii := range idxs {
		if int(ii) >= len(items) {
			return nil, fmt.Errorf("chunk: assignment references item %d of %d", ii, len(items))
		}
		size += len(items[ii].Encoded)
		members += len(items[ii].Members)
	}
	order := slices.Clone(idxs)
	slices.SortFunc(order, func(a, b uint32) int {
		x, y := items[a].CK, items[b].CK
		// strings.Compare is one pass over the keys; cmp.Compare is two.
		if c := strings.Compare(string(x.Key), string(y.Key)); c != 0 {
			return c
		}
		return cmp.Compare(x.Version, y.Version)
	})

	// One buffer for all segments, sized once: a segment frames an item in no
	// more bytes than EncodeItem did, plus its two-varint header.
	nsegs := size/SegmentTarget + 1
	buf := make([]byte, 0, size+nsegs*2*binary.MaxVarintLen32)
	values := make([][]byte, 0, nsegs)
	firsts := make([]uint32, 0, nsegs)
	recs := make([]uint32, 0, members)
	for i := 0; i < len(order); {
		j, packed, first := i, 0, uint32(len(recs))
		for ; j < len(order) && packed < SegmentTarget; j++ {
			packed += len(items[order[j]].Encoded)
			recs = append(recs, items[order[j]].Members...)
		}
		start := len(buf)
		var err error
		if buf, err = appendSegment(buf, first, items, order[i:j]); err != nil {
			return nil, fmt.Errorf("chunk: re-framing an item: %w", err)
		}
		values = append(values, buf[start:len(buf):len(buf)])
		firsts = append(firsts, first)
		i = j
	}
	cid, err := l.openChunk(recs, firsts)
	if err != nil {
		return nil, err
	}
	l.noteDelta(cid, len(recs))
	return values, nil
}

// PlaceVersion gives version v its slot bitmaps: its tree parent's, minus
// the records v deletes, plus the records it adds. The parent must be placed
// and every record of v's delta must be in a chunk. v's span is reported to
// the projection in chunk order.
func (l *Layout) PlaceVersion(v types.VersionID) error {
	perChunk := make(map[ID]*bitset.BitSet)
	if parent := l.c.Graph().Parent(v); parent != types.InvalidVersion {
		for _, cid := range l.proj.VersionChunks(parent) {
			if bm := l.maps[cid].SlotsOf(parent); bm != nil {
				perChunk[cid] = bm.Clone()
			}
		}
	}
	for _, rec := range l.c.Dels(v) {
		loc := l.Loc(rec)
		if loc.Chunk == NoChunk {
			return fmt.Errorf("chunk: record %d deleted by version %d but unplaced", rec, v)
		}
		if bm := perChunk[loc.Chunk]; bm != nil {
			bm.Clear(loc.Slot)
		}
	}
	for _, rec := range l.c.Adds(v) {
		loc := l.Loc(rec)
		if loc.Chunk == NoChunk {
			return fmt.Errorf("chunk: record %d live in version %d but unplaced", rec, v)
		}
		bm := perChunk[loc.Chunk]
		if bm == nil {
			bm = bitset.New(l.maps[loc.Chunk].NumSlots)
			perChunk[loc.Chunk] = bm
		}
		bm.Set(loc.Slot)
	}
	for _, cid := range slices.Sorted(maps.Keys(perChunk)) {
		if bm := perChunk[cid]; !bm.Empty() {
			l.maps[cid].Versions[v] = bm
			l.noteDelta(cid, l.maps[cid].NumSlots).Versions[v] = bm
			l.proj.ObserveVersionChunk(v, cid)
		}
	}
	return nil
}

// noteDelta returns chunk cid's entry in the pending delta, opening it.
func (l *Layout) noteDelta(cid ID, numSlots int) *Map {
	if l.delta == nil {
		l.delta = make(map[ID]*Map)
	}
	if l.delta[cid] == nil {
		l.delta[cid] = NewMap(numSlots)
	}
	return l.delta[cid]
}

// TakeDelta returns what AddChunk and PlaceVersion added to the chunk maps
// since the previous call — per touched chunk, a Map holding only the new
// versions' bitmaps (the whole map for a chunk added since) — and starts
// afresh. It is the chunk-map half of a placement record; Restore reads it
// back.
func (l *Layout) TakeDelta() map[ID]*Map {
	d := l.delta
	l.delta = nil
	return d
}

// Restore folds a persisted delta of chunk cid's map back in at load time. A
// delta for the next chunk id opens that chunk: stored is what JoinSegments
// made of its decoded segments, and every record of it must be registered in
// the corpus — some version's bitmap claims it. Deltas must arrive in the
// order TakeDelta produced them, chunks ascending within each.
func (l *Layout) Restore(cid ID, m *Map, stored Stored) error {
	if int(cid) == len(l.maps) {
		if len(stored.Records) != m.NumSlots {
			return fmt.Errorf("%w: chunk %d holds %d records, its map %d slots", types.ErrCorrupt, cid, len(stored.Records), m.NumSlots)
		}
		recs := make([]uint32, len(stored.Records))
		for slot, r := range stored.Records {
			rec, ok := l.c.IDForCK(r.CK)
			if !ok {
				return fmt.Errorf("%w: chunked record %v belongs to no placed version", types.ErrCorrupt, r.CK)
			}
			recs[slot] = rec
		}
		if _, err := l.openChunk(recs, stored.Segments); err != nil {
			return fmt.Errorf("%w: %v", types.ErrCorrupt, err)
		}
	} else if int(cid) > len(l.maps) || l.maps[cid].NumSlots != m.NumSlots {
		return fmt.Errorf("%w: placement record extends chunk %d (%d slots) out of turn", types.ErrCorrupt, cid, m.NumSlots)
	}
	for v, bm := range m.Versions {
		l.maps[cid].Versions[v] = bm
		if !bm.Empty() {
			l.proj.ObserveVersionChunk(v, cid)
		}
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
// holds; Restore.)
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
