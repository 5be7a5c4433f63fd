package chunk

import (
	"fmt"
	"maps"
	"slices"

	"rstore/internal/bitset"
	"rstore/internal/codec"
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

// Projection is the pair of lossy indexes of paper §2.4 as a Layout sees
// them: it reports key→chunk when a chunk is added and version→chunk when a
// version is placed (§3.1 builds chunk maps and projections together), and
// reads a parent's span back to derive its child's. *index.Projections
// implements it.
type Projection interface {
	AddKeyChunk(k types.Key, c ID)
	ObserveVersionChunk(v types.VersionID, c ID)
	VersionChunks(v types.VersionID) []ID
}

// Layout is the physical placement of a corpus's records — the record→Loc
// catalog and one Map per chunk — and the only writer of either. It grows by
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
	locs []Loc  // record id → location; ids past the end are unplaced
	maps []*Map // chunk id → chunk map
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

// Loc returns where record rec lives; Chunk is NoChunk until a chunk holds it.
func (l *Layout) Loc(rec uint32) Loc {
	if int(rec) >= len(l.locs) {
		return Loc{Chunk: NoChunk}
	}
	return l.locs[rec]
}

// openChunk appends the next chunk with recs in slot order, reporting its
// keys to the projection.
func (l *Layout) openChunk(recs []uint32) (ID, error) {
	cid := ID(len(l.maps))
	for slot, rec := range recs {
		if at := l.Loc(rec).Chunk; at != NoChunk {
			return cid, fmt.Errorf("chunk: record %d assigned to chunks %d and %d", rec, at, cid)
		}
		for int(rec) >= len(l.locs) {
			l.locs = append(l.locs, Loc{Chunk: NoChunk})
		}
		l.locs[rec] = Loc{Chunk: cid, Slot: uint32(slot)}
		l.proj.AddKeyChunk(l.c.Record(rec).CK.Key, cid)
	}
	l.maps = append(l.maps, NewMap(len(recs)))
	return cid, nil
}

// AddChunk lays items[idxs[0]], items[idxs[1]], … out as the next chunk and
// returns its payload. Slots number the items' members in that order; each
// member's Loc is set, the chunk's (still empty) map is opened, and its keys
// are reported. A record some chunk already holds is an error.
func (l *Layout) AddChunk(items []Item, idxs []uint32) ([]byte, error) {
	size, members := codec.UvarintLen(uint64(len(idxs))), 0
	for _, ii := range idxs {
		if int(ii) >= len(items) {
			return nil, fmt.Errorf("chunk: assignment references item %d of %d", ii, len(items))
		}
		size += len(items[ii].Encoded)
		members += len(items[ii].Members)
	}
	// Sized once: grown by append, a 1 MiB payload allocates five times that.
	payload := codec.PutUvarint(make([]byte, 0, size), uint64(len(idxs)))
	recs := make([]uint32, 0, members)
	for _, ii := range idxs {
		payload = append(payload, items[ii].Encoded...)
		recs = append(recs, items[ii].Members...)
	}
	cid, err := l.openChunk(recs)
	if err != nil {
		return nil, err
	}
	l.noteDelta(cid, len(recs))
	return payload, nil
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
// delta for the next chunk id opens that chunk: decoded is what DecodeChunk
// found in its payload, in slot order, and every record of it must be
// registered in the corpus — some version's bitmap claims it. Deltas must
// arrive in the order TakeDelta produced them, chunks ascending within each.
func (l *Layout) Restore(cid ID, m *Map, decoded []types.Record) error {
	if int(cid) == len(l.maps) {
		if len(decoded) != m.NumSlots {
			return fmt.Errorf("%w: chunk %d holds %d records, its map %d slots", types.ErrCorrupt, cid, len(decoded), m.NumSlots)
		}
		recs := make([]uint32, len(decoded))
		for slot, r := range decoded {
			rec, ok := l.c.IDForCK(r.CK)
			if !ok {
				return fmt.Errorf("%w: chunked record %v belongs to no placed version", types.ErrCorrupt, r.CK)
			}
			recs[slot] = rec
		}
		if _, err := l.openChunk(recs); err != nil {
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

// DecodeChunk decodes a chunk payload into its items' records, flattened by
// slot.
func DecodeChunk(payload []byte) ([]types.Record, error) {
	n, rest, err := codec.Uvarint(payload)
	if err != nil {
		return nil, err
	}
	var out []types.Record
	for i := uint64(0); i < n; i++ {
		var it *DecodedItem
		it, rest, err = DecodeItem(rest)
		if err != nil {
			return nil, err
		}
		out = append(out, it.Records...)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after chunk payload", types.ErrCorrupt, len(rest))
	}
	return out, nil
}
