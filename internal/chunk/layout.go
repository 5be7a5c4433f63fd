package chunk

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
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
// catalog, per chunk its Map, the record in each of its slots and the first
// slot of each of its segments, and the version→chunks projection of paper
// §2.4 (Fig 3b) — and the only writer of any of them. The projection is lossy
// in the paper's sense (it names chunks, not slots; the maps say which slots)
// and a function of the maps, built with them (§3.1), so it is never
// persisted. The paper's second projection, key→chunks, is not kept: Loc and
// corpus.KeyRecords answer "where are this key's records" exactly. It grows
// by two mutators: AddChunk adds a group of items Code laid out as the next
// chunk, and PlaceVersion gives a version its slot bitmaps. Offline
// partitioning (§3) drives them over the whole corpus on a fresh Layout, one
// copy of each record, online partitioning (§4) over one batch on the live
// one, and RestoreChunk, ApplyDiffs and BindRecords fold what they persisted,
// with what Implied derives, back in at load time. Online, existing records
// keep their chunks, except that a batch may copy forward the few records a
// nearly dead chunk still holds at its tips: a record then sits in more than
// one chunk, Loc names its newest copy, and each version holds at most one
// copy of it — the versions placed since read the newest, older ones keep
// their slots. A version's bitmap in a chunk its delta does not touch is its
// tree parent's, shared: bitmaps are immutable once placed. Chunk ids are
// dense in the order chunks are added. Not safe for concurrent mutation.
type Layout struct {
	c     *corpus.Corpus
	locs  []Loc                    // record id → newest copy; ids past the end are unplaced
	older map[uint32][]Loc         // record id → its older copies, oldest first; records of one copy are absent
	maps  []*Map                   // chunk id → chunk map
	recs  [][]uint32               // chunk id → the record in each slot
	segs  [][]uint32               // chunk id → first slot of each segment, ascending from 0
	spans map[types.VersionID][]ID // version → the chunks holding its records, ascending
	// delta is what AddChunk and PlaceVersion added to the maps since the
	// last TakeDelta: per chunk, a Map of the new versions' parent diffs less
	// what composite keys imply.
	delta map[ID]*Map
	// copied lists the records AddChunk bound as copies since the last
	// TakeDelta: the versions PlaceVersion places next move to them.
	copied []uint32
	// putBy is PlaceVersion's scratch, key id → 1 + the last version placed
	// that creates a record of the key: the deletes of that version's parent
	// records of the key are implied.
	putBy []types.VersionID
	// diff is PlaceVersion's other scratch, chunk id → the version's diff in
	// the chunk and what of it the delta states, nil where it has none;
	// touched lists the chunks it set, which PlaceVersion clears again.
	diff    []chunkDiff
	touched []ID
}

// chunkDiff is one chunk's part of a version's parent diff (see
// PlaceVersion): whole is the diff, stated what of it the delta states.
type chunkDiff struct {
	whole, stated *bitset.BitSet
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

// Loc returns where record rec lives — its newest copy; Chunk is NoChunk
// until a chunk holds it.
func (l *Layout) Loc(rec uint32) Loc {
	if int(rec) >= len(l.locs) {
		return Loc{Chunk: NoChunk}
	}
	return l.locs[rec]
}

// Older returns the copies of record rec before its newest, oldest first:
// none unless a flush copied it forward. Shared; callers must not mutate.
func (l *Layout) Older(rec uint32) []Loc { return l.older[rec] }

// Copied returns how many records sit in more than one chunk.
func (l *Layout) Copied() int { return len(l.older) }

// Records returns the record in each of chunk c's slots. Shared; callers
// must not mutate.
func (l *Layout) Records(c ID) []uint32 { return l.recs[c] }

// Held returns the copy of record rec that version v's bitmaps hold, newest
// first, and false when v holds none.
func (l *Layout) Held(rec uint32, v types.VersionID) (Loc, bool) {
	loc := l.Loc(rec)
	if loc.Chunk == NoChunk {
		return Loc{}, false
	}
	if l.holds(v, loc) {
		return loc, true
	}
	for _, old := range slices.Backward(l.older[rec]) {
		if l.holds(v, old) {
			return old, true
		}
	}
	return Loc{}, false
}

// holds reports whether version v's bitmap in loc's chunk has its slot.
func (l *Layout) holds(v types.VersionID, loc Loc) bool {
	bits := l.maps[loc.Chunk].SlotsOf(v)
	return bits != nil && bits.Contains(loc.Slot)
}

// openChunk appends the next chunk, of numSlots slots cut into segments at the
// slots of segs, with an empty map; its caller says which records fill it.
func (l *Layout) openChunk(numSlots int, segs []uint32) ID {
	l.maps = append(l.maps, NewMap(numSlots))
	l.recs = append(l.recs, nil)
	l.segs = append(l.segs, segs)
	return ID(len(l.maps) - 1)
}

// bindRecords points the Locs of recs, the records of chunk cid, the newest,
// in slot order, at their slots, and returns those an earlier chunk already
// held: each is a copy, whose earlier Loc joins its older copies. A record
// that fills two slots is refused, with every Loc as it was: a chunk holds a
// record once.
func (l *Layout) bindRecords(cid ID, recs []uint32) (copies []uint32, err error) {
	for _, rec := range recs {
		for int(rec) >= len(l.locs) {
			l.locs = append(l.locs, Loc{Chunk: NoChunk})
		}
	}
	prev := make([]Loc, len(recs)) // what each record's Loc was
	for slot, rec := range recs {
		if l.locs[rec].Chunk == cid { // no earlier chunk has cid: this one took it
			for j := slot - 1; j >= 0; j-- {
				l.locs[recs[j]] = prev[j]
			}
			return nil, fmt.Errorf("chunk: record %d assigned to chunk %d twice", rec, cid)
		}
		prev[slot] = l.locs[rec]
		l.locs[rec] = Loc{Chunk: cid, Slot: uint32(slot)}
	}
	for slot, at := range prev {
		if at.Chunk != NoChunk {
			if l.older == nil {
				l.older = make(map[uint32][]Loc)
			}
			l.older[recs[slot]] = append(l.older[recs[slot]], at)
			copies = append(copies, recs[slot])
		}
	}
	return copies, nil
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
// are coded concurrently, and AddChunk takes them in id order. The segments
// are coded one after the other in one scratch (coder), and each value is
// returned in memory of its own, of exactly its stored size: the caller owns
// them, and nothing a later Code call does touches them.
func Code(items []Item, idxs []uint32) (*Coded, error) {
	members := 0
	keys := make([]slotKey, 2*len(idxs)) // and sortSlots' other half
	for i, ii := range idxs {
		if int(ii) >= len(items) {
			return nil, fmt.Errorf("chunk: assignment references item %d of %d", ii, len(items))
		}
		it := &items[ii]
		members += len(it.Members)
		keys[i] = slotKey{uint64(it.Rank)<<32 | uint64(it.CK.Version), ii, uint32(it.EncodedLen())}
	}
	keys = sortSlots(keys[:len(idxs)], keys[len(idxs):])
	order := make([]uint32, len(keys))
	for i, k := range keys {
		order[i] = k.item
	}

	var cd coder
	c := &Coded{Records: make([]uint32, 0, members)}
	for i := 0; i < len(order); {
		j, packed, first := i, 0, uint32(len(c.Records))
		for ; j < len(order) && packed < SegmentTarget; j++ {
			packed += int(keys[j].size)
			c.Records = append(c.Records, items[order[j]].Members...)
		}
		// A segment frames an item in no more bytes than EncodeItem did,
		// plus its code and two varints: the scratch is sized once, by the
		// first segment, a full one unless it is the only one.
		if size := packed + maxCodeLen + 2*binary.MaxVarintLen32; cap(cd.seg) < size {
			cd.seg = make([]byte, 0, size)
		}
		var err error
		if cd.seg, err = cd.appendSegment(cd.seg[:0], first, items, order[i:j]); err != nil {
			return nil, fmt.Errorf("chunk: re-framing an item: %w", err)
		}
		c.Values = append(c.Values, bytes.Clone(cd.seg))
		c.Segments = append(c.Segments, first)
		i = j
	}
	return c, nil
}

// A slotKey is an item of a chunk as Code orders it: by key, its
// representative's rank, then version, which no two of a chunk's items share.
type slotKey struct {
	key  uint64 // rank, then version
	item uint32
	size uint32 // its EncodedLen
}

// sortSlots sorts keys by key a byte at a time, from the lowest: a counting
// pass over each byte in which two keys differ orders them by it, keeping the
// order of equals, from one of keys and tmp, a slice as long, into the other.
// It returns whichever of the two ends up holding the sorted keys.
func sortSlots(keys, tmp []slotKey) []slotKey {
	var differ uint64
	for _, k := range keys {
		differ |= k.key ^ keys[0].key
	}
	for shift := uint(0); differ>>shift != 0; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var at [256]int
		for _, k := range keys {
			at[byte(k.key>>shift)]++
		}
		sum := 0
		for b, n := range at {
			at[b], sum = sum, sum+n
		}
		for _, k := range keys {
			b := byte(k.key >> shift)
			tmp[at[b]] = k
			at[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// AddChunk adds a coded chunk as the next one and returns its id: its (still
// empty) map is opened and each of its records' Loc set to its slot. A record
// an earlier chunk holds is a copy: the versions PlaceVersion places next read
// it from this chunk. A record the chunk holds twice is an error, and adds no
// chunk and moves no Loc.
func (l *Layout) AddChunk(c *Coded) (ID, error) {
	cid := ID(len(l.maps))
	copies, err := l.bindRecords(cid, c.Records)
	if err != nil {
		return NoChunk, err
	}
	l.noteDelta(l.openChunk(len(c.Records), c.Segments))
	l.recs[cid] = c.Records
	l.copied = append(l.copied, copies...)
	return cid, nil
}

// CheckOneCopy refuses chunk cid when an earlier chunk holds one of its
// records: a layout of a whole corpus holds each record once.
func (l *Layout) CheckOneCopy(cid ID) error {
	if len(l.older) == 0 {
		return nil
	}
	for _, rec := range l.recs[cid] {
		if old := l.older[rec]; len(old) > 0 {
			return fmt.Errorf("chunk: record %d assigned to chunks %d and %d", rec, old[0].Chunk, cid)
		}
	}
	return nil
}

// PlaceVersion gives version v its slot bitmaps: its tree parent's, minus
// the records v deletes, plus the records it adds. It states v's delta as
// diffs — per chunk, the slots it takes out of or puts into the parent's
// bitmap there: a delete takes out the copy of its record the parent holds,
// an add puts in the newest copy, and a delete of a record the parent does
// not hold, or an add of one it does, changes nothing — and folds them as
// core.Open will (ApplyDiffs). It also moves v to the copies AddChunk made
// since the last TakeDelta: a record copied since that the parent holds at an
// older copy, and that v does not delete, is a slot out of the old copy's
// chunk and a slot into the new one's. Only a batch's subtree roots have such
// a parent; every later version inherits the new copy. The pending delta
// keeps of the diffs only what composite keys do not imply (Implied): merge
// re-adds, records whose composite keys name another version, deletes of keys
// v does not put again, and moves. The parent must be placed, every record of
// v's delta must be in a chunk, and every record v's composite keys name must
// be one v adds (corpus.AddVersionDelta).
func (l *Layout) PlaceVersion(v types.VersionID) error {
	parent := l.c.Graph().Parent(v)
	if n := l.c.NumKeys(); len(l.putBy) < n {
		l.putBy = append(l.putBy, make([]types.VersionID, n-len(l.putBy))...)
	}
	for _, rec := range l.c.Adds(v) {
		if l.c.Record(rec).CK.Version == v {
			l.putBy[l.c.KeyOf(rec)] = v + 1
		}
	}
	if n := len(l.maps); len(l.diff) < n {
		l.diff = append(l.diff, make([]chunkDiff, n-len(l.diff))...)
	}
	// l.diff holds, per chunk, v's diff there and what of it the delta
	// states.
	mark := func(loc Loc, implied bool) {
		d := &l.diff[loc.Chunk]
		if d.whole == nil {
			d.whole = bitset.New(l.maps[loc.Chunk].NumSlots)
			l.touched = append(l.touched, loc.Chunk)
		}
		d.whole.Set(loc.Slot)
		if !implied {
			if d.stated == nil {
				d.stated = bitset.New(l.maps[loc.Chunk].NumSlots)
			}
			d.stated.Set(loc.Slot)
		}
	}
	defer func() {
		for _, cid := range l.touched {
			l.diff[cid] = chunkDiff{}
		}
		l.touched = l.touched[:0]
	}()
	// differ notes record rec's slot as one v differs from its parent in,
	// provided the parent holds the record (a delete, of the copy it holds)
	// or does not (an add, of the newest), and states it unless composite
	// keys imply it.
	differ := func(rec uint32, role string, held, implied bool) error {
		loc := l.Loc(rec)
		if loc.Chunk == NoChunk {
			return fmt.Errorf("chunk: record %d %s version %d but unplaced", rec, role, v)
		}
		at, ok := l.Held(rec, parent)
		if ok != held {
			return nil
		}
		if held {
			loc = at
		}
		mark(loc, implied)
		return nil
	}
	for _, rec := range l.c.Dels(v) {
		if err := differ(rec, "deleted by", true, l.putBy[l.c.KeyOf(rec)] == v+1); err != nil {
			return err
		}
	}
	for _, rec := range l.c.Adds(v) {
		if err := differ(rec, "live in", false, l.c.Record(rec).CK.Version == v); err != nil {
			return err
		}
	}
	for _, rec := range l.copied {
		if at, ok := l.Held(rec, parent); ok && at != l.Loc(rec) && !l.c.Dels(v).Contains(rec) {
			mark(at, false)
			mark(l.Loc(rec), false)
		}
	}
	slices.Sort(l.touched)
	diffs := make([]Slots, 0, len(l.touched))
	for _, cid := range l.touched {
		d := l.diff[cid]
		diffs = append(diffs, Slots{cid, d.whole})
		if d.stated != nil {
			l.noteDelta(cid).Versions[v] = d.stated
		}
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
// since the previous call, as parent diffs less what composite keys imply,
// and starts afresh: per chunk added since, or in which a version placed
// since states a slot, a Map holding — for every version placed since whose
// bitmap there differs from its tree parent's in a slot composite keys do not
// imply — those slots of the XOR of the two (against the empty set for a root
// version or a chunk the parent has nothing in). What a version's Maps state
// and what its composite keys imply (Implied.Or) together are its diffs; a
// version neither names in a chunk holds there what its parent holds. It is
// the chunk-map half of a placement record; RestoreChunk, Implied and
// ApplyDiffs read it back.
func (l *Layout) TakeDelta() map[ID]*Map {
	d := l.delta
	l.delta, l.copied = nil, nil
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

// BindRecords completes a chunk RestoreChunk opened, the chunks of a
// placement record in id order: every record its segments decoded to must by
// now be registered in the corpus — some version's bitmap claims it — and
// takes its slot as its Loc. A record an earlier chunk holds is a copy, as
// AddChunk made it; one the chunk holds twice is types.ErrCorrupt.
func (l *Layout) BindRecords(cid ID, stored Stored) error {
	recs := make([]uint32, len(stored.Records))
	for slot, r := range stored.Records {
		rec, ok := l.c.IDForCK(r.CK)
		if !ok {
			return fmt.Errorf("%w: chunked record %v belongs to no placed version", types.ErrCorrupt, r.CK)
		}
		recs[slot] = rec
	}
	if _, err := l.bindRecords(cid, recs); err != nil {
		return fmt.Errorf("%w: %v", types.ErrCorrupt, err)
	}
	l.recs[cid] = recs
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
