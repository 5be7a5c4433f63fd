package chunk

import (
	"cmp"
	"fmt"
	"slices"

	"rstore/internal/bitset"
	"rstore/internal/types"
)

// Implied is what the composite keys of a generation's chunks say about its
// versions' diffs, which a placement record therefore leaves out
// (PlaceVersion): a record whose composite key names version v is one v
// creates, a slot of v's diff, and so is, for each key v creates a record of,
// the record of that key v's tree parent holds, which v's record supersedes.
// It indexes the chunks' records once, by the version their composite keys
// name and by their key. A composite key may sit in more than one chunk, when
// a flush copied its record forward (Layout.AddChunk): its first copy, in the
// chunk of lowest id, is its creation, and the later ones are only records of
// its key, which the lookup of what the parent holds tests like any other.
// Every Loc it holds is the position of a record in the chunks it was built
// over, and nothing in it is sized by a count the chunks' bytes claim. Not
// safe for concurrent use: Or keeps scratch in it.
type Implied struct {
	versions map[types.VersionID]uint32 // version → its group of created
	keys     map[types.Key]uint32       // key → its group of records
	// created holds, per version group, the slots of the records whose
	// composite keys name the version, in ascending (chunk, slot) order, and
	// at the same index createdKey their key groups, recordAt where records
	// holds them and later whether an earlier chunk holds the composite key
	// too; records holds, per key group, the slots of the key's records,
	// newest version first, a version's copies in ascending chunk order. Group
	// g of either is [start[g], start[g+1]) of it.
	createdStart, recordsStart []uint32
	created, records           []Loc
	createdKey, recordAt       []uint32
	later                      *bitset.BitSet
	// copies lists, per composite key in more than one chunk, every chunk's
	// slot of it, creation first, and copied marks those slots per chunk.
	copies map[types.CompositeKey][]Loc
	copied map[ID]*bitset.BitSet
	// held and diff are Or's scratch, one entry per chunk: the bitmap there
	// of the tree parent of the version Or is given, and that version's
	// diff; nil outside a call.
	held, diff []*bitset.BitSet
}

// NewImplied indexes the records chunks decoded to, chunk id by chunk id.
func NewImplied(chunks []Stored) *Implied {
	n := 0
	for _, st := range chunks {
		n += len(st.Records)
	}
	ix := &Implied{
		versions: map[types.VersionID]uint32{},
		keys:     map[types.Key]uint32{},
		held:     make([]*bitset.BitSet, len(chunks)),
		diff:     make([]*bitset.BitSet, len(chunks)),
	}
	vg, kg := make([]uint32, 0, n), make([]uint32, 0, n) // per record in (chunk, slot) order
	var named []types.VersionID                          // version group → its version
	for _, st := range chunks {
		for slot, r := range st.Records {
			g, ok := ix.versions[r.CK.Version]
			if !ok {
				g = uint32(len(named))
				ix.versions[r.CK.Version] = g
				named = append(named, r.CK.Version)
			}
			vg = append(vg, g)
			if slot > 0 && r.CK.Key == st.Records[slot-1].CK.Key { // a chunk's records are in key order
				kg = append(kg, kg[len(kg)-1])
				continue
			}
			k, ok := ix.keys[r.CK.Key]
			if !ok {
				k = uint32(len(ix.keys))
				ix.keys[r.CK.Key] = k
			}
			kg = append(kg, k)
		}
	}
	var vnext, knext []uint32
	ix.createdStart, vnext = starts(vg, len(ix.versions))
	ix.recordsStart, knext = starts(kg, len(ix.keys))
	ix.created, ix.createdKey = make([]Loc, n), make([]uint32, n)
	i := 0
	for cid, st := range chunks {
		for slot := range st.Records {
			at := vnext[vg[i]]
			ix.created[at], ix.createdKey[at] = Loc{Chunk: ID(cid), Slot: uint32(slot)}, kg[i]
			vnext[vg[i]]++
			i++
		}
	}
	// Versions newest first fill each key's group newest first.
	newest := make([]uint32, len(named))
	for g := range newest {
		newest[g] = uint32(g)
	}
	slices.SortFunc(newest, func(a, b uint32) int { return cmp.Compare(named[b], named[a]) })
	// A version's records of one key follow each other in the key's group,
	// lowest chunk first: a second one is a copy (filled[k] is 1 + the
	// version group last filled into key group k).
	ix.records, ix.recordAt, ix.later = make([]Loc, n), make([]uint32, n), bitset.New(n)
	filled := make([]uint32, len(ix.keys))
	for _, g := range newest {
		for at := ix.createdStart[g]; at < ix.createdStart[g+1]; at++ {
			k := ix.createdKey[at]
			if filled[k] == g+1 {
				loc := ix.created[at]
				ck := chunks[loc.Chunk].Records[loc.Slot].CK
				if ix.copies == nil {
					ix.copies, ix.copied = map[types.CompositeKey][]Loc{}, map[ID]*bitset.BitSet{}
				}
				if ix.copies[ck] == nil {
					ix.copies[ck] = []Loc{ix.records[knext[k]-1]}
					ix.markCopied(ix.records[knext[k]-1], chunks)
				}
				ix.copies[ck] = append(ix.copies[ck], loc)
				ix.markCopied(loc, chunks)
				ix.later.Set(at)
			}
			filled[k] = g + 1
			ix.records[knext[k]], ix.recordAt[at] = ix.created[at], knext[k]
			knext[k]++
		}
	}
	return ix
}

// markCopied notes loc as a slot of a composite key in more than one chunk.
func (ix *Implied) markCopied(loc Loc, chunks []Stored) {
	if ix.copied[loc.Chunk] == nil {
		ix.copied[loc.Chunk] = bitset.New(len(chunks[loc.Chunk].Records))
	}
	ix.copied[loc.Chunk].Set(loc.Slot)
}

// Copies returns the slots of composite key ck in each chunk that holds it,
// its creation first, when there are more than one; nil otherwise.
func (ix *Implied) Copies(ck types.CompositeKey) []Loc { return ix.copies[ck] }

// IsCopy reports whether the record at loc sits in more than one chunk.
func (ix *Implied) IsCopy(loc Loc) bool {
	bits := ix.copied[loc.Chunk]
	return bits != nil && bits.Contains(loc.Slot)
}

// starts counts the members of each of n groups, of[i] being member i's, and
// returns where each group begins among them all — n+1 offsets, the last the
// total — and a copy of the first n to fill them from.
func starts(of []uint32, n int) (start, next []uint32) {
	start = make([]uint32, n+1)
	for _, g := range of {
		start[g+1]++
	}
	for g := range n {
		start[g+1] += start[g]
	}
	return start, slices.Clone(start[:n])
}

// Or adds to diffs — version v's, as a placement record states them, ascending
// by chunk, each over its chunk's slots — the slots composite keys imply, and
// returns v's whole diffs, ascending by chunk: the records whose composite keys
// name v, at their creation, and, for each of their keys, the record of it
// parent, v's tree parent, holds in l — the newest one naming a version before
// v, at the copy parent holds, as a version holds one record of a key and only
// records of its ancestors, which precede it. A slot both state is stated once,
// so diffs that already hold every implied slot — a record of format v10 or
// before — come back as they are. l must hold parent's bitmaps; a chunk that
// holds a record naming v but is not open in l is types.ErrCorrupt. Or may
// change the bitmaps of diffs in place.
func (ix *Implied) Or(l *Layout, v, parent types.VersionID, diffs []Slots) ([]Slots, error) {
	g, ok := ix.versions[v]
	if !ok {
		return diffs, nil
	}
	span := l.spans[parent] // the chunks parent holds records of
	touched := make([]ID, 0, len(diffs))
	defer func() {
		for _, cid := range span {
			ix.held[cid] = nil
		}
		for _, cid := range touched {
			ix.diff[cid] = nil
		}
	}()
	for _, cid := range span {
		ix.held[cid] = l.maps[cid].SlotsOf(parent)
	}
	for _, d := range diffs {
		if int(d.Chunk) >= l.NumChunks() {
			return nil, fmt.Errorf("%w: version %d placed in chunk %d of %d", types.ErrCorrupt, v, d.Chunk, l.NumChunks())
		}
		if ix.diff[d.Chunk] != nil {
			ix.diff[d.Chunk].Or(d.Bits)
			continue
		}
		ix.diff[d.Chunk] = d.Bits
		touched = append(touched, d.Chunk)
	}
	set := func(loc Loc) {
		if ix.diff[loc.Chunk] == nil {
			ix.diff[loc.Chunk] = bitset.New(l.maps[loc.Chunk].NumSlots)
			touched = append(touched, loc.Chunk)
		}
		ix.diff[loc.Chunk].Set(loc.Slot)
	}
	for i := ix.createdStart[g]; i < ix.createdStart[g+1]; i++ {
		if ix.later.Contains(i) {
			continue // a copy: v created the record at its first
		}
		loc, k := ix.created[i], ix.createdKey[i]
		if int(loc.Chunk) >= l.NumChunks() {
			return nil, fmt.Errorf("%w: chunk %d holds a record of version %d, and %d chunks are open", types.ErrCorrupt, loc.Chunk, v, l.NumChunks())
		}
		set(loc)
		// The records of k after this one name versions before v, newest
		// first.
		for _, old := range ix.records[ix.recordAt[i]+1 : ix.recordsStart[k+1]] {
			if held := ix.held[old.Chunk]; held != nil && held.Contains(old.Slot) {
				set(old)
				break
			}
		}
	}
	slices.Sort(touched)
	whole := make([]Slots, len(touched))
	for j, cid := range touched {
		whole[j] = Slots{cid, ix.diff[cid]}
	}
	return whole, nil
}
