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
// name and by their key. Every Loc it holds is the position of a record in
// the chunks it was built over, and nothing in it is sized by a count the
// chunks' bytes claim. Not safe for concurrent use: Or keeps scratch in it.
type Implied struct {
	versions map[types.VersionID]uint32 // version → its group of created
	keys     map[types.Key]uint32       // key → its group of records
	// created holds, per version group, the slots of the records whose
	// composite keys name the version, in ascending (chunk, slot) order, and
	// at the same index createdKey their key groups and recordAt where records
	// holds them; records holds, per key group, the slots of the key's
	// records, newest version first. Group g of either is
	// [start[g], start[g+1]) of it.
	createdStart, recordsStart []uint32
	created, records           []Loc
	createdKey, recordAt       []uint32
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
	ix.records, ix.recordAt = make([]Loc, n), make([]uint32, n)
	for _, g := range newest {
		for at := ix.createdStart[g]; at < ix.createdStart[g+1]; at++ {
			k := ix.createdKey[at]
			ix.records[knext[k]], ix.recordAt[at] = ix.created[at], knext[k]
			knext[k]++
		}
	}
	return ix
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

// Or adds to diffs — version v's, as a placement record states them,
// ascending by chunk, each over its chunk's slots — the slots composite keys
// imply, and returns v's whole diffs, ascending by chunk: the records whose
// composite keys name v and, for each of their keys, the record of it parent,
// v's tree parent, holds in l — the newest one naming a version before v, as
// a version holds one record of a key and only records of its ancestors,
// which precede it. A slot both state is stated once, so diffs that already
// hold every implied slot — a record of format v10 or before — come back as
// they are. l must hold parent's bitmaps; a chunk that holds a record naming
// v but is not open in l is types.ErrCorrupt. Or may change the bitmaps of
// diffs in place.
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
