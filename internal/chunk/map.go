package chunk

import (
	"fmt"
	"math"
	"sort"

	"rstore/internal/bitset"
	"rstore/internal/codec"
	"rstore/internal/types"
)

// Map is the chunk map M_Ci of paper §2.4: for one chunk, it records which
// of the chunk's record slots belong to each version. A slot is a record's
// position in the chunk's flattened layout (items in order, members within
// each item in order). In aggregate the chunk maps carry exactly the
// information of the full key×version×chunk matrix, exploiting its sparsity
// with per-version bitmaps. A Layout holds whole bitmaps; the Maps it hands
// out to be persisted (TakeDelta) hold, under the same shape, each version's
// difference from its tree parent less the slots composite keys imply
// (Implied).
type Map struct {
	// NumSlots is the number of record slots in the chunk.
	NumSlots int
	// Versions maps a version id to the bitmap of slots that belong to it.
	Versions map[types.VersionID]*bitset.BitSet
}

// NewMap returns an empty map for a chunk with the given slot count.
func NewMap(numSlots int) *Map {
	return &Map{NumSlots: numSlots, Versions: make(map[types.VersionID]*bitset.BitSet)}
}

// SlotsOf returns the slots belonging to version v (nil if the version has
// no records in this chunk). The bitmap is shared; callers must not mutate.
func (m *Map) SlotsOf(v types.VersionID) *bitset.BitSet { return m.Versions[v] }

// AppendBinary serializes the map: slot count, version count, then sorted
// (version, bitmap) pairs, each bitmap in the shorter of its dense and sparse
// encodings.
func (m *Map) AppendBinary(buf []byte) []byte {
	buf = codec.PutUvarint(buf, uint64(m.NumSlots))
	buf = codec.PutUvarint(buf, uint64(len(m.Versions)))
	vids := make([]types.VersionID, 0, len(m.Versions))
	for v := range m.Versions {
		vids = append(vids, v)
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	for _, v := range vids {
		buf = codec.PutUvarint(buf, uint64(v))
		buf = m.Versions[v].AppendBinary(buf)
	}
	return buf
}

// DecodeMap reverses AppendBinary for a chunk whose payload decoded to
// numSlots records. A map that counts another number of slots, or a bitmap
// that names a slot past them, is corrupt: every slot a decoded map names
// indexes the chunk's records. So is a version id wider than a VersionID, or
// one not above the version before it: AppendBinary writes them ascending,
// each once.
func DecodeMap(buf []byte, numSlots int) (*Map, error) {
	slots, rest, err := codec.Uvarint(buf)
	if err != nil {
		return nil, err
	}
	if slots != uint64(numSlots) {
		return nil, fmt.Errorf("%w: chunk map of %d slots for a chunk of %d records", types.ErrCorrupt, slots, numSlots)
	}
	n, rest, err := codec.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	m := NewMap(numSlots)
	var prev uint64
	for i := uint64(0); i < n; i++ {
		var v uint64
		v, rest, err = codec.Uvarint(rest)
		if err != nil {
			return nil, err
		}
		if v > math.MaxUint32 || (i > 0 && v <= prev) {
			return nil, fmt.Errorf("%w: chunk map version %d is wider than 32 bits or not above the one before it", types.ErrCorrupt, v)
		}
		prev = v
		var b *bitset.BitSet
		b, rest, err = bitset.DecodeBinary(rest, numSlots)
		if err != nil {
			return nil, err
		}
		m.Versions[types.VersionID(v)] = b
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after chunk map", types.ErrCorrupt, len(rest))
	}
	return m, nil
}
