// Package bitset implements dense uint64-word bitmaps used by chunk maps
// (per-version membership bitmaps over a chunk's record slots, paper §2.4)
// and by the partitioners' set algebra over record ids.
package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"rstore/internal/codec"
	"rstore/internal/types"
)

const wordBits = 64

// BitSet is a growable bitmap over uint32 positions. The zero value is an
// empty set ready to use.
type BitSet struct {
	words []uint64
}

// New returns a bitset pre-sized to hold positions [0, n).
func New(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice builds a bitset from a list of positions, pre-sized to the
// largest position.
func FromSlice(ids []uint32) *BitSet {
	max := uint32(0)
	for _, id := range ids {
		if id > max {
			max = id
		}
	}
	b := New(int(max) + 1)
	for _, id := range ids {
		b.Set(id)
	}
	return b
}

// grow extends the word slice to cover the given word index, doubling to
// amortize repeated ascending Sets.
func (b *BitSet) grow(word int) {
	if word < len(b.words) {
		return
	}
	newLen := word + 1
	if d := 2 * len(b.words); d > newLen {
		newLen = d
	}
	nw := make([]uint64, newLen)
	copy(nw, b.words)
	b.words = nw
}

// Set adds position i to the set.
func (b *BitSet) Set(i uint32) {
	w := int(i / wordBits)
	b.grow(w)
	b.words[w] |= 1 << (i % wordBits)
}

// Clear removes position i from the set.
func (b *BitSet) Clear(i uint32) {
	w := int(i / wordBits)
	if w < len(b.words) {
		b.words[w] &^= 1 << (i % wordBits)
	}
}

// Contains reports whether position i is in the set.
func (b *BitSet) Contains(i uint32) bool {
	w := int(i / wordBits)
	return w < len(b.words) && b.words[w]&(1<<(i%wordBits)) != 0
}

// Count returns the number of set positions.
func (b *BitSet) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Empty reports whether no position is set.
func (b *BitSet) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (b *BitSet) Clone() *BitSet {
	nw := make([]uint64, len(b.words))
	copy(nw, b.words)
	return &BitSet{words: nw}
}

// Or sets b = b ∪ other.
func (b *BitSet) Or(other *BitSet) {
	b.grow(len(other.words) - 1)
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// And sets b = b ∩ other.
func (b *BitSet) And(other *BitSet) {
	for i := range b.words {
		if i < len(other.words) {
			b.words[i] &= other.words[i]
		} else {
			b.words[i] = 0
		}
	}
}

// Xor sets b = b △ other, the positions in exactly one of the two.
func (b *BitSet) Xor(other *BitSet) {
	b.grow(len(other.words) - 1)
	for i, w := range other.words {
		b.words[i] ^= w
	}
}

// Equal reports whether two bitsets contain the same positions.
func (b *BitSet) Equal(other *BitSet) bool {
	long, short := b.words, other.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if long[i] != w {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set position in increasing order. It stops early
// if fn returns false.
func (b *BitSet) ForEach(fn func(uint32) bool) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(uint32(wi*wordBits + tz)) {
				return
			}
			w &^= 1 << tz
		}
	}
}

// Slice returns the set positions in increasing order.
func (b *BitSet) Slice() []uint32 {
	out := make([]uint32, 0, b.Count())
	b.ForEach(func(i uint32) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders a small bitset for debugging.
func (b *BitSet) String() string {
	return fmt.Sprintf("BitSet%v", b.Slice())
}

// AppendBinary serializes the bitset compactly, in the shorter of two forms: a
// posting list of the set positions (sparse) or the words up to the last
// non-zero one (dense). A one-byte tag selects the representation.
func (b *BitSet) AppendBinary(buf []byte) []byte {
	// Trailing zero words carry no information.
	last := len(b.words)
	for last > 0 && b.words[last-1] == 0 {
		last--
	}
	denseSize := 8 * last
	// A posting takes a byte at least, so a set of more positions than the
	// dense form has bytes is not worth encoding twice to compare.
	if b.Count() < denseSize {
		start := len(buf)
		buf = append(buf, 1) // sparse
		buf = codec.PutPostingList(buf, b.Slice())
		if len(buf)-start-1 < denseSize {
			return buf
		}
		buf = buf[:start]
	}
	buf = append(buf, 0) // dense
	buf = codec.PutUvarint(buf, uint64(last))
	for _, w := range b.words[:last] {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// DecodeBinary consumes a bitset over positions [0, n) serialized by
// AppendBinary and returns the remaining buffer. An encoding that names a
// position at or past n is corrupt, and is refused before anything is sized
// from it: what a decode allocates is bounded by n and len(buf).
func DecodeBinary(buf []byte, n int) (*BitSet, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, fmt.Errorf("%w: empty bitset encoding", types.ErrCorrupt)
	}
	tag := buf[0]
	buf = buf[1:]
	switch tag {
	case 0: // dense
		nw, rest, err := codec.Uvarint(buf)
		if err != nil {
			return nil, nil, err
		}
		if nw > uint64(len(rest))/8 {
			return nil, nil, fmt.Errorf("%w: short dense bitset", types.ErrCorrupt)
		}
		words := make([]uint64, nw)
		for i := range words {
			var w uint64
			for j := 0; j < 8; j++ {
				w |= uint64(rest[8*i+j]) << (8 * j)
			}
			words[i] = w
		}
		// The encoder drops trailing zero words, so the last one says how far
		// the set reaches.
		if nw > 0 && int(nw-1)*wordBits+bits.Len64(words[nw-1]) > n {
			return nil, nil, fmt.Errorf("%w: dense bitset reaches past %d positions", types.ErrCorrupt, n)
		}
		return &BitSet{words: words}, rest[8*nw:], nil
	case 1: // sparse
		ids, rest, err := codec.PostingList(buf)
		if err != nil {
			return nil, nil, err
		}
		if len(ids) > 0 && uint64(ids[len(ids)-1]) >= uint64(n) { // ascending: the last is the largest
			return nil, nil, fmt.Errorf("%w: sparse bitset names position %d of %d", types.ErrCorrupt, ids[len(ids)-1], n)
		}
		return FromSlice(ids), rest, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown bitset tag %d", types.ErrCorrupt, tag)
	}
}
