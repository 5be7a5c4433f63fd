package chunk

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"rstore/internal/codec"
	"rstore/internal/types"
)

// A segment holds a few hundred records of one collection in key order, and
// such records repeat their structure — field names, punctuation, the key's
// prefix — at the same offsets. So a segment keeps the representative value
// of its first item raw, as its anchor, and states every other representative
// as a run list against it:
//
//	runs := (copy:uvarint  lit:uvarint  lit-bytes)*
//
// "the next copy bytes are the anchor's at the same offset, then lit bytes
// follow". The value's length is the sum of the runs'. Only positional
// redundancy is taken: a value whose layout shifts against the anchor is
// literals from the shift on. There is no chain and no state — a value needs
// the anchor and its own run list, nothing else of the segment.

// minCopy is the shortest match a literal run ends for: a copy costs two
// varints, so shorter ones save nothing.
const minCopy = 4

// codeRuns appends to dst the run list that rebuilds value from anchor, and
// reports whether the list came out shorter than value; when it did not, what
// was appended is unfinished and the caller stores value raw.
func codeRuns(dst, anchor, value []byte) (runs []byte, shorter bool) {
	base := len(dst)
	common := min(len(anchor), len(value)) // past it there is nothing to copy
	for pos := 0; pos < len(value); {      // pos ≤ common: a literal ends inside it or at value's end
		n := matchLen(anchor[pos:common], value[pos:common])
		pos += n
		lit := literalLen(anchor[pos:common], value[pos:])
		dst = codec.PutUvarint(dst, uint64(n))
		dst = codec.PutUvarint(dst, uint64(lit))
		dst = append(dst, value[pos:pos+lit]...)
		pos += lit
		if len(dst)-base >= len(value) {
			return dst, false
		}
	}
	return dst, len(dst)-base < len(value)
}

// matchLen returns how many leading bytes a and b share.
func matchLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// literalLen returns how many leading bytes of v stand before the first place
// where a and v agree in minCopy bytes at the same offset — all of v when
// there is none; a is no longer than v. Eight bytes of which none agree hold
// no such place and are crossed at once; otherwise a window of minCopy that
// disagrees in its j-th byte rules out every start up to j.
func literalLen(a, v []byte) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for q := 0; q+minCopy <= len(a); {
		var x uint32
		if q+8 <= len(a) {
			x8 := binary.LittleEndian.Uint64(a[q:]) ^ binary.LittleEndian.Uint64(v[q:])
			if (x8-ones)&^x8&highs == 0 { // no zero byte in x8
				q += 8
				continue
			}
			x = uint32(x8)
		} else {
			x = binary.LittleEndian.Uint32(a[q:]) ^ binary.LittleEndian.Uint32(v[q:])
		}
		if x == 0 {
			return q
		}
		q += (bits.Len32(x) + 7) / 8
	}
	return len(v)
}

// decodeRuns rebuilds the value a run list states against anchor, as a slice
// of its own, provided it is no longer than budget. It is ErrCorrupt for a
// copy to reach past the anchor's end, for a literal to reach past the
// list's, and for the list to end inside a run.
func decodeRuns(anchor, runs []byte, budget uint64) ([]byte, error) {
	// Checked and sized first, so the value is allocated once, exactly, and
	// the second pass reads nothing unchecked.
	size := 0
	for rest := runs; len(rest) > 0; {
		n, lit, head := runHead(rest)
		if head == 0 {
			return nil, fmt.Errorf("%w: run list ends inside a run", types.ErrCorrupt)
		}
		if n > 0 && (size > len(anchor) || n > uint64(len(anchor)-size)) {
			return nil, fmt.Errorf("%w: run copies %d bytes at offset %d of an anchor of %d", types.ErrCorrupt, n, size, len(anchor))
		}
		if lit > uint64(len(rest)-head) {
			return nil, fmt.Errorf("%w: run of %d literal bytes in a list with %d left", types.ErrCorrupt, lit, len(rest)-head)
		}
		size += int(n) + int(lit)
		rest = rest[head+int(lit):]
	}
	if uint64(size) > budget {
		return nil, fmt.Errorf("%w: run list states a value of %d bytes, past what the segment may inflate to", types.ErrCorrupt, size)
	}
	// Copies are at the same offset in both: the anchor goes in whole, in one
	// move, and the literals are laid over it.
	value := make([]byte, size)
	copy(value, anchor)
	for pos, rest := 0, runs; len(rest) > 0; {
		n, lit, head := runHead(rest)
		pos += int(n)
		copy(value[pos:], rest[head:head+int(lit)])
		pos += int(lit)
		rest = rest[head+int(lit):]
	}
	return value, nil
}

// runHead reads a run's two lengths and how many bytes they take: 0 when runs
// ends before both are read. Lengths below 128, nearly all of them, are one
// byte each.
func runHead(runs []byte) (n, lit uint64, head int) {
	if len(runs) >= 2 && runs[0]|runs[1] < 0x80 {
		return uint64(runs[0]), uint64(runs[1]), 2
	}
	n, a := binary.Uvarint(runs)
	if a <= 0 {
		return 0, 0, 0
	}
	lit, b := binary.Uvarint(runs[a:])
	if b <= 0 {
		return 0, 0, 0
	}
	return n, lit, a + b
}
