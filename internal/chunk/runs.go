package chunk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"rstore/internal/codec"
	"rstore/internal/types"
)

// A segment holds a few hundred records of one collection in key order, and
// such records repeat their structure — field names, punctuation, the key's
// prefix — at the same offsets. So a segment keeps the representative value
// of its first item raw, as its anchor, and states every other representative
// as a run list against it:
//
//	runs := heads:bytes  literals
//	heads := (copy:uvarint  lit:uvarint)*
//
// "the next copy bytes are the anchor's at the same offset, then lit literal
// symbols follow". The value's length is the sum of the runs'. Only positional
// redundancy is taken: a value whose layout shifts against the anchor is
// literals from the shift on. There is no chain and no state — a value needs
// the segment's code, the anchor and its own run list, nothing else of the
// segment.
//
// Most values of a segment spell the same heads, so a segment may state one
// list of them once, in its code, as its template: a run list whose heads are
// empty takes the template's. (A value of no bytes is always stored raw, so
// an empty list states nothing else.) A segment whose code says so frames
// such a value by an item head of its own instead (segment.go): then it
// writes neither the empty heads nor the body's length, since its literals
// take the bits the template's runs count.
//
// A value that names itself spells its own key where the anchor spells the
// anchor's: §5.1's documents open with their "id". So a segment whose anchor
// spells the key of its item, one of minCopy bytes or more, may say so in its
// code (keyed), and then every later representative whose key has that width
// is coded against the anchor with its own key written over the anchor's, at
// the first offset the anchor spells it (keyedAnchor): a key is stated once,
// in the item's framing, and its value copies it. The decoder has read the
// item's key before its value, so the rule costs no byte.
//
// The literals of all of a list's runs are one bit string, written once per
// value after the heads, in the code the segment's head states (litCode): a
// symbol is width bits, least significant bit first, from the low bit of a
// byte up and on into the next byte; the bits left in the string's last byte
// are zero.

// litCode is a segment's code: the width in bits of a literal symbol, the
// bytes that have one, the template, if the segment has one, how its items are
// framed, and whether its later values are coded against the anchor with their
// own keys over the anchor's. Below width 8, code i stands for table[i], and
// the top code, 2^width − 1, is the escape: the eight bits after it are the
// byte itself, one the table does not hold. At width 8 a symbol is the byte
// and there is neither table nor escape. The kind byte names the coder: its
// low four bits are the width, 16 more says a template follows the table, and
// 32 more, set only beside 16, says the items' framing leaves out what the
// code implies (segment.go) and that a key width follows the template — every
// item's key has that many bytes, 0 for keys of several widths; 64 more,
// beside any of them, says the segment is keyed; a segment coded some other
// way is another value of it.
//
//	code := kind:byte  table:byte{2^width − 1}  template:bytes?  keyWidth:uvarint?     table ascending; none at width 8
//	kind := keyed<<6 | implied<<5 | templated<<4 | width
type litCode struct {
	width    uint
	table    []byte
	template []byte // run heads, as codeRuns makes them; nil: none

	implied  bool
	keyWidth int // of every key, where implied; 0: keys of several widths
	tmplLen  int // the bytes of a template user's literals none of which escapes: ⌈Σlit·width/8⌉ of the template

	keyed bool // the anchor spells its item's key, and later values' keys are spliced over it
}

// templated, implied and keyed are the kind byte's bits for a code with a
// template, for one whose items leave out what it implies, and for one whose
// values are coded against the anchor with their own keys.
const (
	templated = 1 << 4
	implied   = 1 << 5
	keyed     = 1 << 6
)

// maxCodeLen is the most bytes a code without a template takes in a segment:
// width 7's. A template is paid for by the heads it spares its users.
const maxCodeLen = 1 + 127

// litCounts counts literal bytes, in four tables that a byte takes turns in so
// that a run of one byte does not wait on one counter; a byte's count is the
// sum of its four.
type litCounts [4][256]uint32

// add counts the bytes of p.
func (h *litCounts) add(p []byte) {
	for ; len(p) >= 8; p = p[8:] {
		x := binary.LittleEndian.Uint64(p)
		h[0][byte(x)]++
		h[1][byte(x>>8)]++
		h[2][byte(x>>16)]++
		h[3][byte(x>>24)]++
		h[0][byte(x>>32)]++
		h[1][byte(x>>40)]++
		h[2][byte(x>>48)]++
		h[3][byte(x>>56)]++
	}
	for _, b := range p {
		h[0][b]++
	}
}

// chooseCode picks the code that states literals of the given byte counts in
// the fewest bits, table included: for each width the 2^width − 1 most frequent
// bytes get codes and every other one costs the escape besides. Width 8 takes
// ties, so a segment without literals pays the width byte and nothing else.
func chooseCode(h *litCounts) litCode {
	// Most frequent first, lowest byte first among equals: the bytes that
	// occur, sorted, then those that do not — they fill a table the literals
	// do not, so a table's length is its width's alone.
	var order [256]uint64 // ^count, byte
	total, occur, absent := uint64(0), 0, len(order)
	for b := len(order) - 1; b >= 0; b-- {
		if n := h[0][b] + h[1][b] + h[2][b] + h[3][b]; n > 0 {
			order[occur] = uint64(^n)<<8 | uint64(b)
			total += uint64(n)
			occur++
		} else {
			absent--
			order[absent] = uint64(^n)<<8 | uint64(b)
		}
	}
	slices.Sort(order[:occur])
	width, least := uint(8), 8*total
	coded, n := uint64(0), 0 // the literals the n most frequent bytes account for
	for w := uint(1); w < 8; w++ {
		for ; n < 1<<w-1; n++ {
			coded += uint64(^uint32(order[n] >> 8))
		}
		if cost := uint64(w)*total + 8*(total-coded) + 8*uint64(n); cost < least {
			width, least = w, cost
		}
	}
	if width == 8 {
		return litCode{width: 8}
	}
	table := make([]byte, 1<<width-1)
	for i := range table {
		table[i] = byte(order[i])
	}
	slices.Sort(table)
	return litCode{width: width, table: table}
}

// parseCode reads the code a segment begins with. It is ErrCorrupt for the
// kind to be other than a width of 1…8, templated or not, implied or not but
// implied only where templated, keyed or not, for the table to be cut short,
// for its bytes not to ascend — so none is there twice and a table is spelled
// one way — for a template to be cut short, empty, to end inside a run or to
// count more literals than the segment has bits, and for a key width to be cut
// short or wider than the segment.
func parseCode(buf []byte) (c litCode, rest []byte, err error) {
	const flags = templated | implied | keyed
	if len(buf) == 0 || buf[0]&^flags < 1 || buf[0]&^flags > 8 || buf[0]&(templated|implied) == implied {
		return c, nil, fmt.Errorf("%w: segment without a literal width of 1 to 8", types.ErrCorrupt)
	}
	c.width, c.keyed = uint(buf[0]&^flags), buf[0]&keyed != 0
	n := 0
	if c.width < 8 {
		n = 1<<c.width - 1
	}
	if len(buf) < 1+n {
		return c, nil, fmt.Errorf("%w: segment ends inside its table of %d literal bytes", types.ErrCorrupt, n)
	}
	c.table = buf[1 : 1+n]
	for i := 1; i < n; i++ {
		if c.table[i-1] >= c.table[i] {
			return c, nil, fmt.Errorf("%w: segment's literal table does not ascend at entry %d", types.ErrCorrupt, i)
		}
	}
	rest = buf[1+n:]
	if buf[0]&templated != 0 {
		var template []byte
		if template, rest, err = codec.Bytes(rest); err != nil || len(template) == 0 {
			return c, nil, fmt.Errorf("%w: segment's template is cut short or empty", types.ErrCorrupt)
		}
		if !c.withTemplate(template, uint64(8*len(buf))) {
			return c, nil, fmt.Errorf("%w: segment's template ends inside a run or counts more literals than the segment has bits", types.ErrCorrupt)
		}
	}
	if buf[0]&implied != 0 {
		var w uint64
		if w, rest, err = codec.Uvarint(rest); err != nil || w > uint64(len(rest)) {
			return c, nil, fmt.Errorf("%w: segment's key width is cut short or wider than the segment", types.ErrCorrupt)
		}
		c.implied, c.keyWidth = true, int(w)
	}
	return c, rest, nil
}

// withTemplate makes heads c's template, and tmplLen what a user's literals
// take where none escapes. It reports false, and changes nothing, where the
// heads end inside a run or count more than limit literals.
func (c *litCode) withTemplate(heads []byte, limit uint64) bool {
	lits := uint64(0)
	for rest := heads; len(rest) > 0; {
		_, lit, head := runHead(rest)
		if lits += lit; head == 0 || lit > limit || lits > limit {
			return false
		}
		rest = rest[head:]
	}
	c.template, c.tmplLen = heads, int((lits*uint64(c.width)+7)/8)
	return true
}

// appendTo appends the code as a segment states it.
func (c litCode) appendTo(dst []byte) []byte {
	kind := byte(c.width)
	if c.template != nil {
		kind |= templated
	}
	if c.implied {
		kind |= implied
	}
	if c.keyed {
		kind |= keyed
	}
	dst = append(append(dst, kind), c.table...)
	if c.template != nil {
		dst = codec.PutBytes(dst, c.template)
	}
	if c.implied {
		dst = codec.PutUvarint(dst, uint64(c.keyWidth))
	}
	return dst
}

// packTable is a code laid out by byte: entry [k][b] is b's code k widths up,
// so the codes of four bytes in a row join by OR. A byte the code's table does
// not hold has escaped set in all four, and in [0] the escape with the byte
// above it.
type packTable [4][256]uint32

const escaped = 1 << 31

// fill lays code c, of a width below 8, out in t. (At width 8 appendLits
// copies bytes and reads no table.)
func (t *packTable) fill(c litCode) {
	esc := uint32(1)<<c.width - 1
	for b := range t[0] {
		t[0][b] = escaped | esc | uint32(b)<<c.width
		t[1][b], t[2][b], t[3][b] = escaped, escaped, escaped
	}
	for i, b := range c.table {
		for k := range t {
			t[k][b] = uint32(i) << (uint(k) * c.width)
		}
	}
}

// holds reports whether the code t lays out has a code of its own for every
// byte h counts: at width 8, where t is left zero, it has.
func (t *packTable) holds(h *litCounts) bool {
	for b := range t[0] {
		if t[0][b]&escaped != 0 && h[0][b]|h[1][b]|h[2][b]|h[3][b] != 0 {
			return false
		}
	}
	return true
}

// unpackTable is a code laid out by symbol: the byte each code stands for,
// indexed without a bounds check, and the bytes that have one, a bit each.
type unpackTable struct {
	sym  [128]byte
	held [4]uint64
}

// fill lays code c out in t, which is zero. (At width 8 decodeRuns copies
// bytes and reads no table.)
func (t *unpackTable) fill(c litCode) {
	for i, b := range c.table {
		t.sym[i] = b
		t.held[b>>6] |= 1 << (b & 63)
	}
}

// minCopy is the shortest match a literal run ends for: a copy costs two
// varints, so shorter ones save nothing — but at the value's end, where the
// copy is the template's and its users pay nothing for it.
const minCopy = 4

// A keyedAnchor is a segment's anchor as its later values are coded against
// it: where the segment is keyed, with a value's own key over the anchor's
// where the two have one width. The encoder builds those bytes in one buffer
// of the segment's whose key bytes alone each such value overwrites; the
// decoder writes the key over the value it rebuilds once the anchor is in.
type keyedAnchor struct {
	anchor []byte
	at, n  int    // where the anchor spells its key and the key's width; at < 0: not keyed
	buf    []byte // against's: empty until it first splices
}

// A splice is what a keyed segment writes over its anchor for one value: the
// value's own key at the offset the anchor spells its own. The zero splice
// writes nothing.
type splice struct {
	at  int
	key []byte
}

// keyOffset is where anchor first spells key, of minCopy bytes or more: the
// offset a keyed segment splices its later keys at. −1 where there is none.
func keyOffset(anchor, key []byte) int {
	if len(key) < minCopy {
		return -1
	}
	return bytes.Index(anchor, key)
}

// splice returns what a representative of key writes over the anchor.
func (k *keyedAnchor) splice(key []byte) splice {
	if k.at < 0 || len(key) != k.n {
		return splice{}
	}
	return splice{k.at, key}
}

// against returns the bytes a representative of key is coded against. They
// are k's until it is next asked.
func (k *keyedAnchor) against(key []byte) []byte {
	s := k.splice(key)
	if s.key == nil {
		return k.anchor
	}
	if len(k.buf) == 0 { // a keyed anchor spells a key, so it is not empty
		k.buf = append(k.buf, k.anchor...)
	}
	copy(k.buf[s.at:], s.key)
	return k.buf
}

// codeRuns appends to heads the run heads that rebuild value from anchor — a
// value's own list, which chooseTemplate weighs against the segment's others —
// counts the bytes of their literals in hist, and returns how many of value's
// bytes they copy. Where the last literal run reaches the value's end inside
// the anchor, the bytes it ends with that are the anchor's, fewer than
// minCopy, are a last copy of their own, of tail bytes: a template that ends
// so spares its users those literals, and a value that keeps its own list
// gives them back (untail), since two bytes of heads cost more than the
// three symbols at most they spare.
func codeRuns(heads, anchor, value []byte, hist *litCounts) (_ []byte, copied, tail int) {
	common := min(len(anchor), len(value)) // past it there is nothing to copy
	for pos := 0; pos < len(value); {      // pos ≤ common: a literal ends inside it or at value's end
		n := matchLen(anchor[pos:common], value[pos:common])
		pos += n
		lit := literalLen(anchor[pos:common], value[pos:])
		if pos+lit == common && common == len(value) {
			for tail < lit && value[common-1-tail] == anchor[common-1-tail] {
				tail++
			}
		}
		heads = codec.PutUvarint(heads, uint64(n))
		heads = codec.PutUvarint(heads, uint64(lit-tail))
		hist.add(value[pos : pos+lit-tail])
		if tail > 0 {
			heads = append(heads, byte(tail), 0)
		}
		pos += lit
		copied += n + tail
	}
	return heads, copied, tail
}

// untail appends to dst heads, a list codeRuns made whose last run copies the
// tail bytes value ends with, with those stated as the literals of the run
// before, and counts their bytes in hist.
func untail(dst, heads, value []byte, tail int, hist *litCounts) []byte {
	last := 0 // where the run before the tail's starts
	for at := 0; ; {
		_, _, head := runHead(heads[at:])
		if at+head == len(heads) {
			break
		}
		last, at = at, at+head
	}
	n, lit, _ := runHead(heads[last:])
	hist.add(value[len(value)-tail:])
	return codec.PutUvarint(codec.PutUvarint(append(dst, heads[:last]...), n), lit+uint64(tail))
}

// appendLits appends to dst the literals of heads' runs, which fit value, in
// code c, laid out by t: a run list once its heads are before them.
func (c litCode) appendLits(dst []byte, t *packTable, heads, value []byte) []byte {
	if c.width == 8 {
		for pos := 0; len(heads) > 0; {
			n, lit, head := runHead(heads)
			pos += int(n)
			dst = append(dst, value[pos:pos+int(lit)]...)
			pos += int(lit)
			heads = heads[head:]
		}
		return dst
	}
	// A symbol is 15 bits at most and the string is written up to eight bytes
	// at a time: grown once, indexed from there on.
	at := len(dst)
	dst = slices.Grow(dst, 2*len(value)+16)
	dst = dst[:cap(dst)]
	var acc uint64 // the bits not yet written, from bit 0 up
	var n uint     // how many they are: under 32 between symbols
	w := c.width
	for pos := 0; len(heads) > 0; {
		cp, lit, head := runHead(heads)
		pos += int(cp)
		lits := value[pos : pos+int(lit)]
		// Eight bytes of the table at once while none escapes: their codes
		// join before they meet acc, which gives up its whole bytes each time.
		for ; len(lits) >= 8 && n < 8; lits = lits[8:] {
			q0 := t[0][lits[0]] | t[1][lits[1]] | t[2][lits[2]] | t[3][lits[3]]
			q1 := t[0][lits[4]] | t[1][lits[5]] | t[2][lits[6]] | t[3][lits[7]]
			if (q0|q1)&escaped != 0 {
				break
			}
			acc |= (uint64(q0) | uint64(q1)<<(4*w&31)) << n
			n += 8 * w
			binary.LittleEndian.PutUint64(dst[at:], acc)
			at, acc, n = at+int(n>>3), acc>>(n&^7), n&7
		}
		for len(lits) > 0 {
			// Four bytes of the table at once, their codes joined before they
			// meet acc. Where one escapes, or at the end, two bytes or one,
			// with no branch on which of them escape: of text, many do.
			if len(lits) >= 4 {
				if q := t[0][lits[0]] | t[1][lits[1]] | t[2][lits[2]] | t[3][lits[3]]; q&escaped == 0 {
					acc |= uint64(q) << (n & 63)
					n += 4 * w
					lits = lits[4:]
					goto flush
				}
			}
			if len(lits) >= 2 {
				e0, e1 := t[0][lits[0]], t[0][lits[1]]
				n0 := w + uint(e0>>31)<<3
				acc |= (uint64(e0&^escaped) | uint64(e1&^escaped)<<(n0&15)) << (n & 63)
				n += n0 + w + uint(e1>>31)<<3
				lits = lits[2:]
			} else {
				e := t[0][lits[0]]
				acc |= uint64(e&^escaped) << (n & 63)
				n += w + uint(e>>31)<<3
				lits = lits[1:]
			}
		flush:
			if n >= 32 {
				binary.LittleEndian.PutUint32(dst[at:], uint32(acc))
				at, acc, n = at+4, acc>>32, n-32
			}
		}
		pos += int(lit)
		heads = heads[head:]
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(acc))
	return dst[:at+int(n+7)/8]
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

// decodeRuns rebuilds the value a run list in code c states against anchor
// with s written over it, as a slice of its own, provided it is no longer than
// budget; a list whose heads are empty takes the code's template. It is
// ErrCorrupt for the heads to reach past the list's end, for them to be empty
// where the code has no template, and for what rebuild refuses.
func (c litCode) decodeRuns(anchor []byte, s splice, runs []byte, budget uint64, t *unpackTable) ([]byte, error) {
	heads, lits, err := codec.Bytes(runs)
	if err != nil {
		return nil, fmt.Errorf("%w: run list ends inside its heads", types.ErrCorrupt)
	}
	if len(heads) == 0 {
		if c.template == nil {
			return nil, fmt.Errorf("%w: run list without heads in a segment without a template", types.ErrCorrupt)
		}
		heads = c.template
	}
	return c.rebuild(anchor, s, heads, lits, budget, t)
}

// rebuild rebuilds the value that heads and the literals lits, in code c,
// state against anchor with s written over it, as decodeRuns does. It is
// ErrCorrupt for the heads to end inside a run, for a copy to reach past the
// anchor's end, for a run to count more symbols than the literals have bits
// left for, for the literals to end inside an escape, to escape a byte the
// table holds, or to go on past the last symbol — by a byte, or by a bit that
// is set.
func (c litCode) rebuild(anchor []byte, s splice, heads, lits []byte, budget uint64, t *unpackTable) ([]byte, error) {
	// Checked and sized first, so the value is allocated once, exactly, and
	// from nothing the list does not pay for: a symbol takes width bits at least.
	size, room := 0, uint64(8*len(lits))/uint64(c.width)
	for rest := heads; len(rest) > 0; {
		n, lit, head := runHead(rest)
		if head == 0 {
			return nil, fmt.Errorf("%w: run list ends inside a run", types.ErrCorrupt)
		}
		if n > 0 && (size > len(anchor) || n > uint64(len(anchor)-size)) {
			return nil, fmt.Errorf("%w: run copies %d bytes at offset %d of an anchor of %d", types.ErrCorrupt, n, size, len(anchor))
		}
		if lit > room {
			return nil, fmt.Errorf("%w: run of %d literals of %d bits where %d fit", types.ErrCorrupt, lit, c.width, room)
		}
		room -= lit
		size += int(n) + int(lit)
		rest = rest[head:]
	}
	if uint64(size) > budget {
		return nil, fmt.Errorf("%w: run list states a value of %d bytes, past what the segment may inflate to", types.ErrCorrupt, size)
	}
	// Copies are at the same offset in both: the anchor goes in whole, in one
	// move, the splice over it, and the literals over both.
	value := make([]byte, size)
	copy(value, anchor)
	copy(value[min(s.at, size):], s.key)
	var used int // bits of lits the symbols took
	if c.width == 8 {
		for pos, rest := 0, heads; len(rest) > 0; {
			n, lit, head := runHead(rest)
			pos += int(n)
			copy(value[pos:pos+int(lit)], lits[used/8:])
			pos, used = pos+int(lit), used+8*int(lit)
			rest = rest[head:]
		}
	} else if used = c.unpack(value, t, heads, lits); used < 0 {
		return nil, fmt.Errorf("%w: run list escapes a byte its segment's table holds", types.ErrCorrupt)
	}
	if (used+7)/8 != len(lits) || (used%8 != 0 && lits[len(lits)-1]>>(used%8) != 0) {
		return nil, fmt.Errorf("%w: run list's literals take %d bits of %d bytes, or leave a set bit after them", types.ErrCorrupt, used, len(lits))
	}
	return value, nil
}

// unpack lays the literals of heads' runs, which decodeRuns checked, over
// value, and returns how many bits of lits they took: more than lits has when
// escapes ran past its end, which reads as zeros; −1 when one escaped a byte
// of the table.
func (c litCode) unpack(value []byte, t *unpackTable, heads, lits []byte) (used int) {
	sym, held := &t.sym, &t.held
	w, esc := c.width, uint64(1)<<c.width-1
	var acc uint64 // the next bits of lits, from bit 0 up; those past n are lits' too
	var n uint     // how many of them count as read from lits: 32 or more at a symbol
	at := 0        // the byte of lits acc's bit n is the low bit of
	stray := false
	for pos := 0; len(heads) > 0; {
		cp, lit, head := runHead(heads)
		pos += int(cp)
		out := value[pos : pos+int(lit)]
		// Eight symbols at once while none is the escape: a code and one make
		// bit w only of the escape.
		for len(out) >= 8 {
			if n < 56 {
				acc, n, at = refill(acc, n, at, lits)
			}
			c0, c1, c2, c3 := acc&esc, acc>>(w&7)&esc, acc>>(2*w&15)&esc, acc>>(3*w&31)&esc
			c4, c5, c6, c7 := acc>>(4*w&31)&esc, acc>>(5*w&63)&esc, acc>>(6*w&63)&esc, acc>>(7*w&63)&esc
			if ((c0+1)|(c1+1)|(c2+1)|(c3+1)|(c4+1)|(c5+1)|(c6+1)|(c7+1))>>(w&7) != 0 {
				break
			}
			binary.LittleEndian.PutUint64(out, uint64(sym[c0&127])|uint64(sym[c1&127])<<8|uint64(sym[c2&127])<<16|uint64(sym[c3&127])<<24|
				uint64(sym[c4&127])<<32|uint64(sym[c5&127])<<40|uint64(sym[c6&127])<<48|uint64(sym[c7&127])<<56)
			acc, n, out = acc>>(8*w&63), n-8*w, out[8:]
		}
		for len(out) > 0 {
			if n < 32 {
				acc, n, at = refill(acc, n, at, lits)
			}
			// Four symbols at once when none is the escape.
			if len(out) >= 4 {
				c0, c1, c2, c3 := acc&esc, acc>>(w&7)&esc, acc>>(2*w&15)&esc, acc>>(3*w&31)&esc
				if c0 != esc && c1 != esc && c2 != esc && c3 != esc {
					out[0], out[1], out[2], out[3] = sym[c0&127], sym[c1&127], sym[c2&127], sym[c3&127]
					acc, n, out = acc>>(4*w&31), n-4*w, out[4:]
					continue
				}
			}
			if code := acc & esc; code != esc {
				out[0] = sym[code&127]
				acc, n = acc>>(w&7), n-w
			} else {
				b := byte(acc >> (w & 7))
				acc, n = acc>>((w+8)&15), n-(w+8)
				stray = stray || held[b>>6]>>(b&63)&1 != 0
				out[0] = b
			}
			out = out[1:]
		}
		pos += int(lit)
		heads = heads[head:]
	}
	if stray {
		return -1
	}
	return 8*at - int(n)
}

// refill tops acc, whose low n bits are lits' up to byte at, up from lits:
// to 56 bits or more. Past lits' end it reads zeros.
func refill(acc uint64, n uint, at int, lits []byte) (uint64, uint, int) {
	if at+8 <= len(lits) {
		return acc | binary.LittleEndian.Uint64(lits[at:])<<(n&63), n | 56, at + int(63-n)>>3
	}
	for ; n <= 56; n, at = n+8, at+1 {
		if at < len(lits) {
			acc |= uint64(lits[at]) << n
		}
	}
	return acc, n, at
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
