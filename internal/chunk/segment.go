package chunk

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"rstore/internal/bdiff"
	"rstore/internal/bitset"
	"rstore/internal/codec"
	"rstore/internal/types"
)

// A chunk is the unit of placement — what the partitioner fills, what a
// version's span counts, what a chunk map describes. It is stored as a run of
// segments, the unit of transfer and decode: consecutive slots of the chunk,
// each a KVS value of its own, so a read fetches the segments holding the
// slots it returns and no others. (A segment is not a sub-chunk: §3.4's
// sub-chunk is an Item, and an Item never straddles two segments.)

// SegmentTarget is the size a segment is cut at: the segment ends with the
// item that brings its items' packed encodings (Item.EncodedLen, the bytes the
// partitioner charges) to this many. Chosen from a 16/64/256 KiB measurement
// of point and full-version reads on the benchmark's stack (CHANGES.md, PR 22).
const SegmentTarget = 64 << 10

// maxInflate bounds what a segment's coded values — run lists against the
// anchor, delta members of a sub-chunk — may decode to, in multiples of the
// segment's stored size. Deltas compound — a member is a delta of a member
// that is a delta — so a few hostile bytes could otherwise declare values
// that double per member; sub-chunks of real records inflate by about their
// member count. A run list cannot compound: its value is no longer than the
// anchor and, a literal a bit, eight times its literals, bytes the segment
// holds, and no value is built from another. One that takes the template's
// heads may hold no literal at all and so state the anchor's length in a
// byte, or, a tmpl record, in none: what such values decode to is bounded not
// by their own bytes but by the budget, which every value the decoder builds
// is charged before it is allocated, whatever stated it. n of them over an
// anchor of a bytes decode to n·a at most, which stays within 4 096 × (n + a)
// unless n and a are both past 4 096. Segments of like records inflate by
// less than fifty.
const maxInflate = 1 << 12

// SegmentKey renders the backing-store key of segment seg of chunk id,
// prefixed with the placement generation that assigned the id. Ids restart at
// 0 on every full repartition, so without the generation a repartition would
// overwrite entries in place and a crash mid-rewrite would strand the old
// root against new contents; with it, each generation writes fresh keys and
// the root swap (the root names the generation) is the atomic commit point.
// core.Open garbage-collects keys of superseded generations.
func SegmentKey(gen uint32, id ID, seg uint32) string {
	return fmt.Sprintf("g%08x-c%08x-s%08x", gen, id, seg)
}

// ParseSegmentKey recovers generation, chunk id and segment index from a
// SegmentKey.
func ParseSegmentKey(key string) (gen uint32, id ID, seg uint32, ok bool) {
	rest, found := strings.CutPrefix(key, "g")
	if !found {
		return 0, 0, 0, false
	}
	gs, rest, found := strings.Cut(rest, "-c")
	if !found {
		return 0, 0, 0, false
	}
	cs, ss, found := strings.Cut(rest, "-s")
	if !found {
		return 0, 0, 0, false
	}
	var f [3]uint32
	for i, s := range []string{gs, cs, ss} {
		v, err := strconv.ParseUint(s, 16, 32)
		if len(s) != 8 || err != nil {
			return 0, 0, 0, false
		}
		f[i] = uint32(v)
	}
	return f[0], f[1], f[2], true
}

// appendSegment appends the segment value holding items[idxs[0]],
// items[idxs[1]], … — in that order, the first member of the first item at
// slot first — to dst:
//
//	code  first:uvarint  items:uvarint  item*
//	item   := head:uvarint  suffix  (record | members:uvarint member*)
//	suffix := bytes                                    keyWidth = 0
//	        | byte{keyWidth − shared}                 keyWidth > 0
//	record := version:uvarint  body:bytes             tmpl = 0
//	        | version:uvarint  byte{tmplLen}          tmpl = 1
//	member := version:uvarint  parent:varint  body:bytes
//
// code is the segment's code (litCode, runs.go): its literal code, its
// template, if it has one, whether it is implied, which only a templated code
// may be, and then its key width, and whether it is keyed. head is
// shared<<2 | raw<<1 | multi, and shared<<3 | tmpl<<2 | raw<<1 | multi where
// the code is implied: the item's primary key is the first shared bytes of the previous
// item's key (none for the first item of a segment) followed by suffix, and
// multi is set for an item of more than one member, whose members keep
// EncodeItem's order and parent indexes. The body of an item's representative
// — a record's, a sub-chunk's first member's — is its value when raw is set
// and a run list against the segment's anchor (runs.go) when it is not, with
// empty heads where it takes the template's; the anchor is the first item's
// representative value, always raw, and, where the code is keyed, a
// representative whose key has the width of the first item's is stated against
// the anchor with its own key written over the first item's, where the anchor
// first spells that (keyedAnchor, runs.go); raw is the escape of any later
// value the run list would not shorten, so an item takes no more bytes here
// than in EncodeItem's. tmpl is set for a record, not the first, not raw, that
// takes the template and whose literals escape nowhere: its body is then its
// literals alone, with neither the empty heads nor a length, as many bytes as
// the template's runs count symbols at the code's width. The other members
// keep EncodeItem's bodies: a bdiff delta of their parent member, or their
// value where that is not shorter.
//
// The items are gone over twice: once to find every representative's runs
// against the anchor, from which the template is chosen and the literals the
// lists will state are counted, which choose the code, and once to write; in
// between, a templated code is made implied where that spares more bytes than
// the wider heads and the key width cost. Everything else the segment is
// built in is cd's scratch; dst is the only memory of the caller's it writes.
func (cd *coder) appendSegment(dst []byte, first uint32, items []Item, idxs []uint32) ([]byte, error) {
	n := len(idxs)
	cd.reps = slices.Grow(cd.reps[:0], n)[:n]
	cd.lists = slices.Grow(cd.lists[:0], n)[:n]
	clear(cd.lists)
	reps, lists := cd.reps, cd.lists // lists[i] is the own list of each representative but the anchor's
	anchor := keyedAnchor{buf: cd.spliced[:0]}
	var prev []byte
	heads := cd.heads[:0] // every later representative's run heads, one after the other
	var hist litCounts
	keyWidth := -1 // of every key so far; 0 once two differ
	// The items' keys, one after the other, copied before any value is
	// read: the corpus holds them apart from the values and from each other.
	keys := cd.keys[:0]
	for _, ii := range idxs {
		keys = append(keys, items[ii].CK.Key...)
	}
	cd.keys = keys
	for i, ii := range idxs {
		r, it := &reps[i], &items[ii]
		key := keys[:len(it.CK.Key):len(it.CK.Key)]
		keys = keys[len(key):]
		r.n, r.rest = uint64(len(it.Members)), it.Encoded
		r.first = member{key: key, version: uint64(it.CK.Version), parent: -1, body: it.Value}
		if i == 0 {
			anchor.anchor, anchor.at, anchor.n = r.first.body, keyOffset(r.first.body, r.first.key), len(r.first.key)
		} else {
			lists[i].value = r.first.body
			heads, lists[i].copied, lists[i].tail = codeRuns(heads, anchor.against(r.first.key), r.first.body, &hist)
		}
		r.heads = len(heads)
		r.shared, prev = matchLen(prev, r.first.key), r.first.key
		if keyWidth < 0 || keyWidth == len(prev) {
			keyWidth = len(prev)
		} else {
			keyWidth = 0
		}
	}
	cd.heads, cd.spliced = heads, anchor.buf
	var template []byte
	if len(lists) > 1 {
		for i := 1; i < len(lists); i++ {
			lists[i].heads = heads[reps[i-1].heads:reps[i].heads]
		}
		template = cd.w.chooseTemplate(lists[1:], &hist)
		cd.untailed = untailOwn(cd.untailed[:0], lists[1:], &hist)
	}
	code := chooseCode(&hist)
	code.keyed = anchor.at >= 0
	var table packTable
	if code.width < 8 {
		table.fill(code)
	}
	if template != nil {
		// The implied framing spares each tmpl record — a template user of
		// one member whose empty heads and tmplLen literal bytes are shorter
		// than its value — those heads and its length, and each key its
		// suffix's length where every key has one width; it costs each head
		// a bit, and the key width. A user's literals take tmplLen bytes
		// where none escapes, which is certain only where no literal of the
		// segment does; elsewhere users are not counted, so what is counted
		// is spared at least.
		code.withTemplate(template, math.MaxUint32)
		noEscape := table.holds(&hist)
		keyWidth = max(keyWidth, 0)
		spared := -codec.UvarintLen(uint64(keyWidth))
		for i := range reps {
			r := &reps[i]
			spared -= codec.UvarintLen(uint64(r.shared)<<3|7) - codec.UvarintLen(uint64(r.shared)<<2|3)
			if keyWidth > 0 {
				spared += codec.UvarintLen(uint64(keyWidth - r.shared))
			}
			if noEscape && lists[i].uses && r.n == 1 && 1+code.tmplLen < len(r.first.body) {
				spared += codec.UvarintLen(uint64(1+code.tmplLen)) + 1
			}
		}
		if spared > 0 {
			code.implied, code.keyWidth = true, keyWidth
		}
	}

	dst = code.appendTo(dst)
	dst = codec.PutUvarint(dst, uint64(first))
	dst = codec.PutUvarint(dst, uint64(len(idxs)))
	shift := 2 // of shared in an item's head
	if code.implied {
		shift = 3
	}
	runs := cd.runs[:0] // one item's run list at a time
	for i := range reps {
		r := &reps[i]
		m, head := r.first, uint64(2) // raw
		if i > 0 {
			heads := lists[i].heads
			if lists[i].uses {
				heads, runs = template, append(runs[:0], 0) // no heads of its own
			} else {
				runs = codec.PutBytes(runs[:0], heads)
			}
			if runs = code.appendLits(runs, &table, heads, m.body); len(runs) < len(m.body) {
				head, m.body = 0, runs
			}
		}
		tmpl := code.implied && lists[i].uses && r.n == 1 && head == 0 && len(m.body) == 1+code.tmplLen
		if tmpl {
			head, m.body = 4, m.body[1:] // neither the empty heads nor a length
		}
		if r.n > 1 {
			head |= 1 // multi
		}
		dst = codec.PutUvarint(dst, uint64(r.shared)<<shift|head)
		if key := r.first.key[r.shared:]; code.keyWidth > 0 {
			dst = append(dst, key...)
		} else {
			dst = codec.PutBytes(dst, key)
		}
		if r.n > 1 {
			dst = codec.PutUvarint(dst, r.n)
		}
		for j, rest := uint64(0), r.rest; ; j++ {
			dst = codec.PutUvarint(dst, m.version)
			if r.n > 1 {
				dst = codec.PutVarint(dst, m.parent)
			}
			if j == 0 && tmpl {
				dst = append(dst, m.body...)
			} else {
				dst = codec.PutBytes(dst, m.body)
			}
			if j+1 >= r.n {
				break
			}
			var err error
			if m, rest, err = parseMember(rest); err != nil {
				return nil, err
			}
		}
	}
	cd.runs = runs
	return dst, nil
}

// A coder is the scratch a chunk's segments are coded in, one after the
// other (Code): what appendSegment takes of each item, the representatives'
// own run lists, the items' keys, their run heads, one item's run list, the
// heads untailOwn rewrites, the anchor with a key spliced over it, the
// weighing of templates, and the segment value. Each segment overwrites what
// the one before left, so nothing a coder holds may be handed out, and one
// coder codes one segment at a time.
type coder struct {
	reps     []parsed
	lists    []list
	keys     []byte
	heads    []byte
	runs     []byte
	untailed []byte
	spliced  []byte // keyedAnchor.buf
	w        weighing
	seg      []byte
}

// parsed is what appendSegment's first pass takes of an item: its member
// count, its first member, the other members' bytes, how many bytes its key
// shares with the previous item's, and where its run heads end.
type parsed struct {
	n      uint64
	first  member
	rest   []byte
	shared int
	heads  int
}

// member is one member of an item: its representative, or one of
// Item.Encoded's, as EncodeItem framed it.
type member struct {
	key     []byte
	version uint64
	parent  int64
	body    []byte
}

// parseMember reads the member buf begins with and returns what follows it.
func parseMember(buf []byte) (m member, rest []byte, err error) {
	if m.key, rest, err = codec.Bytes(buf); err != nil {
		return m, nil, err
	}
	if m.version, rest, err = codec.Uvarint(rest); err != nil {
		return m, nil, err
	}
	if m.parent, rest, err = codec.Varint(rest); err != nil {
		return m, nil, err
	}
	if m.body, rest, err = codec.Bytes(rest); err != nil {
		return m, nil, err
	}
	return m, rest, nil
}

// DecodeSegment decodes a segment value: the slot of its first record, how
// many slots it holds, and the records at the slots want selects (nil: all of
// them), in slot order with private copies of their values. The bodies of
// items no selected slot falls in are skipped, not copied; an item of several
// members is decoded whole when any of them is selected, since members are
// deltas of one another. A representative stored as a run list is rebuilt
// from the segment's code — its literal code and template —, the anchor, which
// is read where it lies in buf, with the item's key over the anchor's where
// the code is keyed, and its own list, or, for a tmpl record, its literals: no
// other item of the segment is touched for it. It is ErrCorrupt for a keyed
// segment's anchor not to spell its item's key, or that key to be shorter
// than minCopy.
func DecodeSegment(buf []byte, want *bitset.BitSet) (first uint32, slots int, recs []types.Record, err error) {
	code, rest, err := parseCode(buf)
	if err != nil {
		return 0, 0, nil, err
	}
	var table unpackTable
	table.fill(code)
	f, rest, err := codec.Uvarint(rest)
	if err != nil {
		return 0, 0, nil, err
	}
	n, rest, err := codec.Uvarint(rest)
	if err != nil {
		return 0, 0, nil, err
	}
	// An item takes two bytes at least, so neither count below can make the
	// decoder allocate or loop past what the payload pays for.
	if f > math.MaxUint32 || n > uint64(len(rest)) {
		return 0, 0, nil, fmt.Errorf("%w: segment at slot %d counts %d items in %d bytes", types.ErrCorrupt, f, n, len(rest))
	}
	if code.keyed && n == 0 {
		return 0, 0, nil, fmt.Errorf("%w: keyed segment without an anchor", types.ErrCorrupt)
	}
	if want == nil {
		recs = make([]types.Record, 0, n)
	}
	slot := f
	budget := uint64(maxInflate * len(buf)) // bytes run lists and delta members may still decode to
	shift := 2                              // of shared in an item's head
	if code.implied {
		shift = 3
	}
	var key []byte
	anchor := keyedAnchor{at: -1}
	var group []types.Record // the members of one multi-member item, reused
	for i := uint64(0); i < n; i++ {
		var head uint64
		if head, rest, err = codec.Uvarint(rest); err != nil {
			return 0, 0, nil, err
		}
		shared := head >> shift
		if shared > uint64(len(key)) {
			return 0, 0, nil, fmt.Errorf("%w: segment item %d shares %d bytes with a key of %d", types.ErrCorrupt, i, shared, len(key))
		}
		raw, multi, tmpl := head&2 != 0, head&1 == 1, code.implied && head&4 != 0
		if i == 0 && !raw {
			return 0, 0, nil, fmt.Errorf("%w: the segment's first item is a run list, against no anchor", types.ErrCorrupt)
		}
		if tmpl && (raw || multi) {
			return 0, 0, nil, fmt.Errorf("%w: segment item %d takes the template's framing but is raw or of several members", types.ErrCorrupt, i)
		}
		var suffix []byte
		if code.keyWidth == 0 {
			if suffix, rest, err = codec.Bytes(rest); err != nil {
				return 0, 0, nil, err
			}
		} else if need := uint64(code.keyWidth) - shared; need > uint64(len(rest)) { // shared ≤ len(key), which is keyWidth
			return 0, 0, nil, fmt.Errorf("%w: segment item %d ends inside its key", types.ErrCorrupt, i)
		} else {
			suffix, rest = rest[:need], rest[need:]
		}
		key = append(key[:shared], suffix...)
		members := uint64(1)
		if multi {
			if members, rest, err = codec.Uvarint(rest); err != nil {
				return 0, 0, nil, err
			}
			if members == 0 || members > uint64(len(rest)) {
				return 0, 0, nil, fmt.Errorf("%w: segment item %d counts %d members in %d bytes", types.ErrCorrupt, i, members, len(rest))
			}
		}
		if slot+members > math.MaxUint32 {
			return 0, 0, nil, fmt.Errorf("%w: segment slots overflow at item %d", types.ErrCorrupt, i)
		}
		selected := want == nil
		for s := slot; !selected && s < slot+members; s++ {
			selected = want.Contains(uint32(s))
		}
		var pk types.Key
		if selected {
			pk = types.Key(key)
		}
		group = group[:0]
		for m := uint64(0); m < members; m++ {
			var version uint64
			if version, rest, err = codec.Uvarint(rest); err != nil {
				return 0, 0, nil, err
			}
			parent := int64(-1)
			if multi {
				if parent, rest, err = codec.Varint(rest); err != nil {
					return 0, 0, nil, err
				}
			}
			var body []byte
			if !tmpl {
				if body, rest, err = codec.Bytes(rest); err != nil {
					return 0, 0, nil, err
				}
			} else if code.tmplLen > len(rest) {
				return 0, 0, nil, fmt.Errorf("%w: segment item %d's literals run past the segment's end", types.ErrCorrupt, i)
			} else {
				body, rest = rest[:code.tmplLen], rest[code.tmplLen:]
			}
			if i == 0 && m == 0 {
				anchor.anchor = body
				if code.keyed {
					if anchor.at, anchor.n = keyOffset(body, key), len(key); anchor.at < 0 {
						return 0, 0, nil, fmt.Errorf("%w: keyed segment's anchor does not spell its key of %d bytes", types.ErrCorrupt, len(key))
					}
				}
			}
			if !selected {
				continue
			}
			var value []byte
			switch {
			case tmpl:
				if value, err = code.rebuild(anchor.anchor, anchor.splice(key), code.template, body, budget, &table); err != nil {
					return 0, 0, nil, fmt.Errorf("segment item %d: %w", i, err)
				}
				budget -= uint64(len(value))
			case m == 0 && !raw && parent < 0:
				if value, err = code.decodeRuns(anchor.anchor, anchor.splice(key), body, budget, &table); err != nil {
					return 0, 0, nil, fmt.Errorf("segment item %d: %w", i, err)
				}
				budget -= uint64(len(value))
			case parent == -1 || parent == -2:
				value = bytes.Clone(body)
			case parent >= 0 && uint64(parent) < m:
				if size, _, err := codec.Uvarint(body); err != nil || size > budget {
					return 0, 0, nil, fmt.Errorf("%w: segment item %d member %d inflates past %d× the segment", types.ErrCorrupt, i, m, maxInflate)
				} else {
					budget -= size
				}
				if value, err = bdiff.Apply(nil, group[parent].Value, body); err != nil {
					return 0, 0, nil, err
				}
			default:
				return 0, 0, nil, fmt.Errorf("%w: segment item %d member %d references parent %d", types.ErrCorrupt, i, m, parent)
			}
			r := types.Record{CK: types.CompositeKey{Key: pk, Version: types.VersionID(version)}, Value: value}
			if multi {
				group = append(group, r)
			}
			if want == nil || want.Contains(uint32(slot+m)) {
				recs = append(recs, r)
			}
		}
		slot += members
	}
	if len(rest) != 0 {
		return 0, 0, nil, fmt.Errorf("%w: %d trailing bytes after segment", types.ErrCorrupt, len(rest))
	}
	return uint32(f), int(slot - f), recs, nil
}
