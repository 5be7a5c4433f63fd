package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rstore/internal/bitset"
	"rstore/internal/codec"
	"rstore/internal/corpus"
	"rstore/internal/docgen"
	"rstore/internal/types"
	"rstore/internal/vgraph"
)

func TestSegmentKeyFormats(t *testing.T) {
	if SegmentKey(0, 0, 0) == SegmentKey(0, 1, 0) || SegmentKey(0, 1, 0) == SegmentKey(1, 1, 0) || SegmentKey(0, 1, 0) == SegmentKey(0, 1, 1) {
		t.Fatal("segment keys collide across chunk ids, generations or segments")
	}
	// Fixed-width hex: a table scan in key order visits a chunk's segments
	// in segment order.
	if !(SegmentKey(1, 2, 9) < SegmentKey(1, 2, 10) && SegmentKey(1, 2, 0xffff) < SegmentKey(1, 3, 0)) {
		t.Fatal("segment keys do not sort by generation, chunk, segment")
	}
	gen, id, seg, ok := ParseSegmentKey(SegmentKey(7, 0x1234, 0x56))
	if !ok || gen != 7 || id != 0x1234 || seg != 0x56 {
		t.Fatalf("ParseSegmentKey round trip: %d %d %d %v", gen, id, seg, ok)
	}
	for _, bad := range []string{"", "c00000001", "g1-c2-s3", "g00000001-c00000001", "gzzzzzzzz-c00000001-s00000000",
		"g00000001-c0000000g-s00000000", "g00000001-c00000001-s0000000", "g00000001-c00000001-s00000000-s00000000"} {
		if _, _, _, ok := ParseSegmentKey(bad); ok {
			t.Fatalf("ParseSegmentKey accepted %q", bad)
		}
	}
}

// chainItem wraps miniCorpus's three doc records as one delta-chain item.
func chainItem(t testing.TB, c *corpus.Corpus) Item {
	t.Helper()
	it, err := NewItem(c, []uint32{0, 2, 3}, []int32{-1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// TestSegmentRoundTrip: a segment of a multi-member item and a single-record
// one decodes to the records the items were built from, in slot order from
// the first slot its header names; a selective decode returns the selected
// slots only, decoding a delta chain whole when one member of it is wanted.
func TestSegmentRoundTrip(t *testing.T) {
	c := miniCorpus(t)
	items := append(recordItems(c), chainItem(t, c))
	seg, err := new(coder).appendSegment(nil, 40, items, []uint32{4, 1}) // doc@0,1,2 then other@0
	if err != nil {
		t.Fatal(err)
	}
	first, slots, recs, err := DecodeSegment(seg, nil)
	if err != nil || first != 40 || slots != 4 || len(recs) != 4 {
		t.Fatalf("decode: first %d, %d slots, %d records, %v", first, slots, len(recs), err)
	}
	for i, id := range []uint32{0, 2, 3, 1} {
		if want := c.Record(id); recs[i].CK != want.CK || !bytes.Equal(recs[i].Value, want.Value) {
			t.Fatalf("slot %d decoded to %v, want %v", 40+i, recs[i].CK, want.CK)
		}
	}
	for _, tc := range []struct {
		want []uint32
		ids  []uint32
	}{{[]uint32{42}, []uint32{3}}, {[]uint32{43}, []uint32{1}}, {[]uint32{40, 43, 99}, []uint32{0, 1}}, {[]uint32{7}, nil}} {
		_, slots, got, err := DecodeSegment(seg, bitset.FromSlice(tc.want))
		if err != nil || slots != 4 || len(got) != len(tc.ids) {
			t.Fatalf("slots %v: %d records of %d slots, %v", tc.want, len(got), slots, err)
		}
		for i, id := range tc.ids {
			if got[i].CK != c.Record(id).CK || !bytes.Equal(got[i].Value, c.Record(id).Value) {
				t.Fatalf("slots %v: record %d is %v", tc.want, i, got[i].CK)
			}
		}
	}
	// The decoded values are private copies.
	recs[3].Value[0] ^= 0xff
	if _, _, again, _ := DecodeSegment(seg, nil); !bytes.Equal(again[3].Value, c.Record(1).Value) {
		t.Fatal("a decoded value aliases the segment")
	}

	// The three doc revisions as items of their own: the first is the anchor,
	// the other two are run lists against it — an edit of eighteen bytes each —
	// and "tiny" takes the escape. Each decodes from the anchor and itself.
	seg, err = new(coder).appendSegment(nil, 0, items, []uint32{0, 2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if raw := len(c.Record(0).Value); len(seg) > raw+100 {
		t.Fatalf("three revisions of %d bytes stored in %d", raw, len(seg))
	}
	for _, want := range []*bitset.BitSet{nil, bitset.FromSlice([]uint32{2}), bitset.FromSlice([]uint32{0, 3}), bitset.FromSlice([]uint32{1, 2})} {
		_, slots, got, err := DecodeSegment(seg, want)
		if err != nil || slots != 4 {
			t.Fatalf("slots %v: %d slots, %v", want, slots, err)
		}
		for slot, id := range []uint32{0, 2, 3, 1} {
			if want != nil && !want.Contains(uint32(slot)) {
				continue
			}
			if got[0].CK != c.Record(id).CK || !bytes.Equal(got[0].Value, c.Record(id).Value) {
				t.Fatalf("slots %v: slot %d decoded to %v", want, slot, got[0].CK)
			}
			got = got[1:]
		}
		if len(got) != 0 {
			t.Fatalf("slots %v: %d records too many", want, len(got))
		}
	}
	// A decoded anchor, and a value rebuilt from it, are private copies too.
	_, _, recs, _ = DecodeSegment(seg, nil)
	recs[0].Value[0] ^= 0xff
	recs[1].Value[0] ^= 0xff
	if _, _, again, _ := DecodeSegment(seg, nil); !bytes.Equal(again[0].Value, c.Record(0).Value) || !bytes.Equal(again[1].Value, c.Record(2).Value) {
		t.Fatal("a decoded value aliases the segment or the anchor")
	}
}

// TestDecodeSegmentRejects: every way a segment value can lie about itself is
// ErrCorrupt, and the two counts are checked against the bytes that are left
// before anything is sized by them. (The inflation budget is shown on delta
// members, which compound. Run lists are charged to it as well, but a value
// they state is no longer than the anchor and eight times its literals, and an
// item takes two bytes at least — a tmpl record of the key of the item before
// it, under a template without literals — so a segment of run lists alone
// cannot reach 4 096 × its size below ≈ 32 KB, a case that allocates
// ≈ 130 MB before it is refused;
// TestRunsRoundTrip, FuzzValueRuns and the templated value at the end hold
// decodeRuns to a budget directly.)
func TestDecodeSegmentRejects(t *testing.T) {
	c := miniCorpus(t)
	items := append(recordItems(c), chainItem(t, c))
	good, err := new(coder).appendSegment(nil, 0, items, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	const rawBit, multiBit = 2, 1
	item := func(shared, flags uint64, suffix string) []byte {
		return codec.PutBytes(codec.PutUvarint(nil, shared<<2|flags), []byte(suffix))
	}
	record := codec.PutBytes(codec.PutUvarint(nil, 3), []byte("v")) // version 3, value "v"
	bytewise := []byte{8}                                           // the code of a segment whose literals are bytes
	// A segment of an anchor "0123456789" and one item whose body is a run
	// list of the given heads and literals, in the given code.
	anchor := cat(item(0, rawBit, "a"), []byte{3}, codec.PutBytes(nil, []byte("0123456789")))
	coded := func(code []byte, lits string, heads ...byte) []byte {
		return cat(code, []byte{0, 2}, anchor, item(0, 0, "b"), []byte{3}, codec.PutBytes(nil, append(codec.PutBytes(nil, heads), lits...)))
	}
	if _, _, recs, err := DecodeSegment(coded(bytewise, "xy", 4, 2, 4, 0), nil); err != nil || len(recs) != 2 || string(recs[1].Value) != "0123xy6789" {
		t.Fatalf("the hand-built coded segment: %v, %v", recs, err)
	}
	// Two bits a symbol — a, b, c and the escape: "ab!" is 00 01 11 from the
	// low bit up, then 0x21.
	two := []byte{2, 'a', 'b', 'c'}
	if _, _, recs, err := DecodeSegment(coded(two, "\x74\x08", 4, 2, 3, 1), nil); err != nil || len(recs) != 2 || string(recs[1].Value) != "0123ab678!" {
		t.Fatalf("the hand-built packed segment: %v, %v", recs, err)
	}
	// The same with the heads stated once, as the segment's template, and an
	// empty list in the item that takes them.
	template := func(heads ...byte) []byte { return cat([]byte{8 | templated}, codec.PutBytes(nil, heads)) }
	if _, _, recs, err := DecodeSegment(coded(template(4, 2, 4, 0), "xy"), nil); err != nil || len(recs) != 2 || string(recs[1].Value) != "0123xy6789" {
		t.Fatalf("the hand-built templated segment: %v, %v", recs, err)
	}
	// The same under the implied framing: a head of shared<<3 | tmpl<<2 |
	// raw<<1 | multi, keys of the code's width, 2, with no length, and a
	// template user's literals without heads or a length.
	implicit := func(keyWidth byte, heads ...byte) []byte {
		return cat([]byte{8 | templated | implied}, codec.PutBytes(nil, heads), []byte{keyWidth})
	}
	const tmplBit = 4
	head3 := func(shared, flags uint64) []byte { return codec.PutUvarint(nil, shared<<3|flags) }
	anchor2 := cat(head3(0, rawBit), []byte("ka"), []byte{3}, codec.PutBytes(nil, []byte("0123456789")))
	if _, _, recs, err := DecodeSegment(cat(implicit(2, 4, 2, 4, 0), []byte{0, 2}, anchor2, head3(1, tmplBit), []byte("b"), []byte{3}, []byte("xy")), nil); err != nil ||
		len(recs) != 2 || string(recs[1].CK.Key) != "kb" || string(recs[1].Value) != "0123xy6789" {
		t.Fatalf("the hand-built implied segment: %v, %v", recs, err)
	}
	// A keyed segment: its anchor spells its key, "key1", at offset 3, and a
	// run list that copies all twelve bytes of it copies the item's own key
	// there, where the item's key has that width, and the anchor's elsewhere.
	keyedAnchor := cat([]byte{8 | keyed}, []byte{0, 3}, item(0, rawBit, "key1"), []byte{3}, codec.PutBytes(nil, []byte("id=key1;0123")))
	copyAll := cat([]byte{3}, codec.PutBytes(nil, codec.PutBytes(nil, []byte{12, 0})))
	if _, _, recs, err := DecodeSegment(cat(keyedAnchor, item(3, 0, "2"), copyAll, item(3, 0, "10"), copyAll), nil); err != nil || len(recs) != 3 ||
		string(recs[1].Value) != "id=key2;0123" || string(recs[2].Value) != "id=key1;0123" {
		t.Fatalf("the hand-built keyed segment: %v, %v", recs, err)
	}
	// A chain whose every member is 32 copies of its parent — 64 B, 2 KiB,
	// 64 KiB … 2 GiB — each a bdiff of ≈ 100 bytes: a length, then 32 × (copy,
	// offset 0, the parent's length).
	inflating := cat(bytewise, []byte{0, 1}, item(0, rawBit|multiBit, "k"), []byte{6}, []byte{0}, codec.PutVarint(nil, -1), codec.PutBytes(nil, bytes.Repeat([]byte("x"), 64)))
	for m, size := 1, uint64(64); m < 6; m, size = m+1, 32*size {
		delta := codec.PutUvarint(nil, 32*size)
		for c := 0; c < 32; c++ {
			delta = codec.PutUvarint(codec.PutUvarint(append(delta, 0), 0), size)
		}
		inflating = cat(inflating, []byte{0}, codec.PutVarint(nil, int64(m-1)), codec.PutBytes(nil, delta))
	}
	if len(inflating) > 4<<10 {
		t.Fatalf("the inflating chain is %d bytes itself", len(inflating))
	}
	for name, seg := range map[string][]byte{
		"members inflating 32× each":       inflating,
		"trailing bytes":                   append(bytes.Clone(good), 7),
		"truncated":                        good[:len(good)-1],
		"empty":                            nil,
		"width 0":                          cat([]byte{0}, good[1:]),
		"width 9":                          cat([]byte{9}, good[1:]),
		"table cut short":                  {6, 'a', 'b', 'c'},
		"table with a byte twice":          coded([]byte{2, 'a', 'b', 'b'}, "\x74\x08", 4, 2, 3, 1),
		"table out of order":               coded([]byte{2, 'a', 'c', 'b'}, "\x74\x08", 4, 2, 3, 1),
		"first slot past uint32":           cat(bytewise, codec.PutUvarint(nil, 1<<32), []byte{0}),
		"item count past the payload":      cat(bytewise, []byte{0}, codec.PutUvarint(nil, 1<<40), item(0, rawBit, "k"), record),
		"shared prefix past the key":       cat(bytewise, []byte{0, 2}, item(0, rawBit, "ab"), record, item(3, rawBit, "c"), record),
		"shared prefix in first item":      cat(bytewise, []byte{0, 1}, item(1, rawBit, "k"), record),
		"member count past the payload":    cat(bytewise, []byte{0, 1}, item(0, rawBit|multiBit, "k"), codec.PutUvarint(nil, 1<<40), record),
		"zero members":                     cat(bytewise, []byte{0, 1}, item(0, rawBit|multiBit, "k"), []byte{0}),
		"member delta of a later member":   cat(bytewise, []byte{0, 1}, item(0, rawBit|multiBit, "k"), []byte{2}, []byte{3}, codec.PutVarint(nil, -1), codec.PutBytes(nil, []byte("v")), []byte{4}, codec.PutVarint(nil, 1), codec.PutBytes(nil, []byte("d"))),
		"run list in the first item":       cat(bytewise, []byte{0, 1}, item(0, 0, "k"), []byte{3}, codec.PutBytes(nil, []byte{2, 0, 1, 'v'})),
		"run list in a first sub-chunk":    cat(bytewise, []byte{0, 1}, item(0, multiBit, "k"), []byte{1}, []byte{3}, codec.PutVarint(nil, -1), codec.PutBytes(nil, []byte{2, 0, 1, 'v'})),
		"copy past the anchor's end":       coded(bytewise, "xy", 4, 2, 5, 0),
		"literals cut short":               coded(bytewise, "xy", 4, 3),
		"literals left over":               coded(bytewise, "xyz", 4, 2, 4, 0),
		"heads cut inside a run":           coded(bytewise, "xy", 4, 2, 4),
		"run list with a parent":           cat(bytewise, []byte{0, 2}, anchor, item(0, multiBit, "b"), []byte{1}, []byte{3}, codec.PutVarint(nil, 0), codec.PutBytes(nil, []byte{2, 10, 0})),
		"more symbols than bits":           coded(two, "\x74\x08", 4, 2, 3, 7),
		"escape cut by the list's end":     coded(two, "\x34", 4, 3),
		"escape of a byte of the table":    coded(two, "\x74\x18", 4, 2, 3, 1),
		"a byte after the last symbol":     coded(two, "\x74\x08\x00", 4, 2, 3, 1),
		"a set bit after the last symbol":  coded(two, "\x74\x48", 4, 2, 3, 1),
		"empty heads without a template":   coded(bytewise, ""),
		"template cut short":               {8 | templated, 4, 4, 2},
		"empty template":                   cat([]byte{8 | templated, 0}, good[1:]),
		"template in the first item":       cat(template(0, 2), []byte{0, 1}, item(0, 0, "a"), []byte{3}, codec.PutBytes(nil, []byte{0, 'x', 'y'})),
		"template copying past the anchor": coded(template(4, 2, 5, 0), "xy"),
		"template past the literals":       coded(template(4, 2, 1, 1), "x"),
		"implied without a template":       cat([]byte{8 | implied, 0}, []byte{0, 1}, item(0, rawBit, "a"), record),
		"template ending inside a run":     cat(implicit(0, 4, 2, 4), []byte{0, 1}, item(0, rawBit, "a"), record),
		"tmpl head on the first item":      cat(implicit(2, 0, 2), []byte{0, 1}, head3(0, tmplBit), []byte("ka"), []byte{3}, []byte("xy")),
		"tmpl head on a raw item":          cat(implicit(2, 4, 2, 4, 0), []byte{0, 2}, anchor2, head3(1, tmplBit|rawBit), []byte("b"), []byte{3}, []byte("xy")),
		"tmpl head on a sub-chunk":         cat(implicit(2, 4, 2, 4, 0), []byte{0, 2}, anchor2, head3(1, tmplBit|multiBit), []byte("b"), []byte{1, 3}, codec.PutVarint(nil, -1), []byte("xy")),
		"tmpl literals past the end":       cat(implicit(2, 4, 2, 4, 0), []byte{0, 2}, anchor2, head3(1, tmplBit), []byte("b"), []byte{3}, []byte("x")),
		"key width below an item's shared": cat(implicit(2, 4, 2, 4, 0), []byte{0, 2}, anchor2, head3(3, tmplBit), []byte{3}, []byte("xy")),
		"keyed anchor without its key":     cat([]byte{8 | keyed}, []byte{0, 1}, item(0, rawBit, "key2"), []byte{3}, codec.PutBytes(nil, []byte("id=key1;0123"))),
		"keyed key shorter than minCopy":   cat([]byte{8 | keyed}, []byte{0, 1}, item(0, rawBit, "v"), record),
		"keyed without an anchor":          cat([]byte{8 | keyed}, []byte{0, 0}),
	} {
		if _, _, recs, err := DecodeSegment(seg, nil); !errors.Is(err, types.ErrCorrupt) || recs != nil {
			t.Errorf("%s: %d records, %v", name, len(recs), err)
		}
	}
	// A value the template states is charged to the inflation budget like
	// any other, however few bytes its own list takes.
	c10, _, _ := parseCode(template(4, 2, 4, 0))
	if got, err := decodeRuns(c10, []byte("0123456789"), []byte{0, 'x', 'y'}, 9); !errors.Is(err, types.ErrCorrupt) || got != nil {
		t.Errorf("a templated value of 10 bytes decoded within a budget of 9: %q, %v", got, err)
	}
}

// TestJoinSegmentsRejects: a chunk's segments must all be there and each in
// its place.
func TestJoinSegmentsRejects(t *testing.T) {
	rec := func(n int) []types.Record { return make([]types.Record, n) }
	whole := func() []Part { return []Part{{2, 5, rec(1)}, {0, 0, rec(2)}, {1, 2, rec(3)}} } // scan order is arbitrary
	st, err := JoinSegments(whole())
	if err != nil || len(st.Records) != 6 || fmt.Sprint(st.Segments) != "[0 2 5]" {
		t.Fatalf("join: %d records, segments %v, %v", len(st.Records), st.Segments, err)
	}
	if st, err := JoinSegments(nil); err != nil || len(st.Records) != 0 {
		t.Fatalf("join of no segments: %v, %v", st, err)
	}
	missing := whole()[:2] // segments 2 and 0: 1 is gone
	swapped := whole()
	swapped[0].Index, swapped[2].Index = 1, 2 // values stored under each other's keys
	for name, parts := range map[string][]Part{"missing middle": missing, "missing first": whole()[:1], "swapped": swapped} {
		if _, err := JoinSegments(parts); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestAddChunkSegments lays a chunk of several segments out — single-record
// items and delta-chain items of up to four members, assigned in shuffled
// order — and checks the cut: segments tile the slots, every item lies
// inside one segment, each segment but the last holds the target and not a
// whole item more, slots follow composite-key order, and no segment is larger
// than what its items were charged — over random blobs, which are all stored
// raw and where framing stays under ten bytes per single-record item, and
// over documents, which are stored as run lists in under three quarters of it.
func TestAddChunkSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	t.Run("blobs", func(t *testing.T) {
		testAddChunkSegments(t, rng, func(types.Key, []byte) []byte {
			b := make([]byte, 200+rng.Intn(100))
			rng.Read(b)
			return b
		}, 1)
	})
	t.Run("documents", func(t *testing.T) {
		testAddChunkSegments(t, rng, documents(docgen.New(22), 230), 0.75)
	})
}

// testAddChunkSegments runs TestAddChunkSegments over the values value makes
// for a key, given the key's previous revision (nil for the first); the
// chunk's single-record items must be stored in at most maxStored of what
// they were charged.
func testAddChunkSegments(t *testing.T, rng *rand.Rand, value func(k types.Key, prev []byte) []byte, maxStored float64) {
	g := vgraph.New()
	c := corpus.New(g)
	const keys, versions = 600, 4
	latest := make([][]byte, keys)
	for v := types.VersionID(0); v < versions; v++ {
		if v == 0 {
			g.AddRoot()
		} else {
			g.AddVersion(v - 1)
		}
		d := &types.Delta{}
		for k := 0; k < keys; k++ {
			if v > 0 {
				d.Dels = append(d.Dels, types.CompositeKey{Key: types.Key(fmt.Sprintf("key-%05d", k)), Version: v - 1})
			}
			latest[k] = value(types.Key(fmt.Sprintf("key-%05d", k)), latest[k])
			d.Adds = append(d.Adds, types.Record{CK: types.CompositeKey{Key: types.Key(fmt.Sprintf("key-%05d", k)), Version: v}, Value: latest[k]})
		}
		if err := c.AddVersionDelta(v, d); err != nil {
			t.Fatal(err)
		}
	}
	// Even keys: one item per record. Odd keys: one chain item of all four
	// versions (of random values the members fall back to raw, parent −2).
	var items []Item
	itemOf := make([]int, c.NumRecords())
	for k := 0; k < keys; k++ {
		recs := c.KeyRecords(types.Key(fmt.Sprintf("key-%05d", k)))
		if k%2 == 0 {
			for _, it := range RecordItems(c, recs) {
				itemOf[it.Members[0]] = len(items)
				items = append(items, it)
			}
			continue
		}
		parents := []int32{-1, 0, 1, 2}
		it, err := NewItem(c, recs, parents)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range recs {
			itemOf[id] = len(items)
		}
		items = append(items, it)
	}
	RankItems(c, items)
	idxs := make([]uint32, len(items))
	for i := range idxs {
		idxs[i] = uint32(i)
	}
	rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })

	l := NewLayout(c)
	values, err := addChunk(l, items, idxs)
	if err != nil {
		t.Fatal(err)
	}
	firsts := l.Segments(0)
	if len(values) < 4 || len(firsts) != len(values) || firsts[0] != 0 {
		t.Fatalf("%d segment values, first slots %v", len(values), firsts)
	}
	st := storedOf(t, values)
	if len(st.Records) != c.NumRecords() || fmt.Sprint(st.Segments) != fmt.Sprint(firsts) {
		t.Fatalf("stored: %d records in segments %v; layout has %d in %v", len(st.Records), st.Segments, c.NumRecords(), firsts)
	}
	segOf := func(slot uint32) int {
		s := 0
		for s+1 < len(firsts) && firsts[s+1] <= slot {
			s++
		}
		return s
	}
	itemSeg := map[int]int{}
	packed := make([]int, len(values)) // Σ EncodedLen of the items in each segment
	var prev types.CompositeKey
	for slot, r := range st.Records {
		id, ok := c.IDForCK(r.CK)
		if !ok || !bytes.Equal(r.Value, c.Record(id).Value) || l.Loc(id) != (Loc{0, uint32(slot)}) {
			t.Fatalf("slot %d holds %v; record %d is at %+v", slot, r.CK, id, l.Loc(id))
		}
		seg, it := segOf(uint32(slot)), itemOf[id]
		if at, seen := itemSeg[it]; !seen {
			itemSeg[it] = seg
			packed[seg] += items[it].EncodedLen()
			// Items follow the order of their representatives' keys.
			if rep := items[it].CK; slot > 0 && (rep.Key < prev.Key || (rep.Key == prev.Key && rep.Version <= prev.Version)) {
				t.Fatalf("slot %d: item of %v follows item of %v", slot, rep, prev)
			}
			prev = items[it].CK
		} else if at != seg {
			t.Fatalf("item %d straddles segments %d and %d", it, at, seg)
		}
	}
	single, stored, raw, charged := 0, 0, 0, 0
	for s, v := range values {
		if s+1 < len(values) && (packed[s] < SegmentTarget || packed[s] >= SegmentTarget+4*310) {
			t.Errorf("segment %d holds items packed to %d bytes; the target is %d", s, packed[s], SegmentTarget)
		}
		if len(v) > packed[s] {
			t.Errorf("segment %d is %d bytes, its items were charged %d", s, len(v), packed[s])
		}
	}
	// The single-record items: a chunk of only those.
	var singles []uint32
	for i, it := range items {
		if len(it.Members) == 1 {
			singles = append(singles, uint32(i))
			single++
			raw += len(c.Record(it.Members[0]).Value)
			charged += it.EncodedLen()
		}
	}
	values, err = addChunk(NewLayout(c), items, singles)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		stored += len(v)
	}
	if share := float64(stored) / float64(charged); share > maxStored {
		t.Errorf("single-record items charged %d bytes stored in %d, %.2f of that; want at most %.2f", charged, stored, share, maxStored)
	}
	if per := float64(stored-raw) / float64(single); per > 10 {
		t.Errorf("%.1f bytes of framing per single-record item, want at most 10", per)
	}
}

// revisionItems registers keys keys of k revisions each — value makes a key's
// next revision from its previous one, nil for the first — in a corpus of k
// versions and wraps each key as one item: a record for k = 1, else the delta
// chain of its revisions. Item order is key order.
func revisionItems(tb testing.TB, keys, k int, value func(key types.Key, prev []byte) []byte) (*corpus.Corpus, []Item) {
	tb.Helper()
	g := vgraph.New()
	c := corpus.New(g)
	latest := make([][]byte, keys)
	for v := types.VersionID(0); int(v) < k; v++ {
		if v == 0 {
			g.AddRoot()
		} else {
			g.AddVersion(v - 1)
		}
		d := &types.Delta{}
		for i := range latest {
			key := types.Key(fmt.Sprintf("key-%06d", i))
			if v > 0 {
				d.Dels = append(d.Dels, types.CompositeKey{Key: key, Version: v - 1})
			}
			latest[i] = value(key, latest[i])
			d.Adds = append(d.Adds, types.Record{CK: types.CompositeKey{Key: key, Version: v}, Value: latest[i]})
		}
		if err := c.AddVersionDelta(v, d); err != nil {
			tb.Fatal(err)
		}
	}
	items := make([]Item, keys)
	parents := make([]int32, k)
	for m := range parents {
		parents[m] = int32(m) - 1
	}
	for i := range items {
		members := c.KeyRecords(types.Key(fmt.Sprintf("key-%06d", i)))
		it, err := NewItem(c, members, parents)
		if err != nil {
			tb.Fatal(err)
		}
		items[i] = it
	}
	return c, items
}

// documents is revisionItems' value for §5.1's records: a document of size bytes,
// then its mutations by pd = 0.1.
func documents(gen *docgen.Generator, size int) func(types.Key, []byte) []byte {
	return func(key types.Key, prev []byte) []byte {
		if prev == nil {
			return gen.Document(key, size)
		}
		return gen.Mutate(prev, 0.1)
	}
}

// allOf lists every index of items.
func allOf(items []Item) []uint32 {
	idxs := make([]uint32, len(items))
	for i := range idxs {
		idxs[i] = uint32(i)
	}
	return idxs
}
