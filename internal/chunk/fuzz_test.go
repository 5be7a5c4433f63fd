package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rstore/internal/bdiff"
	"rstore/internal/bitset"
	"rstore/internal/codec"
	"rstore/internal/docgen"
	"rstore/internal/types"
)

// Fuzz targets: every decoder must reject arbitrary input with an error —
// never panic, never loop. Seed corpora include valid encodings so the
// mutators explore near-valid space. `go test` runs the seeds; `go test
// -fuzz=FuzzDecodeSegment ./internal/chunk` explores further.

// FuzzDecodeSegment: besides never panicking, the decoder must not let a
// count in the input size an allocation — a count that promises more items
// or members than there are bytes is refused before anything is allocated for
// it (TestDecodeSegmentRejects), so the records it returns are bounded by the
// payload — and a selective decode must agree with a full one.
func FuzzDecodeSegment(f *testing.F) {
	c := miniCorpus(f)
	items := recordItems(c)
	chain, err := NewItem(c, []uint32{0, 2, 3}, []int32{-1, 0, 1})
	if err != nil {
		f.Fatal(err)
	}
	items = append(items, chain)
	for _, idxs := range [][]uint32{{0, 1}, {2, 3}, {4, 1}} {
		seg, err := new(coder).appendSegment(nil, 7, items, idxs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
	}
	// Segments of documents, whose values are run lists against the first: one
	// record an item, and sub-chunks of four; of two, whose few literals stay
	// bytes and whose one list is its own, and of forty, whose literals pay
	// for a table and are packed and whose lists are the segment's template.
	for _, k := range []int{1, 4} {
		for _, keys := range []int{2, 40} {
			_, items := revisionItems(f, keys, k, documents(docgen.New(int64(k)), 96))
			seg, err := new(coder).appendSegment(nil, 0, items, allOf(items))
			if err != nil {
				f.Fatal(err)
			}
			packed, shared := seg[0]&^(templated|implied|keyed) < 8, seg[0]&templated != 0
			if packed != (keys == 40) || shared != (keys == 40) {
				f.Fatalf("the seed segment of %d documents has code %#x", keys, seg[0])
			}
			f.Add(seg)
		}
	}
	// A segment of forty documents of which every third is shifted by a byte
	// against the anchor: they keep lists of their own beside the template.
	doc := documents(docgen.New(3), 96)
	_, items = revisionItems(f, 40, 1, func(key types.Key, prev []byte) []byte {
		v := doc(key, prev)
		if key[len(key)-1]%3 == 1 {
			v = append([]byte{' '}, v...)
		}
		return v
	})
	seg, err := new(coder).appendSegment(nil, 0, items, allOf(items))
	if err != nil || seg[0]&templated == 0 {
		f.Fatalf("the seed segment of shifted documents has code %#x, %v", seg[0], err)
	}
	f.Add(seg)
	// Keyed segments: documents that spell their keys, coded with each
	// value's own key over the anchor's; the same with the anchor's key
	// spelled otherwise, which the decoder refuses; and one whose keys are of
	// two widths, of which only the anchor's is spliced.
	_, items = revisionItems(f, 40, 1, documents(docgen.New(5), 96))
	if seg, err = new(coder).appendSegment(nil, 0, items, allOf(items)); err != nil || seg[0]&keyed == 0 {
		f.Fatalf("the seed segment of documents has code %#x, %v", seg[0], err)
	}
	f.Add(seg)
	anchor := decodeItem(f, items[0])[0]
	at := bytes.Index(seg, anchor.Value) + keyOffset(anchor.Value, []byte(anchor.CK.Key))
	unspelled := bytes.Clone(seg)
	unspelled[at] ^= 0x20
	if _, _, _, err := DecodeSegment(unspelled, nil); !errors.Is(err, types.ErrCorrupt) {
		f.Fatalf("a keyed segment whose anchor does not spell its key: %v", err)
	}
	f.Add(unspelled)
	mixed := make([]Item, 40)
	for i := range mixed {
		key := fmt.Sprintf("key-%06d", i)
		if i%4 == 3 {
			key = fmt.Sprintf("key-%d", i)
		}
		enc := codec.PutCompositeKey(codec.PutUvarint(nil, 1), types.CompositeKey{Key: types.Key(key), Version: 2})
		mixed[i] = framed(codec.PutBytes(codec.PutVarint(enc, -1), docgen.New(int64(i)).Document(types.Key(key), 96)))
	}
	if seg, err = new(coder).appendSegment(nil, 0, mixed, allOf(mixed)); err != nil || seg[0]&keyed == 0 {
		f.Fatalf("the seed segment of keys of two widths has code %#x, %v", seg[0], err)
	}
	f.Add(seg)
	f.Add([]byte{})
	f.Add([]byte{8, 0, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{8, 0, 1, 1, 0, 0xff, 0xff, 0x03})
	f.Add([]byte{2, 'a', 'b', 'c', 0, 2, 2, 1, 'a', 3, 10, '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 0, 1, 'b', 3, 7, 4, 4, 2, 3, 1, 0x74, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		first, slots, recs, err := DecodeSegment(data, nil)
		if err != nil {
			if len(recs) != 0 {
				t.Fatalf("%d records returned beside %v", len(recs), err)
			}
			return
		}
		if slots != len(recs) || slots > len(data) || cap(recs) > 2*len(data) || uint64(first)+uint64(slots) > 1<<32 {
			t.Fatalf("segment of %d bytes at slot %d: %d slots, %d records (cap %d)", len(data), first, slots, len(recs), cap(recs))
		}
		// A selective decode returns the same records at the same slots.
		want := bitset.New(0)
		for s := 0; s < slots; s += 2 {
			want.Set(first + uint32(s))
		}
		_, _, some, err := DecodeSegment(data, want)
		if err != nil || len(some) != (slots+1)/2 {
			t.Fatalf("selective decode: %d of %d slots, %v", len(some), slots, err)
		}
		for i, r := range some {
			if r.CK != recs[2*i].CK || !bytes.Equal(r.Value, recs[2*i].Value) {
				t.Fatalf("slot %d decoded differently when selected", int(first)+2*i)
			}
		}
	})
}

// FuzzDecodeMap: a map that decodes holds exactly as many versions as it
// lists — none folded onto another by truncation or repetition — and names no
// slot past the chunk's; what it refuses is types.ErrCorrupt. Seeded with a
// valid map, one listing a version twice, and one whose second version is
// 2³²+3.
func FuzzDecodeMap(f *testing.F) {
	m := NewMap(64)
	m.Versions[1] = bitset.FromSlice([]uint32{3, 60})
	m.Versions[9] = bitset.FromSlice([]uint32{0})
	f.Add(m.AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{64, 1, 1})
	one := bitset.FromSlice([]uint32{5}).AppendBinary(nil)
	for _, second := range []uint64{3, 1<<32 + 3} {
		f.Add(append(codec.PutUvarint(append(codec.PutUvarint([]byte{64, 2}, 3), one...), second), one...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeMap(data, 64)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("a refused map is not ErrCorrupt: %v", err)
			}
			return
		}
		_, rest, _ := codec.Uvarint(data)
		listed, _, _ := codec.Uvarint(rest)
		if uint64(len(got.Versions)) != listed {
			t.Fatalf("map listing %d versions decoded to %d", listed, len(got.Versions))
		}
		for v, b := range got.Versions {
			b.ForEach(func(slot uint32) bool {
				if slot >= 64 {
					t.Fatalf("version %d names slot %d of a 64-slot chunk", v, slot)
				}
				return true
			})
		}
	})
}

// FuzzPackedLiterals: values over an alphabet of any size — one byte, two, 63,
// 64, 65, all 256, so every width, the escape and the bytewise fallback are
// reached — with any share of them sharing a prefix with the first, go through
// appendSegment and come back from DecodeSegment byte for byte, whole and slot
// by slot, and the segment is no longer than the same values with literals as
// bytes would make it.
func FuzzPackedLiterals(f *testing.F) {
	prose := []byte("It is a truth universally acknowledged, that a single man in possession of a good fortune, must be in want of a wife. ")
	for _, alphabet := range []uint16{1, 2, 3, 10, 63, 64, 65, 100, 256} {
		f.Add(bytes.Repeat(prose, 12), alphabet, uint8(60), uint8(16))
		f.Add(bytes.Repeat(prose, 2), alphabet, uint8(7), uint8(0))
	}
	f.Add([]byte{}, uint16(64), uint8(10), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, alphabet uint16, size, shared uint8) {
		// Values of size+1 bytes cut from data, every byte folded into the
		// alphabet, the first shared bytes of each the anchor's.
		n := int(alphabet-1)%256 + 1
		var values [][]byte
		for ; len(data) > 0 && len(values) < 64; data = data[min(len(data), int(size)+1):] {
			v := bytes.Clone(data[:min(len(data), int(size)+1)])
			for i, b := range v {
				v[i] = byte(int(b) % n * 255 / max(n-1, 1)) // spread over the byte range
			}
			if len(values) > 0 {
				copy(v[:min(len(v), int(shared))], values[0])
			}
			values = append(values, v)
		}
		values = append(values, nil) // and an empty one
		items := make([]Item, len(values))
		for i, v := range values {
			enc := codec.PutUvarint(nil, 1)
			enc = codec.PutCompositeKey(enc, types.CompositeKey{Key: types.Key(fmt.Sprintf("key-%03d", i)), Version: 7})
			items[i] = framed(codec.PutBytes(codec.PutVarint(enc, -1), v))
		}
		seg, err := new(coder).appendSegment(nil, 3, items, allOf(items))
		if err != nil {
			t.Fatal(err)
		}
		first, slots, recs, err := DecodeSegment(seg, nil)
		if err != nil || first != 3 || slots != len(values) || len(recs) != len(values) {
			t.Fatalf("decode: first %d, %d slots, %d records of %d, %v", first, slots, len(recs), len(values), err)
		}
		for i, v := range values {
			if !bytes.Equal(recs[i].Value, v) {
				t.Fatalf("width %d: slot %d decoded to %q, want %q", seg[0], i, recs[i].Value, v)
			}
			_, _, one, err := DecodeSegment(seg, bitset.FromSlice([]uint32{3 + uint32(i)}))
			if err != nil || len(one) != 1 || !bytes.Equal(one[0].Value, v) {
				t.Fatalf("width %d: slot %d alone: %d records, %v", seg[0], i, len(one), err)
			}
		}
		// The cost rule at work: what it chose is no dearer than bytes, by more
		// than the heads' length byte a value.
		bytewise := 0
		for _, it := range items {
			bytewise += it.EncodedLen()
		}
		if len(seg) > bytewise+len(values)+8 {
			t.Fatalf("width %d: %d values of %d bytes as items stored in %d", seg[0], len(values), bytewise, len(seg))
		}
	})
}

// FuzzSegmentRoundTrip: arbitrary records — keys of one width, short or
// sharing sixteen bytes or more with their neighbours, or of several
// widths; values that keep the anchor's layout with a few bytes changed, some
// a few bytes shorter, values that share nothing with it, empty values; items
// of one record and sub-chunks of up to four — go through appendSegment and
// come back from DecodeSegment byte for byte, whole and slot by slot, and the
// segment is no longer than the items' own encodings by more than a table
// and a byte an item.
func FuzzSegmentRoundTrip(f *testing.F) {
	doc := docgen.New(54).Document("key-000000", 96)
	for _, keys := range []uint8{0, 1, 2} {
		for _, sub := range []bool{false, true} {
			f.Add(bytes.Repeat([]byte{2, 7, 'x', 3, 9, '1', 1, 'a', 'b', 0, 6, 40, 'q'}, 8), keys, sub)
		}
	}
	f.Add(doc, uint8(0), false)
	f.Add([]byte{}, uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, keys uint8, sub bool) {
		// One control byte an item: its low two bits the kind of value, the
		// next four how many bytes data changes or gives, the top two how
		// many more members a sub-chunk has.
		var items []Item
		var want []types.Record
		for i := 0; len(data) > 0 && len(items) < 64; i++ {
			c := data[0]
			data = data[1:]
			n := min(int(c>>2&15), len(data)/2)
			var v []byte
			switch c & 3 {
			case 1: // shares nothing with the anchor
				v, data = bytes.Clone(data[:n]), data[n:]
			case 2, 3: // the anchor's layout, n bytes changed; one byte shorter per change too
				v = bytes.Clone(doc)
				for ; n > 0; n, data = n-1, data[2:] {
					v[int(data[0])%len(v)] = data[1]
				}
				if c&3 == 3 {
					v = v[:len(v)-int(c>>2&15)]
				}
			}
			var key types.Key
			switch keys % 3 {
			case 0:
				key = types.Key(fmt.Sprintf("key-%06d", i))
			case 1:
				key = types.Key(fmt.Sprintf("k%d", i*i))
			default:
				key = types.Key(fmt.Sprintf("a-shared-key-prefix-%04d", i)) // sharing 20–23 bytes: two bytes of head where shared<<3

			}
			values := [][]byte{v}
			for m := 0; sub && m < int(c>>6); m++ {
				next := append(bytes.Clone(values[m]), byte(m))
				values = append(values, next)
			}
			enc := codec.PutUvarint(nil, uint64(len(values)))
			for m, v := range values {
				ck := types.CompositeKey{Key: key, Version: types.VersionID(3 + m)}
				enc = codec.PutCompositeKey(enc, ck)
				body, parent := v, int64(-1)
				if m > 0 {
					if body, parent = bdiff.Encode(nil, values[m-1], v), int64(m-1); len(body) >= len(v) {
						body, parent = v, -2
					}
				}
				enc = codec.PutBytes(codec.PutVarint(enc, parent), body)
				want = append(want, types.Record{CK: ck, Value: v})
			}
			items = append(items, framed(enc))
		}
		if len(items) == 0 {
			return
		}
		seg, err := new(coder).appendSegment(nil, 5, items, allOf(items))
		if err != nil {
			t.Fatal(err)
		}
		first, slots, recs, err := DecodeSegment(seg, nil)
		if err != nil || first != 5 || slots != len(want) || len(recs) != len(want) {
			t.Fatalf("decode: first %d, %d slots, %d records of %d, %v", first, slots, len(recs), len(want), err)
		}
		for i, r := range want {
			if recs[i].CK != r.CK || !bytes.Equal(recs[i].Value, r.Value) {
				t.Fatalf("code %#x: slot %d decoded to %v = %q, want %v = %q", seg[0], i, recs[i].CK, recs[i].Value, r.CK, r.Value)
			}
			_, _, one, err := DecodeSegment(seg, bitset.FromSlice([]uint32{5 + uint32(i)}))
			if err != nil || len(one) != 1 || one[0].CK != r.CK || !bytes.Equal(one[0].Value, r.Value) {
				t.Fatalf("code %#x: slot %d alone: %d records, %v", seg[0], i, len(one), err)
			}
		}
		encoded := 0
		for _, it := range items {
			encoded += it.EncodedLen()
		}
		if len(seg) > encoded+len(items)+8+maxCodeLen {
			t.Fatalf("code %#x: %d items encoded in %d bytes stored in %d", seg[0], len(items), encoded, len(seg))
		}
	})
}
