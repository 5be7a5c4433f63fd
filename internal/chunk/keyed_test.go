package chunk

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"rstore/internal/bitset"
	"rstore/internal/codec"
	"rstore/internal/docgen"
	"rstore/internal/types"
)

// keyedItem is the single-record item of key and value at version 3.
func keyedItem(key string, value []byte) Item {
	enc := codec.PutUvarint(nil, 1)
	enc = codec.PutCompositeKey(enc, types.CompositeKey{Key: types.Key(key), Version: 3})
	return framed(codec.PutBytes(codec.PutVarint(enc, -1), value))
}

// itemRecords lists the records items hold, in slot order.
func itemRecords(t *testing.T, items []Item) []types.Record {
	t.Helper()
	var recs []types.Record
	for _, it := range items {
		recs = append(recs, decodeItem(t, it)...)
	}
	return recs
}

// segmentRoundTrip codes items as one segment and checks that it decodes to
// their records, whole and slot by slot, and returns it.
func segmentRoundTrip(t *testing.T, items []Item) []byte {
	t.Helper()
	seg, err := new(coder).appendSegment(nil, 0, items, allOf(items))
	if err != nil {
		t.Fatal(err)
	}
	want := itemRecords(t, items)
	_, slots, recs, err := DecodeSegment(seg, nil)
	if err != nil || slots != len(want) || len(recs) != len(want) {
		t.Fatalf("code %#x: %d slots, %d records of %d, %v", seg[0], slots, len(recs), len(want), err)
	}
	for i, r := range want {
		if recs[i].CK != r.CK || !bytes.Equal(recs[i].Value, r.Value) {
			t.Fatalf("code %#x: slot %d decoded to %v = %q, want %v = %q", seg[0], i, recs[i].CK, recs[i].Value, r.CK, r.Value)
		}
		_, _, one, err := DecodeSegment(seg, bitset.FromSlice([]uint32{uint32(i)}))
		if err != nil || len(one) != 1 || one[0].CK != r.CK || !bytes.Equal(one[0].Value, r.Value) {
			t.Fatalf("code %#x: slot %d alone: %d records, %v", seg[0], i, len(one), err)
		}
	}
	return seg
}

// TestKeyedSegmentRoundTrip: a segment whose anchor spells its key is keyed,
// and its values come back byte for byte, whole and slot by slot, at every
// literal width, templated and implied or not, beside raw escapes, sub-chunks
// and keys of another width; a key shorter than minCopy leaves the segment
// unkeyed; and values that differ from the anchor in their keys alone state
// no literal.
func TestKeyedSegmentRoundTrip(t *testing.T) {
	// Documents that spell their keys and then 64 symbols of an alphabet of
	// n bytes where the anchor has dots: a segment's literals are those
	// symbols, and the code's width is the alphabet's.
	docs := func(rng *rand.Rand, keys, n int, key func(int) string) []Item {
		items := make([]Item, keys)
		for i := range items {
			k := key(i)
			v := append([]byte(`{"id":"`+k+`","v":"`), bytes.Repeat([]byte{'.'}, 64)...)
			if i > 0 {
				for j := len(v) - 64; j < len(v); j++ {
					// The bytes from 0x80 up, wrapping past the dot.
					if v[j] = byte(0x80 + rng.Intn(n)); v[j] >= '.' && v[j] < 0x80 {
						v[j]++
					}
				}
			}
			items[i] = keyedItem(k, append(v, `"}`...))
		}
		return items
	}
	wide := func(i int) string { return fmt.Sprintf("key-%06d", i) }
	t.Run("widths", func(t *testing.T) {
		rng := rand.New(rand.NewSource(65))
		for w, n := range []int{1, 3, 7, 15, 31, 63, 127, 255} {
			seg := segmentRoundTrip(t, docs(rng, 120, n, wide))
			code, _, err := parseCode(seg)
			if err != nil || !code.keyed || code.template == nil || code.width != uint(w+1) {
				t.Errorf("an alphabet of %d: code %#x (width %d, keyed %v), want keyed and templated at width %d, %v", n, seg[0], code.width, code.keyed, w+1, err)
			}
		}
	})
	t.Run("templated and implied", func(t *testing.T) {
		for _, keys := range []int{2, 40} {
			_, items := revisionItems(t, keys, 1, documents(docgen.New(65), 96))
			seg := segmentRoundTrip(t, items)
			if want := byte(keyed); keys == 40 {
				if want |= templated | implied; seg[0]&want != want {
					t.Errorf("%d documents: code %#x, want keyed, templated and implied", keys, seg[0])
				}
			} else if seg[0]&want == 0 {
				t.Errorf("%d documents: code %#x, want keyed", keys, seg[0])
			}
		}
	})
	t.Run("raw escapes", func(t *testing.T) {
		items := docs(rand.New(rand.NewSource(66)), 40, 15, wide)
		for i := 3; i < len(items); i += 5 {
			items[i] = keyedItem(wide(i), []byte("shares nothing"))
		}
		items = append(items, keyedItem(wide(len(items)), nil))
		if seg := segmentRoundTrip(t, items); seg[0]&keyed == 0 {
			t.Errorf("code %#x, want keyed", seg[0])
		}
	})
	t.Run("sub-chunks", func(t *testing.T) {
		_, items := revisionItems(t, 40, 4, documents(docgen.New(67), 96))
		if seg := segmentRoundTrip(t, items); seg[0]&keyed == 0 {
			t.Errorf("code %#x, want keyed", seg[0])
		}
	})
	t.Run("mixed key widths", func(t *testing.T) {
		// Keys of ten bytes and of six to nine: only the anchor's width is
		// spliced, the others are coded against the anchor as it is.
		items := docs(rand.New(rand.NewSource(68)), 60, 15, func(i int) string {
			if i%3 == 1 {
				return fmt.Sprintf("key-%d", i*i)
			}
			return wide(i)
		})
		if seg := segmentRoundTrip(t, items); seg[0]&keyed == 0 {
			t.Errorf("code %#x, want keyed", seg[0])
		}
	})
	t.Run("short keys", func(t *testing.T) {
		items := docs(rand.New(rand.NewSource(69)), 40, 15, func(i int) string { return fmt.Sprintf("%03d", i) })
		if seg := segmentRoundTrip(t, items); seg[0]&keyed != 0 {
			t.Errorf("keys of %d bytes: code %#x, want unkeyed", minCopy-1, seg[0])
		}
	})
	t.Run("keys alone differ", func(t *testing.T) {
		items := make([]Item, 40)
		for i := range items {
			items[i] = keyedItem(wide(i), []byte(`{"id":"`+wide(i)+`","x":1}`))
		}
		seg := segmentRoundTrip(t, items)
		var parts anatomy
		parts.add(t, seg)
		if seg[0]&keyed == 0 || parts.literals != 0 {
			t.Errorf("code %#x: %d bytes of literals, want keyed and none", seg[0], parts.literals)
		}
	})
}

// TestUnkeyedSegmentsUnchanged: a segment whose anchor does not spell its key
// — random blobs, prose, rows of numbers — is not keyed, and is coded byte
// for byte as a format-v11 build coded it: the digests below were taken on
// one.
func TestUnkeyedSegmentsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name, digest string
		value        func(types.Key, []byte) []byte
	}{
		{"blobs", "3d304a461c5b5c276f37f886c1fec17a6550185b750b73aab0b5c7483874c1f5", func(types.Key, []byte) []byte {
			v := make([]byte, 200)
			rng.Read(v)
			return v
		}},
		{"prose", "63183e3d61852b7e182d8205ba4bc603de0a062190098b18e3bd6c2f2b62e3a0", func(types.Key, []byte) []byte { return prose(rng, 300) }},
		{"digits", "6849e720b5c9d7d0067e7e521e9db18e28e3072a84f73cfd27a90773fd11ea05", func(types.Key, []byte) []byte { return numbers(rng, 200) }},
	} {
		_, items := revisionItems(t, 100, 1, tc.value)
		seg, err := new(coder).appendSegment(nil, 0, items, allOf(items))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(seg)
		if got := hex.EncodeToString(sum[:]); seg[0]&keyed != 0 || got != tc.digest {
			t.Errorf("%s: code %#x, digest %s, want unkeyed and %s", tc.name, seg[0], got, tc.digest)
		}
	}
}
