package chunk

import (
	"bytes"
	"testing"

	"rstore/internal/bitset"
	"rstore/internal/docgen"
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
	items := recordItems(f, c)
	chain, err := EncodeItem(c, []uint32{0, 2, 3}, []int32{-1, 0, 1})
	if err != nil {
		f.Fatal(err)
	}
	items = append(items, Item{CK: c.Record(0).CK, Members: []uint32{0, 2, 3}, Parents: []int32{-1, 0, 1}, Encoded: chain})
	for _, idxs := range [][]uint32{{0, 1}, {2, 3}, {4, 1}} {
		seg, err := appendSegment(nil, 7, items, idxs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
	}
	// Segments of documents, whose values are run lists against the first: one
	// record an item, and sub-chunks of four.
	for _, k := range []int{1, 4} {
		_, items := revisionItems(f, 6, k, documents(docgen.New(int64(k)), 96))
		seg, err := appendSegment(nil, 0, items, allOf(items))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0, 1, 1, 0, 0xff, 0xff, 0x03})
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

func FuzzDecodeMap(f *testing.F) {
	m := NewMap(64)
	m.Versions[1] = bitset.FromSlice([]uint32{3, 60})
	m.Versions[9] = bitset.FromSlice([]uint32{0})
	f.Add(m.AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{64, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeMap(data, 64)
		if err == nil && got != nil {
			for v, b := range got.Versions {
				_ = v
				_ = b.Count()
			}
		}
	})
}

func FuzzDecodeItem(f *testing.F) {
	c := miniCorpus(f)
	enc, err := EncodeItem(c, []uint32{0, 2, 3}, []int32{-1, 0, 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, _, err := DecodeItem(data)
		if err == nil && dec != nil {
			for _, r := range dec.Records {
				_ = r.Value
			}
		}
	})
}
