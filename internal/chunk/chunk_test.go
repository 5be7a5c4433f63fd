package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rstore/internal/bitset"
	"rstore/internal/codec"
	"rstore/internal/corpus"
	"rstore/internal/types"
	"rstore/internal/vgraph"
	"rstore/internal/workload"
)

// miniCorpus builds a 3-version chain where key "doc" evolves (large,
// similar payloads — the sub-chunk case) and "other" stays put.
func miniCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	g := vgraph.New()
	v0, _ := g.AddRoot()
	v1, _ := g.AddVersion(v0)
	v2, _ := g.AddVersion(v1)

	base := bytes.Repeat([]byte("lorem ipsum dolor sit amet "), 40)
	mod1 := append([]byte(nil), base...)
	copy(mod1[100:], "EDITED-SECTION-ONE")
	mod2 := append([]byte(nil), mod1...)
	copy(mod2[500:], "EDITED-SECTION-TWO")

	c := corpus.New(g)
	must := func(v types.VersionID, d *types.Delta) {
		t.Helper()
		if err := c.AddVersionDelta(v, d); err != nil {
			t.Fatal(err)
		}
	}
	must(v0, &types.Delta{Adds: []types.Record{
		{CK: types.CompositeKey{Key: "doc", Version: 0}, Value: base},
		{CK: types.CompositeKey{Key: "other", Version: 0}, Value: []byte("tiny")},
	}})
	must(v1, &types.Delta{
		Adds: []types.Record{{CK: types.CompositeKey{Key: "doc", Version: 1}, Value: mod1}},
		Dels: []types.CompositeKey{{Key: "doc", Version: 0}},
	})
	must(v2, &types.Delta{
		Adds: []types.Record{{CK: types.CompositeKey{Key: "doc", Version: 2}, Value: mod2}},
		Dels: []types.CompositeKey{{Key: "doc", Version: 1}},
	})
	return c
}

// decodeItem returns the records of an item, read back the way the store
// reads them: as a segment of that one item.
func decodeItem(t testing.TB, it Item) []types.Record {
	t.Helper()
	seg, err := new(coder).appendSegment(nil, 0, []Item{it}, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	_, _, recs, err := DecodeSegment(seg, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return recs
}

func TestItemRoundTripSingle(t *testing.T) {
	c := miniCorpus(t)
	it := RecordItems(c, []uint32{0})[0]
	recs := decodeItem(t, it)
	if len(recs) != 1 || recs[0].CK != c.Record(0).CK {
		t.Fatalf("decoded %+v", recs)
	}
	if !bytes.Equal(recs[0].Value, c.Record(0).Value) {
		t.Fatal("payload mismatch")
	}
}

func TestItemRoundTripDeltaChain(t *testing.T) {
	c := miniCorpus(t)
	// Members: doc@0 (id 0), doc@1 (id 2), doc@2 (id 3) — chain parents.
	members := []uint32{0, 2, 3}
	parents := []int32{-1, 0, 1}
	enc, err := EncodeItem(c, members, parents)
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeItem(t, framed(enc))
	for i, id := range members {
		want := c.Record(id)
		if recs[i].CK != want.CK || !bytes.Equal(recs[i].Value, want.Value) {
			t.Fatalf("member %d mismatch", i)
		}
	}
	// Compression: the chain must be far smaller than raw members.
	raw := 0
	for _, id := range members {
		raw += len(c.Record(id).Value)
	}
	if len(enc) > raw*2/3 {
		t.Fatalf("encoded %d bytes vs raw %d: no compression", len(enc), raw)
	}
}

func TestItemIncompressibleFallsBackToRaw(t *testing.T) {
	// Two unrelated random payloads: delta ≥ raw, the encoder must store
	// raw (-2 parent marker) and still round-trip.
	g := vgraph.New()
	v0, _ := g.AddRoot()
	c := corpus.New(g)
	rng := rand.New(rand.NewSource(8))
	a := make([]byte, 500)
	b := make([]byte, 500)
	rng.Read(a)
	rng.Read(b)
	err := c.AddVersionDelta(v0, &types.Delta{Adds: []types.Record{
		{CK: types.CompositeKey{Key: "k", Version: 0}, Value: a},
		{CK: types.CompositeKey{Key: "k2", Version: 0}, Value: b},
	}})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeItem(c, []uint32{0, 1}, []int32{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if recs := decodeItem(t, framed(enc)); !bytes.Equal(recs[1].Value, b) {
		t.Fatal("raw fallback round trip failed")
	}
}

// TestEncodeItemSizedOnce: the buffer is allocated once — to the byte for
// raw members, never short when some members are deltas or raw fallbacks — and
// a record's item holds no buffer at all: it borrows its record's value.
func TestEncodeItemSizedOnce(t *testing.T) {
	c := miniCorpus(t)
	for id, it := range recordItems(c) {
		if it.Encoded != nil || &it.Value[0] != &c.Record(uint32(id)).Value[0] {
			t.Errorf("record %d: its item frames %d bytes of its own, value borrowed: %v", id, len(it.Encoded), &it.Value[0] == &c.Record(uint32(id)).Value[0])
		}
	}
	var bound int
	for _, it := range RecordItems(c, []uint32{0, 2, 3}) {
		bound += it.EncodedLen()
	}
	enc, err := EncodeItem(c, []uint32{0, 2, 3}, []int32{-1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if cap(enc) > bound || len(enc) >= cap(enc) {
		t.Errorf("delta chain: %d bytes in a buffer of %d; three raw items are %d", len(enc), cap(enc), bound)
	}
	it, err := NewItem(c, []uint32{0, 2, 3}, []int32{-1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if head := len(enc) - len(it.Encoded); cap(it.Encoded) > bound-head || !bytes.Equal(encodingOf(it), enc) {
		t.Errorf("delta chain: NewItem framed %d bytes in a buffer of %d, EncodeItem %d", len(it.Encoded), cap(it.Encoded), len(enc))
	}
}

// TestRecordItemsMatchEncodeItem: RecordItems spells every record as
// EncodeItem does and RankItems ranks the items' keys in key order — over a
// whole generated corpus and over a run of its records, as a flush asks for
// its batch. RankAll ranks the whole corpus's items as RankItems does and
// returns the keys it ranked them by, ascending.
func TestRecordItemsMatchEncodeItem(t *testing.T) {
	c, err := workload.Generate(workload.Spec{
		Name: "items", Versions: 10, AvgDepth: 3, RecordsPerVersion: 6000,
		UpdatePct: 0.2, Update: workload.RandomUpdate, RecordSize: 48, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]uint32, c.NumRecords())
	for i := range all {
		all[i] = uint32(i)
	}
	for _, ids := range [][]uint32{all, all[len(all)/3 : len(all)/3+50]} {
		items := RecordItems(c, ids)
		RankItems(c, items)
		for i, id := range ids {
			want, err := EncodeItem(c, []uint32{id}, []int32{-1})
			if err != nil {
				t.Fatal(err)
			}
			it := items[i]
			if !bytes.Equal(encodingOf(it), want) || it.EncodedLen() != len(want) || it.CK != c.Record(id).CK || !slices.Equal(it.Members, []uint32{id}) || !slices.Equal(it.Parents, []int32{-1}) {
				t.Fatalf("record %d: item %+v, EncodeItem spells it %x", id, it, want)
			}
		}
		byKey := slices.Clone(items)
		slices.SortFunc(byKey, func(a, b Item) int { return strings.Compare(string(a.CK.Key), string(b.CK.Key)) })
		for i := 1; i < len(byKey); i++ {
			a, b := byKey[i-1], byKey[i]
			if (a.CK.Key == b.CK.Key) != (a.Rank == b.Rank) || a.Rank > b.Rank {
				t.Fatalf("%q ranked %d, %q ranked %d", a.CK.Key, a.Rank, b.CK.Key, b.Rank)
			}
		}
	}
	items, ranked := RecordItems(c, all), RecordItems(c, all)
	RankItems(c, ranked)
	keys := RankAll(c, items)
	if !slices.Equal(keys, slices.Sorted(slices.Values(c.Keys()))) {
		t.Fatalf("RankAll returned %d keys, not the corpus's %d in order", len(keys), c.NumKeys())
	}
	for i := range items {
		if items[i].Rank != ranked[i].Rank || keys[items[i].Rank] != items[i].CK.Key {
			t.Fatalf("record %d: RankAll ranks %q %d, RankItems %d", i, items[i].CK.Key, items[i].Rank, ranked[i].Rank)
		}
	}
}

func TestEncodeItemValidation(t *testing.T) {
	c := miniCorpus(t)
	if _, err := EncodeItem(c, nil, nil); err == nil {
		t.Error("empty item accepted")
	}
	if _, err := EncodeItem(c, []uint32{0}, []int32{0}); err == nil {
		t.Error("representative with non-nil parent accepted")
	}
	if _, err := EncodeItem(c, []uint32{0, 2}, []int32{-1, 5}); err == nil {
		t.Error("forward parent reference accepted")
	}
	if _, err := EncodeItem(c, []uint32{0, 2}, []int32{-1}); err == nil {
		t.Error("parents length mismatch accepted")
	}
}

func TestMapRoundTrip(t *testing.T) {
	m := NewMap(100)
	m.Versions[3] = bitset.FromSlice([]uint32{0, 50})
	m.Versions[7] = bitset.FromSlice([]uint32{99})
	got, err := DecodeMap(m.AppendBinary(nil), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSlots != 100 || len(got.Versions) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if !got.SlotsOf(3).Contains(0) || !got.SlotsOf(3).Contains(50) || got.SlotsOf(3).Contains(1) {
		t.Fatal("version 3 slots")
	}
	if !got.SlotsOf(7).Contains(99) {
		t.Fatal("version 7 slots")
	}
	if got.SlotsOf(99) != nil {
		t.Fatal("unknown version has slots")
	}
	// Trailing bytes rejected.
	if _, err := DecodeMap(append(m.AppendBinary(nil), 1), 100); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A map for a chunk of another size, and a bitmap past the chunk's slots.
	if _, err := DecodeMap(m.AppendBinary(nil), 101); !errors.Is(err, types.ErrCorrupt) {
		t.Errorf("map of 100 slots decoded for a chunk of 101 records: %v", err)
	}
	m.Versions[7].Set(100)
	if _, err := DecodeMap(m.AppendBinary(nil), 100); !errors.Is(err, types.ErrCorrupt) {
		t.Errorf("bitmap naming slot 100 of 100 decoded: %v", err)
	}
}

// framed is the item whose EncodeItem bytes are enc: its representative's
// key, version and value read from them, the other members' framing left as
// it is. Its Members count the members and name record 0.
func framed(enc []byte) Item {
	n, rest, err := codec.Uvarint(enc)
	if err != nil {
		panic(err)
	}
	first, rest, err := parseMember(rest)
	if err != nil || first.parent != -1 {
		panic(fmt.Sprintf("an item's representative: %+v, %v", first, err))
	}
	it := Item{CK: types.CompositeKey{Key: types.Key(first.key), Version: types.VersionID(first.version)}, Value: first.body, Members: make([]uint32, n)}
	if n > 1 {
		it.Encoded = rest
	}
	return it
}

// encodingOf is EncodeItem's bytes for it.
func encodingOf(it Item) []byte {
	enc := codec.PutUvarint(nil, uint64(len(it.Members)))
	enc = codec.PutCompositeKey(enc, it.CK)
	enc = codec.PutBytes(codec.PutVarint(enc, -1), it.Value)
	return append(enc, it.Encoded...)
}
