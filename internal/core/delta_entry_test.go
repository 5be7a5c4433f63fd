package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"rstore/internal/codec"
	"rstore/internal/types"
)

// FuzzDecodeDeltaEntry: Open decodes delta-store entries straight off the
// KVS to replay them, so decodeDeltaEntry must refuse what it
// cannot read with types.ErrCorrupt — never panic, never size an allocation
// by a count the entry has no bytes for, never truncate a parent id — and
// what it accepts must survive a re-encode, which allocates the entry at
// exactly its length. Seeded with encodeDeltaEntry outputs, the parent count
// that once reached makeslice unchecked, and a parent id one past 32 bits.
func FuzzDecodeDeltaEntry(f *testing.F) {
	root := &types.Delta{Adds: []types.Record{{CK: types.CompositeKey{Key: "a", Version: 0}, Value: []byte("a0")}}}
	merge := &types.Delta{
		Adds: []types.Record{
			{CK: types.CompositeKey{Key: "a", Version: 2}, Value: []byte("a2")},
			{CK: types.CompositeKey{Key: "b", Version: 2}, Value: []byte{}},
		},
		Dels: []types.CompositeKey{{Key: "a", Version: 0}},
	}
	f.Add(encodeDeltaEntry([]types.VersionID{types.InvalidVersion}, root))
	f.Add(encodeDeltaEntry([]types.VersionID{1, 0}, merge))
	f.Add(encodeDeltaEntry(nil, &types.Delta{}))
	f.Add(codec.PutUvarint(nil, 1<<62))
	wide := codec.PutDelta(codec.PutUvarint(codec.PutUvarint(nil, 1), 1<<32), root)
	if _, _, err := decodeDeltaEntry(wide); !errors.Is(err, types.ErrCorrupt) {
		f.Fatalf("parent id 1<<32 decoded (err %v), want ErrCorrupt", err)
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		parents, d, err := decodeDeltaEntry(data)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("a refused entry is not ErrCorrupt: %v", err)
			}
			return
		}
		entry := encodeDeltaEntry(parents, d)
		if cap(entry) != len(entry) {
			t.Fatalf("entry of %d bytes allocated at %d", len(entry), cap(entry))
		}
		again, d2, err := decodeDeltaEntry(entry)
		if err != nil || !slices.Equal(again, parents) || !reflect.DeepEqual(d2, d) {
			t.Fatalf("re-encoded entry decodes to %v %+v (err %v), want %v %+v", again, d2, err, parents, d)
		}
	})
}
