package codec

import (
	"bytes"
	"testing"

	"rstore/internal/types"
)

// Decoder hardening: arbitrary bytes must never panic any codec entry point.

func FuzzPostingList(f *testing.F) {
	f.Add(PutPostingList(nil, []uint32{1, 5, 9, 100000}))
	f.Add([]byte{})
	f.Add([]byte{200, 200, 200, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, _, err := PostingList(data)
		if err == nil {
			// Valid posting lists are strictly increasing.
			for i := 1; i < len(ids); i++ {
				if ids[i] <= ids[i-1] {
					t.Fatalf("non-increasing posting list decoded: %v", ids)
				}
			}
		}
	})
}

func FuzzDecodeDelta(f *testing.F) {
	d := &types.Delta{
		Adds: []types.Record{{CK: types.CompositeKey{Key: "k", Version: 3}, Value: []byte("vv")}},
		Dels: []types.CompositeKey{{Key: "k", Version: 1}},
	}
	f.Add(PutDelta(nil, d))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeDelta(data)
		if err == nil && got != nil {
			for _, r := range got.Adds {
				_ = r.CK
			}
		}
	})
}

// FuzzDeltaLen: DeltaLen is exactly what PutDelta appends, for deltas whose
// counts, key and value lengths and versions cross varint widths. The records
// are data split at its zero bytes, each half key and half value, with
// versions v shifted right by their index; dels more deleted keys follow.
func FuzzDeltaLen(f *testing.F) {
	f.Add([]byte("key\x00value"), uint32(3), uint8(1))
	f.Add([]byte{}, uint32(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 600), uint32(1<<31), uint8(200))
	f.Add(bytes.Repeat([]byte{'a', 0}, 150), ^uint32(0), uint8(130))
	f.Fuzz(func(t *testing.T, data []byte, v uint32, dels uint8) {
		d := &types.Delta{}
		for i, part := range bytes.Split(data, []byte{0}) {
			ck := types.CompositeKey{Key: types.Key(part[:len(part)/2]), Version: types.VersionID(v >> (i % 32))}
			d.Adds = append(d.Adds, types.Record{CK: ck, Value: part[len(part)/2:]})
		}
		for i := range int(dels) {
			d.Dels = append(d.Dels, types.CompositeKey{Key: types.Key(data[:min(i, len(data))]), Version: types.VersionID(v << (i % 32))})
		}
		if got, want := DeltaLen(d), len(PutDelta(nil, d)); got != want {
			t.Fatalf("DeltaLen = %d, PutDelta appends %d", got, want)
		}
	})
}

func FuzzRecord(f *testing.F) {
	f.Add(PutRecord(nil, types.Record{
		CK: types.CompositeKey{Key: "abc", Version: 7}, Value: []byte("payload"),
	}))
	f.Add([]byte{3, 'a', 'b'})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = Record(data)
	})
}
