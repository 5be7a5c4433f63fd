package codec

import (
	"fmt"

	"rstore/internal/types"
)

// PutDelta appends a serialized delta: the added records (with payloads)
// followed by the deleted composite keys.
func PutDelta(buf []byte, d *types.Delta) []byte {
	buf = PutUvarint(buf, uint64(len(d.Adds)))
	for _, r := range d.Adds {
		buf = PutRecord(buf, r)
	}
	buf = PutUvarint(buf, uint64(len(d.Dels)))
	for _, ck := range d.Dels {
		buf = PutCompositeKey(buf, ck)
	}
	return buf
}

// DeltaLen is the length of d's serialization: what PutDelta appends.
func DeltaLen(d *types.Delta) int {
	n := UvarintLen(uint64(len(d.Adds))) + UvarintLen(uint64(len(d.Dels)))
	for _, r := range d.Adds {
		n += compositeKeyLen(r.CK) + BytesLen(len(r.Value))
	}
	for _, ck := range d.Dels {
		n += compositeKeyLen(ck)
	}
	return n
}

// Delta consumes a serialized delta.
func Delta(buf []byte) (*types.Delta, []byte, error) {
	n, rest, err := Uvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	d := &types.Delta{}
	for i := uint64(0); i < n; i++ {
		var r types.Record
		r, rest, err = Record(rest)
		if err != nil {
			return nil, nil, err
		}
		d.Adds = append(d.Adds, r)
	}
	n, rest, err = Uvarint(rest)
	if err != nil {
		return nil, nil, err
	}
	for i := uint64(0); i < n; i++ {
		var ck types.CompositeKey
		ck, rest, err = CompositeKey(rest)
		if err != nil {
			return nil, nil, err
		}
		d.Dels = append(d.Dels, ck)
	}
	return d, rest, nil
}

// DecodeDelta consumes a serialized delta and requires the buffer to be
// fully consumed.
func DecodeDelta(buf []byte) (*types.Delta, error) {
	d, rest, err := Delta(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing delta bytes", types.ErrCorrupt)
	}
	return d, nil
}
