// Package codec provides the binary encodings shared by every structure
// RStore persists to the backing key-value store: unsigned varints, zig-zag
// signed varints, length-prefixed byte strings, and delta-gap compressed
// posting lists (the adjacency-list compression for the projection indexes,
// paper §2.4 "standard techniques from inverted indexes literature").
//
// All encoders append to a caller-supplied buffer and return the extended
// slice; all decoders consume from the front of a slice and return the
// remaining tail, so structures compose without intermediate copies.
package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"rstore/internal/types"
)

// PutUvarint appends v as an unsigned varint.
func PutUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// Uvarint consumes an unsigned varint from the front of buf.
func Uvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", types.ErrCorrupt)
	}
	return v, buf[n:], nil
}

// PutVarint appends v as a zig-zag signed varint.
func PutVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// Varint consumes a zig-zag signed varint from the front of buf.
func Varint(buf []byte) (int64, []byte, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", types.ErrCorrupt)
	}
	return v, buf[n:], nil
}

// PutBytes appends b with a uvarint length prefix.
func PutBytes(buf, b []byte) []byte {
	buf = PutUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// BytesLen reports the size PutBytes or PutString gives an n-byte string, so
// an encoder can size its buffer before it encodes.
func BytesLen(n int) int { return UvarintLen(uint64(n)) + n }

// Bytes consumes a length-prefixed byte string. The returned slice aliases
// buf; callers that retain it across buffer reuse must copy.
func Bytes(buf []byte) ([]byte, []byte, error) {
	n, rest, err := Uvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(rest)) < n {
		return nil, nil, fmt.Errorf("%w: short byte string (want %d, have %d)", types.ErrCorrupt, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// PutString appends s with a uvarint length prefix.
func PutString(buf []byte, s string) []byte {
	buf = PutUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// String consumes a length-prefixed string.
func String(buf []byte) (string, []byte, error) {
	b, rest, err := Bytes(buf)
	if err != nil {
		return "", nil, err
	}
	return string(b), rest, nil
}

// PutPostingList appends a sorted, strictly-increasing list of uint32 ids
// using delta-gap varint compression: the count, the first id, then the gaps.
// This is the standard inverted-index adjacency compression used to persist
// the version→chunk and key→chunk projections.
func PutPostingList(buf []byte, ids []uint32) []byte {
	buf = PutUvarint(buf, uint64(len(ids)))
	prev := uint32(0)
	for i, id := range ids {
		if i == 0 {
			buf = PutUvarint(buf, uint64(id))
		} else {
			buf = PutUvarint(buf, uint64(id-prev))
		}
		prev = id
	}
	return buf
}

// PostingList consumes a delta-gap compressed posting list. It validates that
// the list is strictly increasing (gaps after the first element must be ≥ 1;
// a zero gap would mean a duplicate id, which the encoders never produce).
func PostingList(buf []byte) ([]uint32, []byte, error) {
	n, rest, err := Uvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]uint32, 0, min(n, uint64(len(rest)))) // an id takes a byte at least
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var gap uint64
		gap, rest, err = Uvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		var id uint64
		if i == 0 {
			id = gap
		} else {
			if gap == 0 {
				return nil, nil, fmt.Errorf("%w: zero gap in posting list", types.ErrCorrupt)
			}
			id = prev + gap
		}
		if id > uint64(^uint32(0)) {
			return nil, nil, fmt.Errorf("%w: posting id overflow", types.ErrCorrupt)
		}
		ids = append(ids, uint32(id))
		prev = id
	}
	return ids, rest, nil
}

// PutCompositeKey appends a composite key.
func PutCompositeKey(buf []byte, ck types.CompositeKey) []byte {
	buf = PutString(buf, string(ck.Key))
	return PutUvarint(buf, uint64(ck.Version))
}

// compositeKeyLen is the length of ck's encoding: what PutCompositeKey
// appends.
func compositeKeyLen(ck types.CompositeKey) int {
	return BytesLen(len(ck.Key)) + UvarintLen(uint64(ck.Version))
}

// CompositeKey consumes a composite key.
func CompositeKey(buf []byte) (types.CompositeKey, []byte, error) {
	k, rest, err := String(buf)
	if err != nil {
		return types.CompositeKey{}, nil, err
	}
	v, rest, err := Uvarint(rest)
	if err != nil {
		return types.CompositeKey{}, nil, err
	}
	return types.CompositeKey{Key: types.Key(k), Version: types.VersionID(v)}, rest, nil
}

// PutRecord appends a record (composite key + payload).
func PutRecord(buf []byte, r types.Record) []byte {
	buf = PutCompositeKey(buf, r.CK)
	return PutBytes(buf, r.Value)
}

// Record consumes a record. The payload is copied so the result does not
// alias buf.
func Record(buf []byte) (types.Record, []byte, error) {
	ck, rest, err := CompositeKey(buf)
	if err != nil {
		return types.Record{}, nil, err
	}
	val, rest, err := Bytes(rest)
	if err != nil {
		return types.Record{}, nil, err
	}
	out := make([]byte, len(val))
	copy(out, val)
	return types.Record{CK: ck, Value: out}, rest, nil
}

// UvarintLen reports the encoded size of v without encoding it.
func UvarintLen(v uint64) int {
	if v == 0 {
		return 1
	}
	return (bits.Len64(v) + 6) / 7
}
