package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

// Decoder hardening: arbitrary bytes off the network must never panic the
// frame reader, and anything it accepts must be a frame WriteFrame could
// have produced.

func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrame(&valid, []byte("hello, frame")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var empty bytes.Buffer
	if err := WriteFrame(&empty, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// A header announcing more than MaxFrame with no body: must be
	// rejected as corruption, not allocated.
	huge := make([]byte, reclog.FrameSize)
	binary.LittleEndian.PutUint32(huge[0:4], MaxFrame+1)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return // torn/corrupt input; rejecting is the contract
		}
		// An accepted frame must re-encode to exactly the bytes consumed.
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatalf("re-encoding accepted payload: %v", err)
		}
		if len(data) < out.Len() || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted frame does not round-trip: read %d-byte payload from %d input bytes", len(payload), len(data))
		}
		// Reading into a reused buffer must yield the same payload.
		again, err := ReadFrame(bytes.NewReader(data), make([]byte, 0, 64))
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("buffer-reuse read disagrees: %v", err)
		}
	})
}

// The hash-tree payload decoders guard the anti-entropy path: their input
// is whatever a peer (or a corrupted stream the frame checksum happened to
// miss) put on the wire. Rejections must classify as corruption, accepted
// inputs must round-trip semantically — byte-identity is not required
// because uvarints admit non-canonical encodings, but decode(encode(
// decode(x))) must be a fixed point.

func FuzzHashTreeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(PutHashTree(nil, engine.TreeDigest{}))
	f.Add(PutHashTree(nil, engine.TreeDigest{
		Root:   0xdeadbeefcafef00d,
		Bytes:  12345,
		Leaves: []engine.LeafDigest{{Hash: 1, Keys: 2}, {Hash: 0, Keys: 0}, {Hash: 1 << 63, Keys: 1}},
	}))
	// A leaf count past MaxHashFanout must be rejected before allocation.
	var huge []byte
	huge = putU64(huge, 1)
	huge = append(huge, 0) // bytes
	huge = binary.AppendUvarint(huge, engine.MaxHashFanout+1)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := HashTree(data)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("rejection not classified as corruption: %v", err)
			}
			return
		}
		if uint64(len(d.Leaves)) > engine.MaxHashFanout {
			t.Fatalf("accepted %d leaves past the fanout limit", len(d.Leaves))
		}
		// Semantic round-trip: re-encoding the accepted digest and decoding
		// it again must reproduce it exactly.
		again, err := HashTree(PutHashTree(nil, d))
		if err != nil {
			t.Fatalf("re-decoding accepted digest: %v", err)
		}
		if again.Root != d.Root || again.Bytes != d.Bytes || len(again.Leaves) != len(d.Leaves) {
			t.Fatalf("digest does not round-trip: %+v vs %+v", again, d)
		}
		for i := range d.Leaves {
			if again.Leaves[i] != d.Leaves[i] {
				t.Fatalf("leaf %d does not round-trip: %+v vs %+v", i, again.Leaves[i], d.Leaves[i])
			}
		}
	})
}

func FuzzHashRangeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(PutHashRange(nil, nil))
	f.Add(PutHashRange(nil, []engine.KeyHash{
		{Key: "alpha", Hash: 42},
		{Key: "", Hash: 0},
		{Key: "z\x00binary", Hash: 1 << 63},
	}))
	// A count the body cannot hold must be rejected before allocation.
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		khs, err := HashRange(data)
		if err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("rejection not classified as corruption: %v", err)
			}
			return
		}
		again, err := HashRange(PutHashRange(nil, khs))
		if err != nil {
			t.Fatalf("re-decoding accepted key hashes: %v", err)
		}
		if len(again) != len(khs) {
			t.Fatalf("length does not round-trip: %d vs %d", len(again), len(khs))
		}
		for i := range khs {
			if again[i] != khs[i] {
				t.Fatalf("entry %d does not round-trip: %+v vs %+v", i, again[i], khs[i])
			}
		}
	})
}
