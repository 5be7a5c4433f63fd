package chunk

import (
	"testing"

	"rstore/internal/bitset"
)

// Fuzz targets: every decoder must reject arbitrary input with an error —
// never panic, never loop. Seed corpora include valid encodings so the
// mutators explore near-valid space. `go test` runs the seeds; `go test
// -fuzz=FuzzDecodeChunk ./internal/chunk` explores further.

func FuzzDecodeChunk(f *testing.F) {
	c := miniCorpus(f)
	l := NewLayout(c, newFakeProj())
	for _, idxs := range [][]uint32{{0, 1}, {2, 3}} {
		payload, err := l.AddChunk(recordItems(f, c), idxs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeChunk(data)
		if err == nil {
			// Valid decodes must produce self-consistent records.
			for _, r := range recs {
				_ = r.CK
				_ = r.Value
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
