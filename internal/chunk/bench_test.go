package chunk

import (
	"math/rand"
	"testing"

	"rstore/internal/bitset"
	"rstore/internal/docgen"
	"rstore/internal/types"
)

// BenchmarkSegmentCodec measures the segment grammar on one full segment
// (SegmentTarget of single-record items) of §5.1 documents of 256 and 512
// bytes, whose values are stored as run lists against the first, and of random
// blobs, which are all stored raw: encoding, decoding every slot, and decoding
// one slot in the middle as a point read does. MB/s counts the segment's plain
// bytes — what its items were charged — on every line, so the three compare;
// stored/plain is the segment value's size against the same.
func BenchmarkSegmentCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	for _, tc := range []struct {
		name  string
		size  int
		value func(types.Key, []byte) []byte
	}{
		{"docs256", 256, documents(docgen.New(256), 256)},
		{"docs512", 512, documents(docgen.New(512), 512)},
		{"blobs256", 256, func(types.Key, []byte) []byte {
			v := make([]byte, 256)
			rng.Read(v)
			return v
		}},
	} {
		_, items := revisionItems(b, SegmentTarget/tc.size, 1, tc.value)
		idxs := allOf(items)
		plain := 0
		for _, it := range items {
			plain += len(it.Encoded)
		}
		seg, err := appendSegment(nil, 0, items, idxs)
		if err != nil {
			b.Fatal(err)
		}
		run := func(op string, f func()) {
			b.Run(tc.name+"/"+op, func(b *testing.B) {
				b.SetBytes(int64(plain))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f()
				}
				b.ReportMetric(float64(len(seg))/float64(plain), "stored/plain")
			})
		}
		buf := make([]byte, 0, plain)
		run("encode", func() {
			if buf, err = appendSegment(buf[:0], 0, items, idxs); err != nil || len(buf) != len(seg) {
				b.Fatal(len(buf), err)
			}
		})
		run("decode", func() {
			if _, _, recs, err := DecodeSegment(seg, nil); err != nil || len(recs) != len(items) {
				b.Fatal(len(recs), err)
			}
		})
		one := bitset.FromSlice([]uint32{uint32(len(items) / 2)})
		run("decode-one", func() {
			if _, _, recs, err := DecodeSegment(seg, one); err != nil || len(recs) != 1 {
				b.Fatal(len(recs), err)
			}
		})
	}
}
