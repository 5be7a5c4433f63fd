package chunk

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"rstore/internal/bitset"
	"rstore/internal/docgen"
	"rstore/internal/types"
)

// BenchmarkSegmentCodec measures the segment grammar on one full segment
// (SegmentTarget of single-record items): encoding, decoding every slot, and
// decoding one slot in the middle as a point read does. §5.1 documents of 256
// and 512 bytes are run lists against the first whose literals are 62 symbols,
// six bits — the closing quote and brace they share with the anchor are the
// template's last copy — nearly all of them taking the segment's template for
// their heads and framed without their lengths, and copying their own keys,
// which their "id" fields spell, from the anchor (the segment is keyed);
// English prose shares no offsets with its anchor and is literals
// throughout, of some seventy symbols of which a few are rare; rows of numbers
// are literals of thirteen, four bits; random blobs are all stored raw and
// their segment states width 8. MB/s counts the segment's plain bytes — what
// its items were charged — on every line, so they compare; stored/plain is the
// segment value's size against the same, width the bits of a literal, and
// framing-B/value and literal-bits/value where the stored bytes go, and
// keyed/segment whether the segment is keyed (anatomy).
func BenchmarkSegmentCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	for _, tc := range []struct {
		name  string
		size  int
		value func(types.Key, []byte) []byte
	}{
		{"docs256", 256, documents(docgen.New(256), 256)},
		{"docs512", 512, documents(docgen.New(512), 512)},
		{"text512", 512, func(types.Key, []byte) []byte { return prose(rng, 512) }},
		{"digits256", 256, func(types.Key, []byte) []byte { return numbers(rng, 256) }},
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
			plain += it.EncodedLen()
		}
		seg, err := new(coder).appendSegment(nil, 0, items, idxs)
		if err != nil {
			b.Fatal(err)
		}
		var parts anatomy
		parts.add(b, seg)
		run := func(op string, f func()) {
			b.Run(tc.name+"/"+op, func(b *testing.B) {
				b.SetBytes(int64(plain))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f()
				}
				b.ReportMetric(float64(len(seg))/float64(plain), "stored/plain")
				b.ReportMetric(float64(seg[0]&^(templated|implied|keyed)), "width")
				parts.report(b)
			})
		}
		// One coder across the runs, as Code keeps one across a chunk's
		// segments.
		var cd coder
		run("encode", func() {
			if cd.seg, err = cd.appendSegment(cd.seg[:0], 0, items, idxs); err != nil || len(cd.seg) != len(seg) {
				b.Fatal(len(cd.seg), err)
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

// prose returns size bytes of English-looking sentences: words, capitals,
// years and punctuation, more than 64 distinct bytes between them.
func prose(rng *rand.Rand, size int) []byte {
	words := strings.Fields(`the of and to in that was his he it with is for as had you not be her on at by which
		have or from this him but all she they were my are me one their so an said them we who would been will no
		when there if more out up into do any your what has man could other than our some very time upon about may
		its only now like little then can made great before must these two such after Mr Mrs Elizabeth Darcy Bennet
		Jane Queequeg Ahab whale ship sea Zeus Xerxes Quixote Kafka Ulysses Victoria York Oxford Geneva Walden`)
	marks := []string{". ", ". ", ", ", ", ", ", ", "; ", ": ", "! ", "? ", " - ", " (", ") ", ` "`, `" `, "'s ", " & ", "/", " #", "% ", " * "}
	out := make([]byte, 0, size+16)
	for len(out) < size {
		switch w := words[rng.Intn(len(words))]; rng.Intn(12) {
		case 0:
			out = append(append(out, w...), marks[rng.Intn(len(marks))]...)
		case 1:
			out = strconv.AppendInt(append(append(out, w...), " in "...), 1000+rng.Int63n(1000), 10)
			out = append(out, ' ')
		default:
			out = append(append(out, w...), ' ')
		}
	}
	return out[:size]
}

// numbers returns size bytes of a row of decimal numbers, some negative, some
// with a fraction: ten digits and three marks.
func numbers(rng *rand.Rand, size int) []byte {
	out := make([]byte, 0, size+16)
	for len(out) < size {
		out = strconv.AppendFloat(out, float64(rng.Intn(2_000_000)-500_000)/float64([]int{1, 1, 10, 100}[rng.Intn(4)]), 'f', -1, 64)
		out = append(out, ',')
	}
	return out[:size]
}
