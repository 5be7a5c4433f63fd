package chunk

import (
	"testing"

	"rstore/internal/codec"
)

// anatomy is where a segment's bytes go: the literal strings of its coded
// values; what it stores as it is — raw values, the anchor among them, and
// delta members; and framing, everything else — the code and the header,
// item heads, keys, counts, versions, parents, lengths and a value's own run
// heads. values counts its records, segments the segments added and keyed
// those whose values take their keys from the anchor (runs.go), which leaves
// the grammar of their items as it is: a keyed value copies its key where it
// would state it as literals.
type anatomy struct {
	values, segments, keyed    int
	framing, literals, asBytes int
}

// add adds the anatomy of seg, a segment DecodeSegment takes, to a.
func (a *anatomy) add(tb testing.TB, seg []byte) {
	tb.Helper()
	if _, _, _, err := DecodeSegment(seg, nil); err != nil {
		tb.Fatal(err)
	}
	// The segment decodes, so none of the reads below fails.
	coded := a.literals + a.asBytes
	code, rest, _ := parseCode(seg)
	a.segments++
	if code.keyed {
		a.keyed++
	}
	_, rest, _ = codec.Uvarint(rest) // the first slot
	n, rest, _ := codec.Uvarint(rest)
	shift := 2
	if code.implied {
		shift = 3
	}
	for range n {
		var head uint64
		head, rest, _ = codec.Uvarint(rest)
		raw, multi, tmpl := head&2 != 0, head&1 != 0, code.implied && head&4 != 0
		if code.keyWidth > 0 {
			rest = rest[uint64(code.keyWidth)-head>>shift:]
		} else {
			_, rest, _ = codec.Bytes(rest)
		}
		members := uint64(1)
		if multi {
			members, rest, _ = codec.Uvarint(rest)
		}
		for m := range members {
			_, rest, _ = codec.Uvarint(rest) // the version
			if multi {
				_, rest, _ = codec.Varint(rest)
			}
			a.values++
			var body []byte
			switch {
			case m == 0 && tmpl:
				a.literals += code.tmplLen
				rest = rest[code.tmplLen:]
			case m == 0 && !raw:
				body, rest, _ = codec.Bytes(rest)
				_, lits, _ := codec.Bytes(body) // past the own heads
				a.literals += len(lits)
			default:
				body, rest, _ = codec.Bytes(rest)
				a.asBytes += len(body)
			}
		}
	}
	a.framing += len(seg) - (a.literals + a.asBytes - coded)
}

// report reports a's framing bytes and literal bits per value, and the share
// of its segments that are keyed, on b.
func (a anatomy) report(b *testing.B) {
	b.ReportMetric(float64(a.framing)/float64(a.values), "framing-B/value")
	b.ReportMetric(float64(8*a.literals)/float64(a.values), "literal-bits/value")
	b.ReportMetric(float64(a.keyed)/float64(a.segments), "keyed/segment")
}
