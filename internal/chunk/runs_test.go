package chunk

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rstore/internal/codec"
	"rstore/internal/docgen"
	"rstore/internal/types"
)

// codeOf returns the run heads of value against anchor and the code a segment
// of that one list would choose.
func codeOf(anchor, value []byte) (heads []byte, c litCode) {
	var hist litCounts
	heads, _, _ = codeRuns(nil, anchor, value, &hist)
	return heads, chooseCode(&hist)
}

// appendRuns appends the run list of heads, which fit value, in code c: the
// heads, then their literals, the table laid out for the one call.
func appendRuns(dst []byte, c litCode, heads, value []byte) []byte {
	var t packTable
	if c.width < 8 {
		t.fill(c)
	}
	return c.appendLits(codec.PutBytes(dst, heads), &t, heads, value)
}

// decodeRuns is litCode.decodeRuns with the table laid out for the one call.
func decodeRuns(c litCode, anchor, runs []byte, budget uint64) ([]byte, error) {
	var t unpackTable
	t.fill(c)
	return c.decodeRuns(anchor, splice{}, runs, budget, &t)
}

// runsRoundTrip states value against anchor in code c and, when the list came
// out shorter, decodes it back; it returns what a segment would store for value.
func runsRoundTrip(t testing.TB, what string, c litCode, anchor, value []byte) (stored int) {
	t.Helper()
	heads, _ := codeOf(anchor, value)
	runs := appendRuns([]byte("dst"), c, heads, value)
	if !bytes.HasPrefix(runs, []byte("dst")) {
		t.Fatalf("%s: appendRuns overwrote its destination", what)
	}
	if runs = runs[3:]; len(runs) >= len(value) {
		return len(value) // the escape: raw, not a byte more
	}
	got, err := decodeRuns(c, anchor, runs, uint64(len(value)))
	if err != nil || !bytes.Equal(got, value) {
		t.Fatalf("%s: decoded %d bytes, %v; want the value's %d", what, len(got), err, len(value))
	}
	if cap(got) != len(value) {
		t.Fatalf("%s: value of %d bytes decoded into %d", what, len(value), cap(got))
	}
	if _, err := decodeRuns(c, anchor, runs, uint64(len(value))-1); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("%s: decoded past its budget: %v", what, err)
	}
	return len(runs)
}

// skewedCode is a code of the given width whose table holds every other
// letter and digit before any other byte, so that of two neighbours in a text
// one has a code and one escapes.
func skewedCode(width uint) litCode {
	table := []byte("acegikmoqsuwy02468ACEGIKMOQSUWY")
	for b := 0; len(table) < 1<<width-1; b++ { // then the lowest bytes
		table = append(table, byte(b))
	}
	table = table[:1<<width-1]
	slices.Sort(table)
	return litCode{width: width, table: table}
}

// TestRunsRoundTrip: over anchor × value shapes and every width, decode(encode)
// is the value byte for byte and what is stored — the run list, or the raw
// value when the list is not shorter — never exceeds the value.
func TestRunsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	text := func(n int) []byte { // no byte repeats at a distance of 1: a shifted copy matches nowhere
		b := make([]byte, n)
		for i := range b {
			b[i] = "abcdefghijklmnopqrstuvwxyz"[(i*7+i/26)%26]
		}
		return b
	}
	edit := func(b []byte, at int, with string) []byte {
		out := bytes.Clone(b)
		copy(out[at:], with)
		return out
	}
	base := text(600)
	long := text(40000)
	bytewise := litCode{width: 8}

	for _, tc := range []struct {
		name          string
		anchor, value []byte
		max           int // what may be stored at most at width 8, the heads' length byte included; 0: the value raw, by the escape
	}{
		{"equal", base, base, 4},
		{"both empty", nil, nil, 0},
		{"empty anchor", nil, base, 0},
		{"empty value", base, nil, 0},
		{"three bytes", base, base[:3], 0},
		{"four bytes", base, base[:4], 3},
		{"value longer", base, append(bytes.Clone(base), random(50)...), 4 + 50 + 2},
		{"value shorter", base, base[:400], 4},
		{"value shorter, edited", base, edit(base[:400], 200, "EDITED"), 15},
		{"copy past 255", base, edit(base, 300, "XY"), 10},
		{"copy past 16383", long, edit(long, 20000, "XY"), 12},
		{"literal past 255", base, edit(base, 100, string(random(300))), 311},
		{"literal past 16383", long, edit(long, 100, string(random(20000))), 20013},
		{"matches of three", base, func() []byte { // three bytes kept of every eight
			v := bytes.Clone(base)
			for i := range v {
				if i%8 >= 3 {
					v[i] ^= 0x80
				}
			}
			return v
		}(), 0},
		{"matches of four", base, func() []byte {
			v := bytes.Clone(base)
			for i := range v {
				if i%12 >= 4 {
					v[i] ^= 0x80
				}
			}
			return v
		}(), 600 - 600/12*2 + 5},
		{"random value", base, random(600), 0},
		{"random anchor", random(600), base, 0},
		{"both random", random(600), random(700), 0},
	} {
		stored := runsRoundTrip(t, tc.name, bytewise, tc.anchor, tc.value)
		if max := cmp.Or(tc.max, len(tc.value)); stored > max || (tc.max == 0 && stored != max) {
			t.Errorf("%s: %d bytes stored for a value of %d, want at most %d", tc.name, stored, len(tc.value), max)
		}
		// Packed in the code of its own literals, a list is no longer than
		// bytewise; in a code made for other literals it still decodes.
		_, own := codeOf(tc.anchor, tc.value)
		if packed := runsRoundTrip(t, tc.name+", own code", own, tc.anchor, tc.value); packed > stored {
			t.Errorf("%s: %d bytes stored at width %d, %d bytewise", tc.name, packed, own.width, stored)
		}
		for w := uint(1); w < 8; w++ {
			runsRoundTrip(t, fmt.Sprintf("%s, skewed width %d", tc.name, w), skewedCode(w), tc.anchor, tc.value)
		}
	}

	// A byte inserted or dropped at every tenth position in turn: copies up
	// to the shift, literals from it on — of 26 letters, five bits each.
	for at := 0; at < len(base); at += 10 {
		inserted := append(append(bytes.Clone(base[:at]), '#'), base[at:]...)
		dropped := append(bytes.Clone(base[:at]), base[at+1:]...)
		for name, v := range map[string][]byte{"inserted": inserted, "dropped": dropped} {
			what := fmt.Sprintf("byte %s at %d", name, at)
			stored := runsRoundTrip(t, what, bytewise, base, v)
			if want := len(v) - at + 5; at >= 10 && stored > want {
				t.Errorf("%s: %d bytes stored, want at most %d", what, stored, want)
			}
			_, own := codeOf(base, v)
			packed := runsRoundTrip(t, what+", packed", own, base, v)
			if want := (len(v)-at)*5/8 + 7; own.width < 8 && (own.width != 5 || packed > want) {
				t.Errorf("%s: %d bytes stored at width %d, want at most %d at 5", what, packed, own.width, want)
			}
		}
	}

	// Documents as the generator of §5.1 makes them, against a sibling and
	// against their own mutations: 62 symbols and two of punctuation, six bits.
	for _, size := range []int{256, 512, 4096} {
		gen := docgen.New(int64(size))
		anchor := gen.Document("key-000017", size)
		sibling := gen.Document("key-000018", size)
		stored := runsRoundTrip(t, fmt.Sprintf("sibling document of %d", size), bytewise, anchor, sibling)
		if ratio := float64(stored) / float64(len(sibling)); ratio > 0.70 {
			t.Errorf("a sibling document of %d bytes stored at %.2f of its size, want at most 0.70", size, ratio)
		}
		six := skewedCode(6)
		six.table = []byte(`"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz`)
		packed := runsRoundTrip(t, fmt.Sprintf("sibling document of %d, six bits", size), six, anchor, sibling)
		if ratio := float64(packed) / float64(len(sibling)); ratio > 0.55 {
			t.Errorf("a sibling document of %d bytes packed to %.2f of its size, want at most 0.55", size, ratio)
		}
		for _, pd := range []float64{0.05, 0.5, 1} {
			mutated := gen.Mutate(anchor, pd)
			stored := runsRoundTrip(t, fmt.Sprintf("document of %d mutated by %.2f", size, pd), bytewise, anchor, mutated)
			// A rewritten field is its sixteen bytes and a run's two lengths.
			if ratio := float64(stored) / float64(len(mutated)); ratio > min(18.0/16*pd+0.05, 0.70) {
				t.Errorf("a document of %d bytes mutated by %.2f stored at %.2f of its size", size, pd, ratio)
			}
			runsRoundTrip(t, fmt.Sprintf("document of %d mutated by %.2f, six bits", size, pd), six, anchor, mutated)
		}
	}
}

// TestTailCopy: a literal run that reaches the value's end stops where the
// bytes the value ends with are the anchor's — fewer than four — and those are
// a last copy of their own, which decodes; a value that keeps a list of its
// own states them as literals again (untail), and counts them.
func TestTailCopy(t *testing.T) {
	anchor, value := []byte(`{"k":"abcd","v":"wxyz"}`), []byte(`{"k":"ABCD","v":"WXYZ"}`)
	var hist litCounts
	heads, copied, tail := codeRuns(nil, anchor, value, &hist)
	if !bytes.Equal(heads, []byte{6, 4, 7, 4, 2, 0}) || copied != 15 || tail != 2 {
		t.Fatalf("heads %v, %d bytes copied, a tail of %d", heads, copied, tail)
	}
	if got, err := decodeRuns(litCode{width: 8}, anchor, appendRuns(nil, litCode{width: 8}, heads, value), math.MaxUint64); err != nil || !bytes.Equal(got, value) {
		t.Fatalf("decoded %q, %v", got, err)
	}
	if own := untail(nil, heads, value, tail, &hist); !bytes.Equal(own, []byte{6, 4, 7, 6}) {
		t.Fatalf("untailed to %v", own)
	}
	for b, want := range map[byte]uint32{'A': 1, 'Z': 1, '"': 1, '}': 1, '{': 0} {
		if got := hist[0][b] + hist[1][b] + hist[2][b] + hist[3][b]; got != want {
			t.Errorf("%q counted %d times, want %d", b, got, want)
		}
	}
}

// TestChooseCode: the width is the cheapest for the counts, table included;
// the table is the most frequent bytes, ascending, filled up with the lowest
// bytes that do not occur; width 8 takes ties and segments without literals.
func TestChooseCode(t *testing.T) {
	counts := func(n int, each uint32) *litCounts { // the n bytes from '0' up, each times each
		var h litCounts
		for b := 0; b < n; b++ {
			h[b%4]['0'+b] = each
		}
		return &h
	}
	for _, tc := range []struct {
		name  string
		hist  *litCounts
		width uint
	}{
		{"no literals", counts(0, 0), 8},
		{"one byte, too rarely for a table", counts(1, 1), 8},
		{"one byte", counts(1, 100), 1},
		{"two bytes", counts(2, 100), 2},
		{"ten bytes", counts(10, 100), 4},
		{"63 bytes", counts(63, 100), 6},
		{"64 bytes", counts(64, 100), 6},   // the 64th escapes, 14 bits one time in 64
		{"65 bytes", counts(65, 100), 6},   // as does the 65th
		{"100 bytes", counts(100, 100), 7}, // a third escaping is dearer than a seventh bit
		{"200 bytes", counts(200, 100), 8},
		{"64 bytes, a few of each", counts(64, 3), 8}, // 48 bytes saved, 63 of table
	} {
		c := chooseCode(tc.hist)
		if c.width != tc.width {
			t.Errorf("%s: width %d, want %d", tc.name, c.width, tc.width)
			continue
		}
		if c.width == 8 {
			if len(c.table) != 0 {
				t.Errorf("%s: a table of %d at width 8", tc.name, len(c.table))
			}
			continue
		}
		if len(c.table) != 1<<c.width-1 || !slices.IsSorted(c.table) || len(slices.Compact(slices.Clone(c.table))) != len(c.table) {
			t.Errorf("%s: table %q at width %d", tc.name, c.table, c.width)
		}
		if _, rest, err := parseCode(c.appendTo(nil)); err != nil || len(rest) != 0 {
			t.Errorf("%s: the code does not parse back: %v", tc.name, err)
		}
	}
	// Ten digits at width 4: the table is the digits and the five lowest bytes.
	if c := chooseCode(counts(10, 100)); string(c.table) != "\x00\x01\x02\x03\x040123456789" {
		t.Errorf("ten digits: table %q", c.table)
	}
	// 65 bytes at width 6: the 63 most frequent, ties to the lower byte.
	h := counts(65, 100)
	h[0]['0'] = 1
	if c := chooseCode(h); bytes.IndexByte(c.table, '0') >= 0 || bytes.IndexByte(c.table, '0'+64) >= 0 || bytes.IndexByte(c.table, '0'+63) < 0 {
		t.Errorf("65 bytes, the first rare: table %q", c.table)
	}
}

// TestChooseTemplate: of a segment's documents — most spelling one list of
// heads, many a list that copies a byte or two more where a literal happened
// to match the anchor (a key's digit, a field's first or last byte), every
// seventh shifted by a byte — every one but the shifted takes the template,
// which ends with a copy of their closing two bytes; the literal counts the
// code is chosen from are then those of the lists that will be written.
// Random blobs, which share no layout, get no template.
func TestChooseTemplate(t *testing.T) {
	gen := docgen.New(47)
	anchor := gen.Document("key-000000", 256)
	var values [][]byte
	for i := 1; i < 60; i++ {
		v := gen.Document(types.Key(fmt.Sprintf("key-%06d", i)), 256)
		if i%7 == 3 {
			v = append([]byte{' '}, v[:len(v)-1]...)
		}
		values = append(values, v)
	}
	uses, hist, template := weighTemplate(anchor, values)
	if template == nil {
		t.Fatal("documents of one layout got no template")
	}
	// They end as the anchor does, with a closing quote and brace, which
	// the template copies.
	var last [2]uint64
	for rest := template; len(rest) > 0; {
		n, lit, head := runHead(rest)
		last, rest = [2]uint64{n, lit}, rest[head:]
	}
	if last != [2]uint64{2, 0} || !bytes.HasSuffix(anchor, []byte(`"}`)) {
		t.Errorf("the template ends with the run %v", last)
	}
	var recount litCounts
	differing := 0 // users whose own list is not the template
	for i, v := range values {
		heads, _, tail := codeRuns(nil, anchor, v, &litCounts{})
		if uses[i] == (i%7 == 2) { // values[i] is document i+1
			t.Errorf("document %d takes the template: %v", i+1, uses[i])
		}
		if !uses[i] && tail > 0 {
			heads = untail(nil, heads, v, tail, &litCounts{})
		}
		if uses[i] {
			if !bytes.Equal(heads, template) {
				differing++
			}
			heads = template
		}
		for pos := 0; len(heads) > 0; {
			n, lit, head := runHead(heads)
			recount.add(v[pos+int(n) : pos+int(n+lit)])
			pos, heads = pos+int(n+lit), heads[head:]
		}
	}
	if differing < 10 {
		t.Errorf("%d of the documents that take the template have lists of their own that differ", differing)
	}
	for b := range 256 {
		if got, want := hist[0][b]+hist[1][b]+hist[2][b]+hist[3][b], recount[0][b]+recount[1][b]+recount[2][b]+recount[3][b]; got != want {
			t.Errorf("byte %#x counted %d times, stated as a literal %d times", b, got, want)
		}
	}

	rng := rand.New(rand.NewSource(47))
	for i := range values {
		values[i] = make([]byte, 256)
		rng.Read(values[i])
	}
	if uses, _, template := weighTemplate(anchor, values); template != nil || slices.Contains(uses, true) {
		t.Errorf("random blobs got a template of %d bytes", len(template))
	}
}

// weighTemplate runs what appendSegment does before it chooses the code: the
// values' own lists against anchor, then the template.
func weighTemplate(anchor []byte, values [][]byte) (uses []bool, hist *litCounts, template []byte) {
	hist = &litCounts{}
	lists := make([]list, len(values))
	for i, v := range values {
		lists[i].value = v
		lists[i].heads, lists[i].copied, lists[i].tail = codeRuns(nil, anchor, v, hist)
	}
	template = new(weighing).chooseTemplate(lists, hist)
	untailOwn(nil, lists, hist)
	for _, l := range lists {
		uses = append(uses, l.uses)
	}
	return uses, hist, template
}

// TestDecodeRunsRejects: the ways a run list can lie, bytewise and packed.
func TestDecodeRunsRejects(t *testing.T) {
	anchor := []byte("0123456789")
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	head := func(n, lit uint64) []byte { return codec.PutUvarint(codec.PutUvarint(nil, n), lit) }
	list := func(lits string, heads ...[]byte) []byte { return append(codec.PutBytes(nil, cat(heads...)), lits...) }
	bytewise := litCode{width: 8}
	if got, err := decodeRuns(bytewise, anchor, list("xyend", head(4, 2), head(4, 3)), math.MaxUint64); err != nil || string(got) != "0123xy6789end" {
		t.Fatalf("decoded %q, %v", got, err)
	}
	// Two bits a symbol: a, b, c and the escape. "abca" is 00 01 10 00 from the
	// low bit up, 0x24; "ab!" is 00 01 11 and 0x21 above them, six and eight bits.
	two := litCode{width: 2, table: []byte("abc")}
	if got, err := decodeRuns(two, anchor, list("\x24", head(4, 4)), math.MaxUint64); err != nil || string(got) != "0123abca" {
		t.Fatalf("decoded %q, %v", got, err)
	}
	if got, err := decodeRuns(two, anchor, list("\x74\x08", head(4, 2), head(3, 1)), math.MaxUint64); err != nil || string(got) != "0123ab678!" {
		t.Fatalf("decoded %q, %v", got, err)
	}
	for name, tc := range map[string]struct {
		code litCode
		runs []byte
	}{
		"copy past the anchor's end":          {bytewise, list("", head(11, 0))},
		"copy from past the anchor's end":     {bytewise, list("abcdefghijk", head(0, 11), head(1, 0))},
		"second copy past the anchor's end":   {bytewise, list("xy", head(4, 2), head(5, 0))},
		"copy length near 2⁶⁴":                {bytewise, list("", head(4, 0), head(math.MaxUint64-3, 0))},
		"literal past the list's end":         {bytewise, list("xy", head(4, 3))},
		"literal length near 2⁶⁴":             {bytewise, list("xy", head(4, math.MaxUint64))},
		"literals left over":                  {bytewise, list("xyz", head(4, 2))},
		"heads ending after a copy length":    {bytewise, list("xy", head(4, 2), codec.PutUvarint(nil, 2))},
		"heads ending inside a length":        {bytewise, list("xy", head(4, 2), []byte{0x80})},
		"heads ending inside a literal count": {bytewise, list("xy", head(4, 2), []byte{2, 0x80})},
		"heads past the list's end":           {bytewise, []byte{3, 4, 0}},
		"no heads length":                     {bytewise, nil},
		"more symbols than bits":              {two, list("\x24", head(4, 5))},
		"symbol count near 2⁶⁴":               {two, list("\x24", head(4, math.MaxUint64/2+3))},
		"escape cut by the list's end":        {two, list("\x34", head(4, 3))},                 // a, b, escape, and two bits of its byte
		"escape of a byte the table holds":    {two, list("\x74\x18", head(4, 2), head(3, 1))}, // 'a' = 0x61 behind the escape
		"a byte after the last symbol":        {two, list("\x24\x00", head(4, 4))},
		"a set bit after the last symbol":     {two, list("\x64", head(4, 3))},
		"a set bit after an escape":           {two, list("\x74\x48", head(4, 2), head(3, 1))},
	} {
		if got, err := decodeRuns(tc.code, anchor, tc.runs, math.MaxUint64); !errors.Is(err, types.ErrCorrupt) || got != nil {
			t.Errorf("%s: %q, %v", name, got, err)
		}
	}
}

// FuzzValueRuns: arbitrary bytes as a code and a run list in it against an
// arbitrary anchor never panic — a read past the anchor or the list would —
// and never build a value past the budget or past what anchor and list can
// state between them, a symbol a bit; a list that is accepted states a value
// that codes and decodes back to itself. Seeds include a code with a
// template and a list that takes it.
func FuzzValueRuns(f *testing.F) {
	gen := docgen.New(7)
	anchor := gen.Document("key-000001", 256)
	for _, value := range [][]byte{gen.Document("key-000002", 256), gen.Mutate(anchor, 0.05), anchor[:100], append(bytes.Clone(anchor), "tail"...)} {
		heads, own := codeOf(anchor, value)
		for _, c := range []litCode{{width: 8}, own, skewedCode(1), skewedCode(5)} {
			runs := appendRuns(nil, c, heads, value)
			f.Add(c.appendTo(nil), anchor, runs, uint16(len(value)))
			f.Add(c.appendTo(nil), anchor, runs, uint16(len(value)-1))
		}
		// The heads as the code's template, and the list's own empty.
		templated := litCode{width: 8, template: heads}
		f.Add(templated.appendTo(nil), anchor, templated.appendLits([]byte{0}, nil, heads, value), uint16(len(value)))
	}
	f.Add([]byte{8}, []byte{}, []byte{0}, uint16(0))
	f.Add([]byte{8}, []byte("abcd"), []byte{8, 4, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}, uint16(1000))
	f.Add([]byte{1, 'a'}, []byte("abcd"), []byte{6, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}, uint16(1000))
	f.Add([]byte{2, 'a', 'b', 'c'}, []byte("0123456789"), []byte{4, 4, 2, 3, 1, 0x74, 0x08}, uint16(10))
	f.Fuzz(func(t *testing.T, code, anchor, runs []byte, budget uint16) {
		c, rest, err := parseCode(code)
		if err != nil || len(rest) != 0 {
			return
		}
		value, err := decodeRuns(c, anchor, runs, uint64(budget))
		if err != nil {
			if value != nil {
				t.Fatalf("%d bytes returned beside %v", len(value), err)
			}
			return
		}
		if len(value) > int(budget) || len(value) > len(anchor)+8*len(runs) || cap(value) != len(value) {
			t.Fatalf("anchor of %d, list of %d, budget %d: a value of %d bytes (cap %d)", len(anchor), len(runs), budget, len(value), cap(value))
		}
		var hist litCounts
		heads, _, _ := codeRuns(nil, anchor, value, &hist)
		again := appendRuns(nil, c, heads, value)
		if len(again) >= len(value) {
			return // stored raw
		}
		if back, err := decodeRuns(c, anchor, again, uint64(len(value))); err != nil || !bytes.Equal(back, value) {
			t.Fatalf("the accepted value re-coded to a list that decodes to %d bytes, %v", len(back), err)
		}
	})
}
