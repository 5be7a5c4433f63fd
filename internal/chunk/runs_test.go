package chunk

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rstore/internal/codec"
	"rstore/internal/docgen"
	"rstore/internal/types"
)

// runsRoundTrip codes value against anchor and, when the list came out
// shorter, decodes it back; it returns what a segment would store for value.
func runsRoundTrip(t testing.TB, what string, anchor, value []byte) (stored int) {
	t.Helper()
	runs, shorter := codeRuns([]byte("dst"), anchor, value)
	if !bytes.HasPrefix(runs, []byte("dst")) {
		t.Fatalf("%s: codeRuns overwrote its destination", what)
	}
	if runs = runs[3:]; !shorter {
		return len(value) // the escape: raw, not a byte more
	}
	if len(runs) >= len(value) {
		t.Fatalf("%s: a run list of %d bytes reported shorter than a value of %d", what, len(runs), len(value))
	}
	got, err := decodeRuns(anchor, runs, uint64(len(value)))
	if err != nil || !bytes.Equal(got, value) {
		t.Fatalf("%s: decoded %d bytes, %v; want the value's %d", what, len(got), err, len(value))
	}
	if cap(got) != len(value) {
		t.Fatalf("%s: value of %d bytes decoded into %d", what, len(value), cap(got))
	}
	if _, err := decodeRuns(anchor, runs, uint64(len(value))-1); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("%s: decoded past its budget: %v", what, err)
	}
	return len(runs)
}

// TestRunsRoundTrip: over anchor × value shapes, decode(encode) is the value
// byte for byte and what is stored — the run list, or the raw value when the
// list is not shorter — never exceeds the value.
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

	for _, tc := range []struct {
		name          string
		anchor, value []byte
		max           int // what may be stored at most; 0: the value raw, by the escape
	}{
		{"equal", base, base, 3},
		{"both empty", nil, nil, 0},
		{"empty anchor", nil, base, 0},
		{"empty value", base, nil, 0},
		{"two bytes", base, base[:2], 0},
		{"three bytes", base, base[:3], 2},
		{"value longer", base, append(bytes.Clone(base), random(50)...), 3 + 50 + 2},
		{"value shorter", base, base[:400], 3},
		{"value shorter, edited", base, edit(base[:400], 200, "EDITED"), 14},
		{"copy past 255", base, edit(base, 300, "XY"), 9},
		{"copy past 16383", long, edit(long, 20000, "XY"), 11},
		{"literal past 255", base, edit(base, 100, string(random(300))), 310},
		{"literal past 16383", long, edit(long, 100, string(random(20000))), 20012},
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
		}(), 600 - 600/12*2 + 4},
		{"random value", base, random(600), 0},
		{"random anchor", random(600), base, 0},
		{"both random", random(600), random(700), 0},
	} {
		stored := runsRoundTrip(t, tc.name, tc.anchor, tc.value)
		if max := cmp.Or(tc.max, len(tc.value)); stored > max || (tc.max == 0 && stored != max) {
			t.Errorf("%s: %d bytes stored for a value of %d, want at most %d", tc.name, stored, len(tc.value), max)
		}
	}

	// A byte inserted or dropped at every tenth position in turn: copies up
	// to the shift, literals from it on.
	for at := 0; at < len(base); at += 10 {
		inserted := append(append(bytes.Clone(base[:at]), '#'), base[at:]...)
		dropped := append(bytes.Clone(base[:at]), base[at+1:]...)
		for name, v := range map[string][]byte{"inserted": inserted, "dropped": dropped} {
			stored := runsRoundTrip(t, fmt.Sprintf("byte %s at %d", name, at), base, v)
			if want := len(v) - at + 4; at >= 10 && stored > want {
				t.Errorf("byte %s at %d: %d bytes stored, want at most %d", name, at, stored, want)
			}
		}
	}

	// Documents as the generator of §5.1 makes them, against a sibling and
	// against their own mutations.
	for _, size := range []int{256, 512, 4096} {
		gen := docgen.New(int64(size))
		anchor := gen.Document("key-000017", size)
		sibling := gen.Document("key-000018", size)
		stored := runsRoundTrip(t, fmt.Sprintf("sibling document of %d", size), anchor, sibling)
		if ratio := float64(stored) / float64(len(sibling)); ratio > 0.70 {
			t.Errorf("a sibling document of %d bytes stored at %.2f of its size, want at most 0.70", size, ratio)
		}
		for _, pd := range []float64{0.05, 0.5, 1} {
			mutated := gen.Mutate(anchor, pd)
			stored := runsRoundTrip(t, fmt.Sprintf("document of %d mutated by %.2f", size, pd), anchor, mutated)
			// A rewritten field is its sixteen bytes and a run's two lengths.
			if ratio := float64(stored) / float64(len(mutated)); ratio > min(18.0/16*pd+0.05, 0.70) {
				t.Errorf("a document of %d bytes mutated by %.2f stored at %.2f of its size", size, pd, ratio)
			}
		}
	}
}

// TestDecodeRunsRejects: the three ways a run list can lie.
func TestDecodeRunsRejects(t *testing.T) {
	anchor := []byte("0123456789")
	run := func(n, lit uint64, text string) []byte {
		return append(codec.PutUvarint(codec.PutUvarint(nil, n), lit), text...)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	if got, err := decodeRuns(anchor, cat(run(4, 2, "xy"), run(4, 3, "end")), math.MaxUint64); err != nil || string(got) != "0123xy6789end" {
		t.Fatalf("decoded %q, %v", got, err)
	}
	for name, runs := range map[string][]byte{
		"copy past the anchor's end":          run(11, 0, ""),
		"copy from past the anchor's end":     cat(run(0, 11, "abcdefghijk"), run(1, 0, "")),
		"second copy past the anchor's end":   cat(run(4, 2, "xy"), run(5, 0, "")),
		"copy length near 2⁶⁴":                cat(run(4, 0, ""), run(math.MaxUint64-3, 0, "")),
		"literal past the list's end":         run(4, 3, "xy"),
		"literal length near 2⁶⁴":             run(4, math.MaxUint64, "xy"),
		"list ending after a copy length":     cat(run(4, 2, "xy"), codec.PutUvarint(nil, 2)),
		"list ending inside a length":         cat(run(4, 2, "xy"), []byte{0x80}),
		"list ending inside a literal length": cat(run(4, 2, "xy"), []byte{2, 0x80}),
	} {
		if got, err := decodeRuns(anchor, runs, math.MaxUint64); !errors.Is(err, types.ErrCorrupt) || got != nil {
			t.Errorf("%s: %q, %v", name, got, err)
		}
	}
}

// FuzzValueRuns: arbitrary bytes as a run list against an arbitrary anchor
// never panic — a read past the anchor or the list would — and never build a
// value past the budget or past what anchor and list hold between them; a
// list that is accepted states a value that codes and decodes back to itself.
func FuzzValueRuns(f *testing.F) {
	gen := docgen.New(7)
	anchor := gen.Document("key-000001", 256)
	for _, value := range [][]byte{gen.Document("key-000002", 256), gen.Mutate(anchor, 0.05), anchor[:100], append(bytes.Clone(anchor), "tail"...)} {
		runs, shorter := codeRuns(nil, anchor, value)
		if !shorter {
			f.Fatalf("seed value of %d bytes coded to %d", len(value), len(runs))
		}
		f.Add(anchor, runs, uint16(len(value)))
		f.Add(anchor, runs, uint16(len(value)-1))
	}
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Add([]byte("abcd"), []byte{4, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}, uint16(1000))
	f.Add([]byte("abcd"), []byte{2, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint16(1000))
	f.Fuzz(func(t *testing.T, anchor, runs []byte, budget uint16) {
		value, err := decodeRuns(anchor, runs, uint64(budget))
		if err != nil {
			if value != nil {
				t.Fatalf("%d bytes returned beside %v", len(value), err)
			}
			return
		}
		if len(value) > int(budget) || len(value) > len(anchor)+len(runs) || cap(value) != len(value) {
			t.Fatalf("anchor of %d, list of %d, budget %d: a value of %d bytes (cap %d)", len(anchor), len(runs), budget, len(value), cap(value))
		}
		again, shorter := codeRuns(nil, anchor, value)
		if !shorter {
			return // stored raw
		}
		if back, err := decodeRuns(anchor, again, uint64(len(value))); err != nil || !bytes.Equal(back, value) {
			t.Fatalf("the accepted value re-coded to a list that decodes to %d bytes, %v", len(back), err)
		}
	})
}
