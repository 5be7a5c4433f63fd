package bitset

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rstore/internal/codec"
	"rstore/internal/types"
)

func TestBasicOps(t *testing.T) {
	b := New(10)
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("new bitset not empty")
	}
	b.Set(3)
	b.Set(64)
	b.Set(200) // beyond initial sizing: must grow
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	for _, i := range []uint32{3, 64, 200} {
		if !b.Contains(i) {
			t.Fatalf("missing %d", i)
		}
	}
	if b.Contains(4) || b.Contains(1000) {
		t.Fatal("spurious membership")
	}
	b.Clear(64)
	if b.Contains(64) || b.Count() != 2 {
		t.Fatal("clear failed")
	}
	b.Clear(99999) // clearing beyond the end is a no-op
	if got := b.Slice(); len(got) != 2 || got[0] != 3 || got[1] != 200 {
		t.Fatalf("Slice = %v", got)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromSlice([]uint32{1, 2, 3, 100})
	b := FromSlice([]uint32{2, 3, 4})

	or := a.Clone()
	or.Or(b)
	if got := or.Slice(); len(got) != 5 {
		t.Fatalf("Or = %v", got)
	}

	and := a.Clone()
	and.And(b)
	if got := and.Slice(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("And = %v", got)
	}

	// Xor, shorter into longer and longer into shorter; twice is the identity.
	for _, pair := range [][2]*BitSet{{a, b}, {b, a}} {
		xor := pair[0].Clone()
		xor.Xor(pair[1])
		if got := xor.Slice(); !slices.Equal(got, []uint32{1, 4, 100}) {
			t.Fatalf("Xor = %v", got)
		}
		xor.Xor(pair[1])
		if !xor.Equal(pair[0]) {
			t.Fatalf("Xor twice = %v, want %v", xor, pair[0])
		}
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	a := FromSlice([]uint32{1, 2})
	b := FromSlice([]uint32{1, 2})
	b.Set(1000)
	b.Clear(1000) // trailing zero words must not break equality
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equality with trailing zero words")
	}
	b.Set(70)
	if a.Equal(b) {
		t.Fatal("unequal sets reported equal")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	b := FromSlice([]uint32{5, 10, 15})
	var seen []uint32
	b.ForEach(func(i uint32) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 5 || seen[1] != 10 {
		t.Fatalf("early stop: %v", seen)
	}
}

// TestModelEquivalence drives random operations against a map-based model.
func TestModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := New(0)
	model := map[uint32]bool{}
	for op := 0; op < 5000; op++ {
		i := uint32(rng.Intn(500))
		switch rng.Intn(3) {
		case 0:
			b.Set(i)
			model[i] = true
		case 1:
			b.Clear(i)
			delete(model, i)
		default:
			if b.Contains(i) != model[i] {
				t.Fatalf("op %d: Contains(%d) = %v, model %v", op, i, b.Contains(i), model[i])
			}
		}
	}
	if b.Count() != len(model) {
		t.Fatalf("Count = %d, model %d", b.Count(), len(model))
	}
	for _, i := range b.Slice() {
		if !model[i] {
			t.Fatalf("spurious %d", i)
		}
	}
}

// TestEncodingRoundTrip covers both dense and sparse representations.
func TestEncodingRoundTrip(t *testing.T) {
	cases := []*BitSet{
		New(0),                          // empty
		FromSlice([]uint32{0}),          // single
		FromSlice([]uint32{1000000}),    // sparse far bit
		FromSlice(seq(0, 512)),          // dense run
		FromSlice([]uint32{3, 77, 900}), // sparse few
	}
	for i, b := range cases {
		got, rest, err := DecodeBinary(b.AppendBinary(nil), 1<<21)
		if err != nil || len(rest) != 0 {
			t.Fatalf("case %d: %v", i, err)
		}
		if !got.Equal(b) {
			t.Fatalf("case %d: round trip mismatch: %v vs %v", i, got.Slice(), b.Slice())
		}
	}
	// Property: arbitrary sets round-trip.
	f := func(ids []uint32) bool {
		for i := range ids {
			ids[i] %= 1 << 20 // keep memory bounded
		}
		b := FromSlice(ids)
		got, rest, err := DecodeBinary(b.AppendBinary(nil), 1<<21)
		return err == nil && len(rest) == 0 && got.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSparseEncodingIsCompact(t *testing.T) {
	// A single far bit must not serialize the whole dense prefix.
	b := FromSlice([]uint32{1 << 20})
	enc := b.AppendBinary(nil)
	if len(enc) > 16 {
		t.Fatalf("sparse encoding is %d bytes", len(enc))
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, _, err := DecodeBinary(nil, 64); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := DecodeBinary([]byte{9, 1, 2}, 64); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, _, err := DecodeBinary([]byte{0, 2, 1}, 64); err == nil {
		t.Error("truncated dense accepted")
	}
	// A position at or past the universe, in either representation.
	for _, b := range []*BitSet{FromSlice([]uint32{64}), FromSlice(seq(0, 65))} {
		if _, _, err := DecodeBinary(b.AppendBinary(nil), 64); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%v decoded over 64 positions: %v", b, err)
		}
		if _, _, err := DecodeBinary(b.AppendBinary(nil), 65); err != nil {
			t.Errorf("%v over 65 positions: %v", b, err)
		}
	}
	// Counts no input could back: refused, not allocated.
	huge := codec.PutUvarint(nil, 1<<61)
	for _, tag := range []byte{0, 1} {
		if _, _, err := DecodeBinary(append([]byte{tag}, huge...), 64); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("tag %d with a count of 2^61: %v", tag, err)
		}
	}
}

func seq(start, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(start + i)
	}
	return out
}
