package intset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFromUnsorted(t *testing.T) {
	s := FromUnsorted([]uint32{5, 1, 5, 3, 1})
	if !Equal(s, Set{1, 3, 5}) {
		t.Fatalf("FromUnsorted = %v", s)
	}
	if FromUnsorted(nil) != nil {
		t.Fatal("empty input should yield nil")
	}
}

func TestContains(t *testing.T) {
	s := Set{2, 4, 8}
	for _, v := range []uint32{2, 4, 8} {
		if !s.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	for _, v := range []uint32{0, 3, 9} {
		if s.Contains(v) {
			t.Fatalf("spurious %d", v)
		}
	}
}

// model computes expected results with maps.
func model(a, b Set, op string) Set {
	inA := map[uint32]bool{}
	for _, v := range a {
		inA[v] = true
	}
	inB := map[uint32]bool{}
	for _, v := range b {
		inB[v] = true
	}
	var out []uint32
	switch op {
	case "intersect":
		for v := range inA {
			if inB[v] {
				out = append(out, v)
			}
		}
	case "diff":
		for v := range inA {
			if !inB[v] {
				out = append(out, v)
			}
		}
	case "union":
		for v := range inA {
			out = append(out, v)
		}
		for v := range inB {
			if !inA[v] {
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestOpsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a := randSet(rng, 40, 100)
		b := randSet(rng, 40, 100)
		if got, want := Intersect(a, b), model(a, b, "intersect"); !Equal(got, want) {
			t.Fatalf("Intersect(%v,%v) = %v, want %v", a, b, got, want)
		}
		if got, want := Diff(a, b), model(a, b, "diff"); !Equal(got, want) {
			t.Fatalf("Diff(%v,%v) = %v, want %v", a, b, got, want)
		}
		if got, want := Union(a, b), model(a, b, "union"); !Equal(got, want) {
			t.Fatalf("Union(%v,%v) = %v, want %v", a, b, got, want)
		}
	}
}

// TestIntersectLopsided exercises the binary-search path (|b| >> |a|).
func TestIntersectLopsided(t *testing.T) {
	big := make(Set, 1000)
	for i := range big {
		big[i] = uint32(i * 2)
	}
	small := Set{0, 3, 500, 1998}
	got := Intersect(small, big)
	if !Equal(got, Set{0, 500, 1998}) {
		t.Fatalf("lopsided intersect = %v", got)
	}
	// Symmetric argument order must agree.
	if !Equal(Intersect(big, small), got) {
		t.Fatal("intersect not symmetric")
	}
}

func TestEdgeCases(t *testing.T) {
	a := Set{1, 2}
	if Intersect(a, nil) != nil || Intersect(nil, a) != nil {
		t.Fatal("intersect with empty")
	}
	if !Equal(Diff(a, nil), a) {
		t.Fatal("diff with empty")
	}
	if Diff(nil, a) != nil {
		t.Fatal("diff of empty")
	}
	if !Equal(Union(a, nil), a) || !Equal(Union(nil, a), a) {
		t.Fatal("union with empty")
	}
	// Clone independence.
	c := a.Clone()
	c[0] = 99
	if a[0] == 99 {
		t.Fatal("clone aliases source")
	}
}

// TestAlgebraicProperties property-checks set identities.
func TestAlgebraicProperties(t *testing.T) {
	gen := func(raw []uint32) Set {
		for i := range raw {
			raw[i] %= 200
		}
		return FromUnsorted(raw)
	}
	f := func(ra, rb []uint32) bool {
		a, b := gen(ra), gen(rb)
		// |A| = |A∩B| + |A\B|
		if len(a) != len(Intersect(a, b))+len(Diff(a, b)) {
			return false
		}
		// A∪B = (A\B) ∪ (B\A) ∪ (A∩B)
		u := Union(a, b)
		parts := Union(Union(Diff(a, b), Diff(b, a)), Intersect(a, b))
		return Equal(u, parts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randSet(rng *rand.Rand, maxLen, universe int) Set {
	n := rng.Intn(maxLen)
	raw := make([]uint32, n)
	for i := range raw {
		raw[i] = uint32(rng.Intn(universe))
	}
	return FromUnsorted(raw)
}
