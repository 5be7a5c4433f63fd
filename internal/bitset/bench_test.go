package bitset

import (
	"math/rand"
	"testing"
)

func randomSet(n, universe int, seed int64) *BitSet {
	rng := rand.New(rand.NewSource(seed))
	b := New(universe)
	for i := 0; i < n; i++ {
		b.Set(uint32(rng.Intn(universe)))
	}
	return b
}

func BenchmarkSetContains(b *testing.B) {
	s := randomSet(10000, 1<<16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Contains(uint32(i) & 0xffff)
	}
}

func BenchmarkAnd(b *testing.B) {
	x := randomSet(10000, 1<<16, 1)
	y := randomSet(10000, 1<<16, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		c.And(y)
	}
}

func BenchmarkForEach(b *testing.B) {
	s := randomSet(10000, 1<<16, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count := 0
		s.ForEach(func(uint32) bool { count++; return true })
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	for _, density := range []struct {
		name string
		n    int
	}{{"sparse", 100}, {"dense", 30000}} {
		s := randomSet(density.n, 1<<16, 4)
		b.Run(density.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc := s.AppendBinary(nil)
				if _, _, err := DecodeBinary(enc, 1<<16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
