package kvstore

import (
	"context"
	"fmt"
	"testing"
)

func benchStore(b *testing.B, nodes, rf int, balance bool) (*Store, []string) {
	b.Helper()
	s, err := Open(context.Background(), Config{
		Nodes: nodes, ReplicationFactor: rf, ReadBalance: balance,
		Cost: DefaultCostModel(),
	})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 1000)
	val := make([]byte, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
		if err := s.Put(context.Background(), "t", keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys
}

func BenchmarkGet(b *testing.B) {
	s, keys := benchStore(b, 4, 2, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(context.Background(), "t", keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPut(b *testing.B) {
	s, _ := benchStore(b, 4, 2, false)
	val := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(context.Background(), "t", fmt.Sprintf("w-%d", i%4096), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiGet(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		balance bool
	}{{"primary", false}, {"balanced", true}} {
		s, keys := benchStore(b, 8, 3, cfg.balance)
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := s.MultiGet(context.Background(), "t", keys)
				if err != nil || len(res.Missing) != 0 {
					b.Fatalf("%v %v", res.Missing, err)
				}
			}
		})
	}
}
