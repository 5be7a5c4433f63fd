package core

import (
	"context"
	"testing"
)

func TestInfo(t *testing.T) {
	s, m := buildStore(t, Config{ChunkCapacity: 1024, BatchSize: 4}, 12, 20, 21)
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	info := s.Info()
	if info.Versions != len(m.versions) {
		t.Fatalf("Versions = %d, want %d", info.Versions, len(m.versions))
	}
	if info.PendingVersions != 0 {
		t.Fatalf("PendingVersions = %d after flush", info.PendingVersions)
	}
	if info.Chunks == 0 || info.Records == 0 || info.Keys == 0 {
		t.Fatalf("zero counts: %+v", info)
	}
	if info.TotalVersionSpan != s.TotalVersionSpan() {
		t.Fatal("span mismatch")
	}
	if info.VersionIndexBytes == 0 || info.KeyIndexBytes == 0 {
		t.Fatalf("index sizes: %+v", info)
	}
	if info.Branches == 0 {
		t.Fatal("no branches reported (main exists)")
	}
}

func TestInfoEmptyStore(t *testing.T) {
	s, err := Open(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	info := s.Info()
	if info.Versions != 0 || info.Records != 0 || info.Chunks != 0 {
		t.Fatalf("empty store info: %+v", info)
	}
}
