package core

import (
	"context"
	"errors"
	"testing"

	"rstore/internal/types"
)

// TestAnchorOf exercises the pending-overlay path resolution directly.
func TestAnchorOf(t *testing.T) {
	s, err := Open(context.Background(), Config{ChunkCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	v0, _ := s.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{"a": []byte("0")}})
	v1, _ := s.Commit(context.Background(), v0, Change{Puts: map[types.Key][]byte{"a": []byte("1")}})
	v2, _ := s.Commit(context.Background(), v1, Change{Puts: map[types.Key][]byte{"a": []byte("2")}})

	// Everything pending: anchor invalid, overlay = full path.
	anchor, overlay := s.anchorOf(v2)
	if anchor != types.InvalidVersion || len(overlay) != 3 {
		t.Fatalf("all-pending: anchor %v overlay %v", anchor, overlay)
	}
	if overlay[0] != v0 || overlay[2] != v2 {
		t.Fatalf("overlay order: %v", overlay)
	}

	// Flush v0..v2, commit one more: anchor = v2, overlay = [v3].
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	v3, _ := s.Commit(context.Background(), v2, Change{Puts: map[types.Key][]byte{"a": []byte("3")}})
	anchor, overlay = s.anchorOf(v3)
	if anchor != v2 || len(overlay) != 1 || overlay[0] != v3 {
		t.Fatalf("partial: anchor %v overlay %v", anchor, overlay)
	}
	// A placed version anchors at itself with no overlay.
	anchor, overlay = s.anchorOf(v1)
	if anchor != v1 || len(overlay) != 0 {
		t.Fatalf("placed: anchor %v overlay %v", anchor, overlay)
	}
}

// TestKeysInRange exercises the sorted-key range resolution.
func TestKeysInRange(t *testing.T) {
	s, err := Open(context.Background(), Config{ChunkCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	puts := map[types.Key][]byte{}
	for _, k := range []types.Key{"m", "a", "z", "c", "q"} {
		puts[k] = []byte("v")
	}
	if _, err := s.Commit(context.Background(), types.InvalidVersion, Change{Puts: puts}); err != nil {
		t.Fatal(err)
	}
	got := s.keysInRange(KeyRange("b", "r"))
	if len(got) != 3 || got[0] != "c" || got[1] != "m" || got[2] != "q" {
		t.Fatalf("keysInRange = %v", got)
	}
	if len(s.keysInRange(KeyRange("zz", "zzz"))) != 0 {
		t.Fatal("empty range not empty")
	}
	// Full range covers everything.
	if len(s.keysInRange(KeyRange("", "\xff"))) != 5 {
		t.Fatal("full range")
	}
	// The unbounded form reaches keys above any sentinel.
	if len(s.keysInRange(KeyRangeFrom(""))) != 5 {
		t.Fatal("unbounded full range")
	}
	if got := s.keysInRange(KeyRangeFrom("q")); len(got) != 2 || got[0] != "q" || got[1] != "z" {
		t.Fatalf("unbounded from q = %v", got)
	}
}

// TestAbsentKeyFetchesNothing: a key the version does not hold is resolved
// from memory. Under the paper's index-ANDing this was the lossy-projection
// miss — "b" has a record in the chunk and so has v1, so the chunk was
// fetched and found to hold nothing of interest.
func TestAbsentKeyFetchesNothing(t *testing.T) {
	s, err := Open(context.Background(), Config{ChunkCapacity: 1 << 20}) // one big chunk
	if err != nil {
		t.Fatal(err)
	}
	v0, _ := s.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{
		"a": []byte("a0"), "b": []byte("b0"),
	}})
	v1, _ := s.Commit(context.Background(), v0, Change{Deletes: []types.Key{"b"}})
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, stats, err := s.GetRecord(context.Background(), "b", v1)
	var notFound *types.KeyNotFoundError
	if !errors.As(err, &notFound) {
		t.Fatalf("deleted key: %v", err)
	}
	if stats != (QueryStats{}) {
		t.Fatalf("resolving an absent key cost %+v", stats)
	}
	rec, stats, err := s.GetRecord(context.Background(), "b", v0)
	if err != nil || string(rec.Value) != "b0" || stats.Span != 1 || stats.Requests != 1 || stats.WastedChunks != 0 {
		t.Fatalf("b@v0 = %q, %v, %+v", rec.Value, err, stats)
	}
}

// TestEmptyVersionQueries: a version whose records were all deleted.
func TestEmptyVersionQueries(t *testing.T) {
	s, err := Open(context.Background(), Config{ChunkCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	v0, _ := s.Commit(context.Background(), types.InvalidVersion, Change{Puts: map[types.Key][]byte{"only": []byte("1")}})
	v1, _ := s.Commit(context.Background(), v0, Change{Deletes: []types.Key{"only"}})
	for _, flush := range []bool{false, true} {
		if flush {
			if err := s.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		recs, _, err := s.GetVersionAll(context.Background(), v1)
		if err != nil {
			t.Fatalf("flush=%v: %v", flush, err)
		}
		if len(recs) != 0 {
			t.Fatalf("flush=%v: empty version returned %d records", flush, len(recs))
		}
	}
}
