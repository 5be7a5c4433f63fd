package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// TestNewKeysMergeInOrder: commits whose new keys interleave with the known
// ones, and a CommitDelta whose new keys arrive in reverse order, leave the
// sorted key list equal to the corpus's keys, sorted — and a range read
// returns them in order.
func TestNewKeysMergeInOrder(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, Config{ChunkCapacity: 1024, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := func(i int) types.Key { return types.Key(fmt.Sprintf("k%03d", i)) }
	puts := func(from, step int) map[types.Key][]byte {
		out := map[types.Key][]byte{}
		for i := from; i < 120; i += step {
			out[k(i)] = []byte(fmt.Sprintf("v%d-%d", from, i))
		}
		return out
	}
	v, err := s.Commit(ctx, types.InvalidVersion, Change{Puts: puts(0, 8)})
	if err != nil {
		t.Fatal(err)
	}
	// New keys between every two known ones, and an overwrite of a known one.
	ch := Change{Puts: puts(4, 8)}
	ch.Puts[k(0)] = []byte("overwritten")
	if v, err = s.Commit(ctx, v, ch); err != nil {
		t.Fatal(err)
	}
	// The caller's order: every odd key, last first.
	next := types.VersionID(s.NumVersions())
	delta := &types.Delta{}
	for i := 119; i >= 1; i -= 2 {
		delta.Adds = append(delta.Adds, types.Record{CK: types.CompositeKey{Key: k(i), Version: next}, Value: []byte("odd")})
	}
	if v, err = s.CommitDelta(ctx, []types.VersionID{v}, delta); err != nil {
		t.Fatal(err)
	}
	if _, err = s.Commit(ctx, v, Change{Puts: puts(2, 4)}); err != nil {
		t.Fatal(err)
	}

	want := slices.Sorted(slices.Values(s.corpus.Keys()))
	if got := s.keysInRange(KeyRangeFrom("")); !slices.Equal(got, want) {
		t.Fatalf("sorted keys = %v\nwant %v", got, want)
	}
	last := types.VersionID(s.NumVersions() - 1)
	recs, _, err := s.GetRangeAll(ctx, KeyRangeFrom(""), last)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]types.Key, len(recs))
	for i, r := range recs {
		got[i] = r.CK.Key
	}
	if !slices.Equal(got, want) { // every key lives in the last version
		t.Fatalf("GetRange = %v\nwant %v", got, want)
	}
}

// BenchmarkNoteNewKeys indexes one commit of 20 000 new keys, each between
// two of 200 000 known ones, arriving in reverse order.
func BenchmarkNoteNewKeys(b *testing.B) {
	const known, fresh = 200_000, 20_000
	base := make([]types.Key, known)
	for i := range base {
		base[i] = types.Key(fmt.Sprintf("k%08d", 2*i))
	}
	delta := &types.Delta{}
	for i := fresh - 1; i >= 0; i-- {
		delta.Adds = append(delta.Adds, types.Record{CK: types.CompositeKey{Key: types.Key(fmt.Sprintf("k%08d", 2*i*(known/fresh)+1))}})
	}
	s := &Store{}
	for n := 0; n < b.N; n++ {
		s.sortedKeys = slices.Clone(base)
		s.noteNewKeys(delta)
	}
	if len(s.sortedKeys) != known+fresh || !slices.IsSorted(s.sortedKeys) {
		b.Fatalf("%d keys, sorted %v", len(s.sortedKeys), slices.IsSorted(s.sortedKeys))
	}
}
