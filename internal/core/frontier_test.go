package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rstore/internal/chunk"
	"rstore/internal/types"
)

// chunkOf returns the chunk the batch that added record ck placed it in: its
// first copy, where a later flush copied it forward.
func chunkOf(t *testing.T, s *Store, ck types.CompositeKey) chunk.ID {
	t.Helper()
	rec, ok := s.corpus.IDForCK(ck)
	if !ok {
		t.Fatalf("record %v unknown", ck)
	}
	loc := s.layout.Loc(rec)
	if loc.Chunk == chunk.NoChunk {
		t.Fatalf("record %v unplaced", ck)
	}
	if older := s.layout.Older(rec); len(older) > 0 {
		return older[0].Chunk
	}
	return loc.Chunk
}

// packedSize is what record ck weighs in a partitioning instance.
func packedSize(t *testing.T, s *Store, ck types.CompositeKey) int {
	t.Helper()
	rec, _ := s.corpus.IDForCK(ck)
	return chunk.RecordItems(s.corpus, []uint32{rec})[0].PackedSize()
}

// TestOnlineFrontierPlacement checks the open/closed split of a flush: the
// records still alive at a pending leaf (any later version may read them)
// are chunked apart from those the batch itself superseded.
func TestOnlineFrontierPlacement(t *testing.T) {
	ctx := context.Background()

	// (a) The ingest workload at small scale: a chain over 400 keys, every
	// commit rewriting 5 % of them, batches of 16. A batch is 320 records of
	// 86 B packed (27 520 B), the chunk capacity 0.8 of that — so a batch is
	// two chunks either way (30 chunks in all), and what differs is which
	// records share one: ≈ 56 % of a batch is alive at its tip (≈ 0.7 of a
	// chunk). Total version span over the 1 + 14·16 versions: 2 527 at the
	// parent commit (PR 18; the two chunks split the batch by time, so a
	// later version reads both of most older batches), 1 737 with the split.
	t.Run("chain", func(t *testing.T) {
		const keys, perCommit, batchSize, batches, capacity = 400, 20, 16, 14, 22016
		const unsplitSpan, splitSpan = 2527, 1737
		s, err := Open(ctx, Config{ChunkCapacity: capacity, BatchSize: batchSize})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		value := func(v int) []byte { return []byte(fmt.Sprintf(`{"rev":%06d,"pad":"%048d"}`, v, rng.Int63())) }

		root := Change{Puts: map[types.Key][]byte{}}
		for k := 0; k < keys; k++ {
			root.Puts[key(k)] = value(0)
		}
		tip, err := s.Commit(ctx, types.InvalidVersion, root)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}

		state := map[types.Key]types.CompositeKey{} // the chain tip's records
		type batch struct {
			first, last types.VersionID
			added       []types.CompositeKey
			tip         map[types.Key]types.CompositeKey
		}
		var done []batch
		for b := 0; b < batches; b++ {
			cur := batch{first: tip + 1}
			for i := 0; i < batchSize; i++ {
				ch := Change{Puts: map[types.Key][]byte{}}
				for len(ch.Puts) < perCommit {
					ch.Puts[key(rng.Intn(keys))] = value(int(tip) + 1)
				}
				if tip, err = s.Commit(ctx, tip, ch); err != nil {
					t.Fatal(err)
				}
				for k := range ch.Puts {
					ck := types.CompositeKey{Key: k, Version: tip}
					state[k] = ck
					cur.added = append(cur.added, ck)
				}
			}
			if s.PendingVersions() != 0 {
				t.Fatalf("batch %d: %d versions pending after its closing commit", b, s.PendingVersions())
			}
			cur.last, cur.tip = tip, map[types.Key]types.CompositeKey{}
			for k, ck := range state {
				cur.tip[k] = ck
			}
			done = append(done, cur)
		}

		for b, cur := range done {
			openChunks, closedChunks := map[chunk.ID]bool{}, map[chunk.ID]bool{}
			openBytes := 0
			for _, ck := range cur.added {
				if cur.tip[ck.Key] == ck {
					openChunks[chunkOf(t, s, ck)] = true
					openBytes += packedSize(t, s, ck)
				} else {
					closedChunks[chunkOf(t, s, ck)] = true
				}
			}
			if len(closedChunks) == 0 {
				t.Fatalf("batch %d superseded none of its own records", b)
			}
			for c := range openChunks {
				if closedChunks[c] {
					t.Errorf("batch %d: chunk %d holds open and closed records", b, c)
				}
			}
			// A version of a later batch sees only this batch's open records.
			bound := (openBytes + capacity - 1) / capacity
			for v := cur.last + 1; int(v) < s.NumVersions(); v++ {
				touched := 0
				for _, c := range s.layout.VersionChunks(v) {
					if openChunks[c] || closedChunks[c] {
						touched++
					}
				}
				if touched > bound {
					t.Fatalf("version %d reads %d chunks of batch %d (versions %d–%d, %d open bytes): want ≤ %d",
						v, touched, b, cur.first, cur.last, openBytes, bound)
				}
			}
		}
		if span := s.Info().TotalVersionSpan; span > splitSpan {
			t.Errorf("total version span %d, want ≤ %d (unsplit: %d)", span, splitSpan, unsplitSpan)
		}
		// Every version still reads back whole.
		for _, v := range []types.VersionID{0, done[0].last, done[3].first + 5, tip} {
			recs, _, err := s.GetVersionAll(ctx, v)
			if err != nil || len(recs) != keys {
				t.Fatalf("version %d: %d records, %v", v, len(recs), err)
			}
		}
	})

	// (b) A batch with two tips. v1 adds x, y and fillers; v2 (one tip)
	// deletes x and rewrites y; v3 (the other tip) keeps x and rewrites y.
	// x is alive at v3, so it is open although one branch deleted it;
	// ⟨y,v1⟩ is dead at both tips, so it is closed.
	t.Run("two-tips", func(t *testing.T) {
		s, err := Open(ctx, Config{ChunkCapacity: 256})
		if err != nil {
			t.Fatal(err)
		}
		v0, _ := s.Commit(ctx, types.InvalidVersion, Change{Puts: map[types.Key][]byte{"base": []byte("b")}})
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		filler := func(ch Change, tag string, n int) Change {
			for i := 0; i < n; i++ {
				ch.Puts[types.Key(fmt.Sprintf("%s-%d", tag, i))] = []byte(fmt.Sprintf("%s filler %032d", tag, i))
			}
			return ch
		}
		v1, _ := s.Commit(ctx, v0, filler(Change{Puts: map[types.Key][]byte{"x": []byte("x1"), "y": []byte("y1")}}, "f", 4))
		v2, _ := s.Commit(ctx, v1, filler(Change{Puts: map[types.Key][]byte{"y": []byte("y2")}, Deletes: []types.Key{"x"}}, "g", 2))
		v3, err := s.Commit(ctx, v1, filler(Change{Puts: map[types.Key][]byte{"y": []byte("y3")}}, "h", 2))
		if err != nil {
			t.Fatal(err)
		}
		before := s.NumChunks()
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if s.NumChunks()-before < 2 {
			t.Fatalf("batch made %d chunks; the case needs a batch larger than one", s.NumChunks()-before)
		}
		closed := chunkOf(t, s, types.CompositeKey{Key: "y", Version: v1})
		for _, ck := range []types.CompositeKey{
			{Key: "x", Version: v1}, {Key: "f-0", Version: v1}, {Key: "f-3", Version: v1},
			{Key: "y", Version: v2}, {Key: "g-1", Version: v2}, {Key: "y", Version: v3}, {Key: "h-0", Version: v3},
		} {
			if chunkOf(t, s, ck) == closed {
				t.Errorf("open record %v shares chunk %d with the closed ⟨y,V%d⟩", ck, closed, v1)
			}
		}
		if _, _, err := s.GetRecord(ctx, "x", v2); err == nil {
			t.Error("x found in v2, which deleted it")
		}
		if r, _, err := s.GetRecord(ctx, "x", v3); err != nil || string(r.Value) != "x1" {
			t.Errorf("x in v3: %q, %v", r.Value, err)
		}
	})

	// (c) Merge re-adds. v3 merges v2 into v1's line by re-adding the
	// already placed ⟨b,v2⟩; in the same batch v4 adds ⟨c,v4⟩ and v5, on the
	// other line, merges v4 by re-adding that still pending record. The
	// placed record keeps its chunk and slot, the pending one gets exactly
	// one, and the batch is large enough to be split.
	t.Run("merge-readd", func(t *testing.T) {
		s, err := Open(ctx, Config{ChunkCapacity: 256})
		if err != nil {
			t.Fatal(err)
		}
		v0, _ := s.Commit(ctx, types.InvalidVersion, Change{Puts: map[types.Key][]byte{"a": []byte("a0"), "b": []byte("b0")}})
		v1, _ := s.Commit(ctx, v0, Change{Puts: map[types.Key][]byte{"a": []byte("a1")}})
		v2, _ := s.Commit(ctx, v0, Change{Puts: map[types.Key][]byte{"b": []byte("b1")}})
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		bRec, _ := s.corpus.IDForCK(types.CompositeKey{Key: "b", Version: v2})
		bLoc, chunks := s.layout.Loc(bRec), s.NumChunks()

		v3, err := s.CommitDelta(ctx, []types.VersionID{v1, v2}, &types.Delta{
			Adds: []types.Record{{CK: types.CompositeKey{Key: "b", Version: v2}, Value: []byte("b1")}},
			Dels: []types.CompositeKey{{Key: "b", Version: v0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if s.NumChunks() != chunks || s.layout.Loc(bRec) != bLoc {
			t.Fatalf("re-adding a placed record: %d → %d chunks, ⟨b,V%d⟩ at %+v → %+v", chunks, s.NumChunks(), v2, bLoc, s.layout.Loc(bRec))
		}

		big := Change{Puts: map[types.Key][]byte{"c": []byte("c4")}}
		for i := 0; i < 6; i++ {
			big.Puts[types.Key(fmt.Sprintf("pad-%d", i))] = []byte(fmt.Sprintf("pad %040d", i))
		}
		v4, err := s.Commit(ctx, v3, big)
		if err != nil {
			t.Fatal(err)
		}
		v5, err := s.CommitDelta(ctx, []types.VersionID{v2, v4}, &types.Delta{
			Adds: []types.Record{{CK: types.CompositeKey{Key: "c", Version: v4}, Value: []byte("c4")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		v6, _ := s.Commit(ctx, v4, Change{Puts: map[types.Key][]byte{"pad-0": []byte("rewritten"), "pad-1": []byte("rewritten")}})
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if s.NumChunks()-chunks < 2 || s.layout.Loc(bRec) != bLoc {
			t.Fatalf("second batch: %d new chunks, ⟨b,V%d⟩ at %+v", s.NumChunks()-chunks, v2, s.layout.Loc(bRec))
		}
		for v, want := range map[types.VersionID]map[types.Key]string{
			v3: {"a": "a1", "b": "b1"},
			v5: {"a": "a0", "b": "b1", "c": "c4"},
		} {
			recs, _, err := s.GetVersionAll(ctx, v)
			if err != nil || len(recs) != len(want) {
				t.Fatalf("version %d: %d records, %v", v, len(recs), err)
			}
			for _, r := range recs {
				if want[r.CK.Key] != string(r.Value) {
					t.Errorf("version %d: %s = %q, want %q", v, r.CK.Key, r.Value, want[r.CK.Key])
				}
			}
		}
		if r, _, err := s.GetRecord(ctx, "pad-0", v6); err != nil || string(r.Value) != "rewritten" {
			t.Errorf("pad-0 in v6: %q, %v", r.Value, err)
		}
	})

	// (d) A batch that fits one chunk stays one instance and one chunk, closed
	// records included (TestWastedChunksCounted relies on it).
	t.Run("fits-one-chunk", func(t *testing.T) {
		s, err := Open(ctx, Config{ChunkCapacity: 4096})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := s.Commit(ctx, types.InvalidVersion, Change{Puts: map[types.Key][]byte{"a": []byte("a0"), "b": []byte("b0")}})
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		before := s.NumChunks()
		for i := 1; i <= 5; i++ {
			if v, err = s.Commit(ctx, v, Change{Puts: map[types.Key][]byte{"a": []byte(fmt.Sprintf("a%d", i))}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if got := s.NumChunks() - before; got != 1 {
			t.Fatalf("a batch of five small records, four of them closed, made %d chunks", got)
		}
	})
}
