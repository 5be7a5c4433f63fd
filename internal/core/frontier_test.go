package core

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
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

// newRecords returns, ascending, the records the pending versions add that
// have no chunk yet: the new records of the batch a flush would place.
func newRecords(st *Store) []uint32 {
	var out []uint32
	for _, v := range st.pending() {
		for _, rec := range st.corpus.Adds(v) {
			if st.layout.Loc(rec).Chunk == chunk.NoChunk {
				out = append(out, rec)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestFrontierMatchesReplay checks frontier against a brute-force replay of
// every pending leaf's records from its subtree root's parent: the parent's
// records at the slots its bitmaps hold, then each delta on the path down,
// a placed record re-added at the copy the parent holds or else the newest.
// A new record a leaf holds is open; a placed one is live at its slot. The
// batches branch at random over placed history that holds copies: a main
// chain that decays old chunks until flushes copy their last records
// forward, side branches off older placed versions (some of which hold a
// copied record at its older copy), a new record deleted on one branch and
// alive on another, and a merge that re-adds a placed record. The first
// batch holds the root, a subtree without a placed parent.
func TestFrontierMatchesReplay(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		st, err := Open(ctx, Config{ChunkCapacity: copyCapacity})
		if err != nil {
			t.Fatal(err)
		}
		c := newCopyChain(t, st, seed, 1000)
		rng := c.rng
		c.chain(0, 2, 40)
		c.chain(0, 1, 40)
		var seen frontierCases
		checkFrontier(t, st, &seen)
		tip := types.VersionID(1)
		// The chain decays the root's chunks until a flush copies their last
		// records forward; six rounds after the first copy, side branches
		// grow off older placed versions too.
		for round, after := 0, 0; after < 6; round++ {
			if round == 40 {
				t.Fatalf("seed %d: no flush of %d copied a record forward", seed, round)
			}
			if err := st.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			first := types.VersionID(st.graph.NumVersions())
			tip = c.chain(tip, 4, 150)
			if st.layout.Copied() > 0 {
				after++
				for side := 0; side < 2; side++ {
					c.chain(types.VersionID(rng.Intn(int(first))), 1+rng.Intn(2), 30)
				}
			}
			// A new record of a pending version deleted by one child and kept
			// alive by another.
			pv := first + types.VersionID(rng.Intn(len(c.states)-int(first)))
			var gone types.Key
			for _, k := range slices.Sorted(maps.Keys(c.states[pv])) {
				if c.states[pv][k].CK.Version >= first {
					gone = k
					break
				}
			}
			c.commit([]types.VersionID{pv}, Change{Deletes: []types.Key{gone}})
			c.chain(pv, 1, 5)
			// A merge of the tip and a placed version that re-adds one of the
			// placed version's records the tip does not hold, a copied one
			// where there is one.
			c.readd(tip, types.VersionID(rng.Intn(int(first))))
			checkFrontier(t, st, &seen)
		}
		if seen.readds == 0 || seen.copied == 0 || seen.olderCopy == 0 || seen.deletedOpen == 0 {
			t.Fatalf("seed %d: the batches exercise too little: %+v", seed, seen)
		}
		t.Logf("seed %d: %d versions, %d copied records, %+v", seed, len(c.states), st.layout.Copied(), seen)
	}
}

// frontierCases counts what checkFrontier saw.
type frontierCases struct {
	readds      int // placed records a pending delta adds
	copied      int // live slots of records a flush copied forward
	olderCopy   int // live slots at a copy older than the record's newest
	deletedOpen int // open records some pending delta deletes
}

// checkFrontier compares st.frontier over st's pending versions with a
// replay of each pending leaf (TestFrontierMatchesReplay), and counts in seen
// the cases the batch holds.
func checkFrontier(t *testing.T, st *Store, seen *frontierCases) {
	t.Helper()
	pending := st.pending()
	newIDs := newRecords(st)
	open, live := st.frontier(pending, newIDs)

	wantOpen := map[uint32]bool{}
	wantLive := map[chunk.Loc]bool{}
	deleted := map[uint32]bool{}
	for _, v := range pending {
		for _, rec := range st.corpus.Dels(v) {
			deleted[rec] = true
		}
		for _, rec := range st.corpus.Adds(v) {
			if st.layout.Loc(rec).Chunk != chunk.NoChunk {
				seen.readds++
			}
		}
		if len(st.graph.Children(v)) > 0 {
			continue // not a leaf
		}
		path := []types.VersionID{v} // the leaf, up to its subtree's root
		for p := st.graph.Parent(v); p != types.InvalidVersion && p >= pending[0]; p = st.graph.Parent(p) {
			path = append(path, p)
		}
		parent := st.graph.Parent(path[len(path)-1])
		held := map[uint32]chunk.Loc{} // the parent's records, at the copies it holds
		if parent != types.InvalidVersion {
			for cid := chunk.ID(0); int(cid) < st.layout.NumChunks(); cid++ {
				if bits := st.layout.Map(cid).SlotsOf(parent); bits != nil {
					bits.ForEach(func(slot uint32) bool {
						held[st.layout.Records(cid)[slot]] = chunk.Loc{Chunk: cid, Slot: slot}
						return true
					})
				}
			}
		}
		state := maps.Clone(held)
		for _, w := range slices.Backward(path) {
			for _, rec := range st.corpus.Dels(w) {
				delete(state, rec)
			}
			for _, rec := range st.corpus.Adds(w) {
				loc, ok := held[rec]
				if !ok {
					loc = st.layout.Loc(rec)
				}
				if loc.Chunk == chunk.NoChunk || parent != types.InvalidVersion {
					state[rec] = loc
				}
			}
		}
		for rec, loc := range state {
			if loc.Chunk == chunk.NoChunk {
				wantOpen[rec] = true
			} else {
				wantLive[loc] = true
			}
		}
	}

	var gotOpen []uint32
	open.ForEach(func(i uint32) bool {
		gotOpen = append(gotOpen, newIDs[0]+i)
		return true
	})
	if want := slices.Sorted(maps.Keys(wantOpen)); !slices.Equal(gotOpen, want) {
		t.Fatalf("pending %d..%d: open records %v, the replay says %v", pending[0], pending[len(pending)-1], gotOpen, want)
	}
	for rec := range wantOpen {
		if deleted[rec] {
			seen.deletedOpen++
		}
	}
	if len(live) != st.layout.NumChunks() {
		t.Fatalf("live over %d chunks, the store has %d", len(live), st.layout.NumChunks())
	}
	for cid, bits := range live {
		var got, want []uint32
		if bits != nil {
			got = bits.Slice()
		}
		for slot := uint32(0); int(slot) < st.layout.Map(chunk.ID(cid)).NumSlots; slot++ {
			loc := chunk.Loc{Chunk: chunk.ID(cid), Slot: slot}
			if !wantLive[loc] {
				continue
			}
			want = append(want, slot)
			rec := st.layout.Records(loc.Chunk)[slot]
			if len(st.layout.Older(rec)) > 0 {
				seen.copied++
			}
			if st.layout.Loc(rec) != loc {
				seen.olderCopy++
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pending %d..%d: chunk %d's live slots %v, the replay says %v", pending[0], pending[len(pending)-1], cid, got, want)
		}
	}
}
