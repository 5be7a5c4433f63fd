package chunk

import (
	"errors"
	"slices"
	"testing"

	"rstore/internal/bitset"
	"rstore/internal/corpus"
	"rstore/internal/types"
	"rstore/internal/vgraph"
)

// recordItems wraps every record of c as a one-member item, ranked; item
// index = record id.
func recordItems(c *corpus.Corpus) []Item {
	ids := make([]uint32, c.NumRecords())
	for i := range ids {
		ids[i] = uint32(i)
	}
	items := RecordItems(c, ids)
	RankAll(c, items)
	return items
}

// addChunk codes items[idxs…] as one chunk, adds it to l and returns its
// segment values.
func addChunk(l *Layout, items []Item, idxs []uint32) ([][]byte, error) {
	coded, err := Code(items, idxs)
	if err != nil {
		return nil, err
	}
	if _, err := l.AddChunk(coded); err != nil {
		return nil, err
	}
	return coded.Values, nil
}

// storedOf decodes a chunk's segment values, as Code returned them, back
// into the chunk.
func storedOf(t testing.TB, values [][]byte) Stored {
	t.Helper()
	parts := make([]Part, len(values))
	for i, value := range values {
		first, _, recs, err := DecodeSegment(value, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = Part{Index: uint32(i), First: first, Records: recs}
	}
	st, err := JoinSegments(parts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// checkLayout compares every version's slot bitmaps, resolved through the
// layout's Locs, with the corpus's ground truth (Members), and the recorded
// spans with the maps.
func checkLayout(t *testing.T, c *corpus.Corpus, l *Layout) {
	t.Helper()
	for v := types.VersionID(0); int(v) < c.NumVersions(); v++ {
		want, err := c.Members(v)
		if err != nil {
			t.Fatal(err)
		}
		var span []ID
		n := 0
		for cid := ID(0); int(cid) < l.NumChunks(); cid++ {
			if bm := l.Map(cid).SlotsOf(v); bm != nil && !bm.Empty() {
				span = append(span, cid)
				n += bm.Count()
			}
		}
		if n != len(want) {
			t.Fatalf("v%d: maps hold %d slots, version has %d records", v, n, len(want))
		}
		for _, rec := range want {
			if _, ok := l.Held(rec, v); !ok {
				t.Fatalf("v%d: record %d at %+v (older copies %v) not in its chunk's map", v, rec, l.Loc(rec), l.Older(rec))
			}
		}
		if !slices.Equal(l.VersionChunks(v), span) || l.VersionSpan(v) != len(span) {
			t.Fatalf("v%d: recorded span %v, maps say %v", v, l.VersionChunks(v), span)
		}
	}
}

// TestLayoutOfflineOnlineRestore drives the three users of a Layout over one
// corpus — everything at once, a batch on top of a placed prefix, and the
// load-time fold of what those two persisted — and checks each against
// corpus.Members.
func TestLayoutOfflineOnlineRestore(t *testing.T) {
	c := miniCorpus(t) // records: doc@0, other@0, doc@1, doc@2
	items := recordItems(c)

	// Offline: two chunks, then every version in id order.
	l := NewLayout(c)
	for _, idxs := range [][]uint32{{1, 0}, {3, 2}} {
		if _, err := addChunk(l, items, idxs); err != nil {
			t.Fatal(err)
		}
	}
	// Slots follow composite-key order, not the assignment's: doc@0 before
	// other@0, doc@1 before doc@2.
	for rec, want := range []Loc{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		if got := l.Loc(uint32(rec)); got != want {
			t.Fatalf("record %d at %+v, want %+v", rec, got, want)
		}
	}
	for v := types.VersionID(0); v < 3; v++ {
		if err := l.PlaceVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	checkLayout(t, c, l)
	// Each version differs from its parent only where composite keys say so —
	// a record is new in the version its key names, and supersedes its key's
	// record in the parent — so the delta lists the two chunks it introduces,
	// for their slot counts, and states no version; the restore below has
	// Implied derive the diffs. Version 2 holds in chunk 0 what version 1
	// holds, and the layout shares the one bitmap.
	whole := l.TakeDelta()
	if len(whole) != 2 || whole[0].NumSlots != 2 || whole[1].NumSlots != 2 || len(whole[0].Versions)+len(whole[1].Versions) != 0 {
		t.Fatalf("delta of a full build: %v", whole)
	}
	if got := l.Map(1).SlotsOf(2).Slice(); !slices.Equal(got, []uint32{1}) {
		t.Fatalf("version 2 swaps doc@1 for doc@2 in chunk 1, and holds there %v", got)
	}
	if l.Map(0).SlotsOf(2) != l.Map(0).SlotsOf(1) {
		t.Fatal("version 2 has a bitmap of its own in a chunk its delta does not touch")
	}
	if l.TakeDelta() != nil {
		t.Fatal("a taken delta came back")
	}

	// Online: version 0 with its chunk, then the batch {1, 2} with a second
	// chunk; the second delta holds only the batch's diffs.
	l2 := NewLayout(c)
	if l2.Loc(3).Chunk != NoChunk {
		t.Fatal("unplaced record has a chunk")
	}
	p0, err := addChunk(l2, items, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.PlaceVersion(0); err != nil {
		t.Fatal(err)
	}
	first := l2.TakeDelta()
	p1, err := addChunk(l2, items, []uint32{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := types.VersionID(1); v < 3; v++ {
		if err := l2.PlaceVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	checkLayout(t, c, l2)
	second := l2.TakeDelta()
	if second[0] != nil || second[1] == nil || len(second[1].Versions) != 0 || second[1].NumSlots != 2 {
		t.Fatalf("second delta: %+v (version 1's delete of doc@0 in chunk 0 is implied)", second)
	}

	// Restore: fold both deltas, in order, over the decoded payloads — a
	// delta's new chunks, then its versions, then the new chunks' records.
	l3 := NewLayout(c)
	if err := l3.RestoreChunk(1, storedOf(t, p1)); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("chunk 1 restored before chunk 0: %v", err)
	}
	stored := []Stored{storedOf(t, p0), storedOf(t, p1)}
	implied := NewImplied(stored)
	for _, step := range []struct {
		delta    map[ID]*Map
		versions []types.VersionID
	}{{first, []types.VersionID{0}}, {second, []types.VersionID{1, 2}}} {
		opened := ID(l3.NumChunks())
		for cid := opened; step.delta[cid] != nil; cid++ {
			if err := l3.RestoreChunk(cid, stored[cid]); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range step.versions {
			var diffs []Slots
			for cid := ID(0); int(cid) < l3.NumChunks(); cid++ {
				if m := step.delta[cid]; m != nil && m.Versions[v] != nil {
					diffs = append(diffs, Slots{cid, m.Versions[v]})
				}
			}
			diffs, err := implied.Or(l3, v, c.Graph().Parent(v), diffs)
			if err != nil {
				t.Fatal(err)
			}
			if err := l3.ApplyDiffs(v, c.Graph().Parent(v), diffs); err != nil {
				t.Fatal(err)
			}
		}
		for cid := opened; int(cid) < l3.NumChunks(); cid++ {
			if err := l3.BindRecords(cid, stored[cid]); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkLayout(t, c, l3)
	if err := l3.ApplyDiffs(2, 1, []Slots{{2, bitset.New(2)}}); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("a diff in a chunk that is not open: %v", err)
	}
	for rec := uint32(0); rec < 4; rec++ {
		if l3.Loc(rec) != l2.Loc(rec) {
			t.Fatalf("record %d restored at %+v, was %+v", rec, l3.Loc(rec), l2.Loc(rec))
		}
	}
	for cid := ID(0); cid < 2; cid++ {
		if !slices.Equal(l3.Segments(cid), l2.Segments(cid)) {
			t.Fatalf("chunk %d restored with segments %v, had %v", cid, l3.Segments(cid), l2.Segments(cid))
		}
	}
	if l3.TakeDelta() != nil {
		t.Fatal("restoring produced a delta to persist")
	}
}

// TestLayoutRejectsBadAssignments: a record assigned to one chunk twice, an
// item index past the items, and a live record no chunk holds. A record an
// earlier chunk holds is a copy, not an error.
func TestLayoutRejectsBadAssignments(t *testing.T) {
	c := miniCorpus(t)
	items := recordItems(c)

	l := NewLayout(c)
	if _, err := addChunk(l, items, []uint32{0, 1}); err != nil {
		t.Fatal(err)
	}
	was := l.Loc(1)
	if _, err := addChunk(l, items, []uint32{1, 2, 3}); err != nil {
		t.Fatalf("a copy of record 1 refused: %v", err)
	}
	if l.Loc(1).Chunk != 1 || !slices.Equal(l.Older(1), []Loc{was}) || l.Copied() != 1 {
		t.Fatalf("record 1 copied: at %+v, older copies %v, %d records copied", l.Loc(1), l.Older(1), l.Copied())
	}
	if err := l.CheckOneCopy(1); err == nil {
		t.Fatal("a chunk holding a copy passes CheckOneCopy")
	}
	if _, err := addChunk(l, items, []uint32{2, 2}); err == nil {
		t.Fatal("record twice in one chunk accepted")
	}
	if _, err := addChunk(l, items, []uint32{9}); err == nil {
		t.Fatal("item index past the items accepted")
	}

	// Record 0 (live in v0) left out.
	l = NewLayout(c)
	if _, err := addChunk(l, items, []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.PlaceVersion(0); err == nil {
		t.Fatal("unplaced live record accepted")
	}
	// … and a deleted one: v1 deletes record 0.
	if err := l.PlaceVersion(1); err == nil {
		t.Fatal("unplaced deleted record accepted")
	}
}

// TestPlaceVersionStatesWhatKeysDoNotImply: a version's pending delta keeps
// only the slots its composite keys do not imply — a delete of a key it does
// not put again, and a merge's re-add of a record another version's key
// names — and Implied gives the rest back: folding what was kept rebuilds
// every bitmap.
func TestPlaceVersionStatesWhatKeysDoNotImply(t *testing.T) {
	g := vgraph.New()
	v0, _ := g.AddRoot()
	v1, _ := g.AddVersion(v0)
	if _, err := g.AddVersion(v1, v0); err != nil {
		t.Fatal(err)
	}
	rec := func(k string, v types.VersionID) types.Record {
		return types.Record{CK: types.CompositeKey{Key: types.Key(k), Version: v}, Value: []byte(k + " value")}
	}
	c := corpus.New(g)
	for v, d := range []*types.Delta{
		{Adds: []types.Record{rec("a", 0), rec("b", 0), rec("c", 0)}},
		// a@1 supersedes a@0: both implied; b@0's delete is stated.
		{Adds: []types.Record{rec("a", 1)}, Dels: []types.CompositeKey{{Key: "a", Version: 0}, {Key: "b", Version: 0}}},
		// b@0 comes back through the merge with version 0: stated; c@2 and
		// the delete of c@0 are implied.
		{Adds: []types.Record{rec("b", 0), rec("c", 2)}, Dels: []types.CompositeKey{{Key: "c", Version: 0}}},
	} {
		if err := c.AddVersionDelta(types.VersionID(v), d); err != nil {
			t.Fatal(err)
		}
	}
	l := NewLayout(c)
	values, err := addChunk(l, recordItems(c), []uint32{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := types.VersionID(0); v < 3; v++ {
		if err := l.PlaceVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	checkLayout(t, c, l)
	b0, _ := c.IDForCK(types.CompositeKey{Key: "b", Version: 0})
	slot := l.Loc(b0).Slot
	delta := l.TakeDelta()
	if len(delta) != 1 || len(delta[0].Versions) != 2 ||
		!slices.Equal(delta[0].Versions[1].Slice(), []uint32{slot}) || !slices.Equal(delta[0].Versions[2].Slice(), []uint32{slot}) {
		t.Fatalf("delta %v: want versions 1 and 2 to state b@0's slot %d alone", delta[0], slot)
	}

	re := NewLayout(c)
	st := storedOf(t, values)
	if err := re.RestoreChunk(0, st); err != nil {
		t.Fatal(err)
	}
	implied := NewImplied([]Stored{st})
	for v := types.VersionID(0); v < 3; v++ {
		var diffs []Slots
		if bits := delta[0].Versions[v]; bits != nil {
			diffs = []Slots{{0, bits.Clone()}}
		}
		if diffs, err = implied.Or(re, v, g.Parent(v), diffs); err != nil {
			t.Fatal(err)
		}
		if err := re.ApplyDiffs(v, g.Parent(v), diffs); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.BindRecords(0, st); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, c, re)
}

// TestRefusedAddChunkMovesNoLoc: a chunk AddChunk refuses — one record in two
// of its slots — adds no chunk and leaves every Loc as it was, so the next
// chunk takes the refused one's id and the refused one's records stay where
// they were.
func TestRefusedAddChunkMovesNoLoc(t *testing.T) {
	c := miniCorpus(t)
	items := recordItems(c)
	l := NewLayout(c)
	if _, err := addChunk(l, items, []uint32{0, 1}); err != nil {
		t.Fatal(err)
	}
	var before []Loc
	for rec := uint32(0); rec < 4; rec++ {
		before = append(before, l.Loc(rec))
	}
	// Slots doc@1, doc@2, doc@2: the refusal comes at the third slot.
	if _, err := addChunk(l, items, []uint32{2, 3, 3}); err == nil {
		t.Fatal("record twice in one chunk accepted")
	}
	for rec := uint32(0); rec < 4; rec++ {
		if l.Loc(rec) != before[rec] || len(l.Older(rec)) != 0 {
			t.Fatalf("record %d at %+v (older %v) after a refused chunk, was %+v", rec, l.Loc(rec), l.Older(rec), before[rec])
		}
	}
	if l.NumChunks() != 1 {
		t.Fatalf("%d chunks after a refused one, want 1", l.NumChunks())
	}
	if _, err := addChunk(l, items, []uint32{2, 3}); err != nil {
		t.Fatal(err)
	}
	for v := types.VersionID(0); v < 3; v++ {
		if err := l.PlaceVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	checkLayout(t, c, l)
}

// TestPlaceVersionMovesCopies: a batch whose chunk copies a placed record
// forward moves its subtree root to the copy — a slot out of the old chunk,
// a slot into the new one, both stated — and the root's child inherits it;
// the version before the batch keeps the old slot, and a history of the
// record's key finds both. Implied leaves the copy out of the record's
// creation, and the fold of the two deltas rebuilds every bitmap, Loc and
// older copy.
func TestPlaceVersionMovesCopies(t *testing.T) {
	c := miniCorpus(t) // v0 {doc@0, other@0}, v1 doc@0 → doc@1, v2 doc@1 → doc@2
	items := recordItems(c)
	l := NewLayout(c)
	p0, err := addChunk(l, items, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.PlaceVersion(0); err != nil {
		t.Fatal(err)
	}
	first := l.TakeDelta()
	old := l.Loc(1) // other@0 in chunk 0
	p1, err := addChunk(l, items, []uint32{2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := types.VersionID(1); v < 3; v++ {
		if err := l.PlaceVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	checkLayout(t, c, l)
	copied := l.Loc(1)
	if copied.Chunk != 1 || !slices.Equal(l.Older(1), []Loc{old}) {
		t.Fatalf("other@0 at %+v, older copies %v", copied, l.Older(1))
	}
	for v, want := range []Loc{old, copied, copied} {
		if at, ok := l.Held(1, types.VersionID(v)); !ok || at != want {
			t.Fatalf("version %d holds other@0 at %+v (%v), want %+v", v, at, ok, want)
		}
	}
	for v, want := range [][]ID{{0}, {1}, {1}} {
		if got := l.VersionChunks(types.VersionID(v)); !slices.Equal(got, want) {
			t.Fatalf("version %d spans %v, want %v", v, got, want)
		}
	}
	second := l.TakeDelta()
	if len(second) != 2 || len(second[0].Versions) != 1 || len(second[1].Versions) != 1 ||
		!slices.Equal(second[0].Versions[1].Slice(), []uint32{old.Slot}) || !slices.Equal(second[1].Versions[1].Slice(), []uint32{copied.Slot}) {
		t.Fatalf("second delta %v: want version 1 to state the move of other@0 alone, %+v → %+v", second, old, copied)
	}

	stored := []Stored{storedOf(t, p0), storedOf(t, p1)}
	implied := NewImplied(stored)
	copiedKeys := 0
	for rec := uint32(0); int(rec) < c.NumRecords(); rec++ {
		if implied.Copies(c.Record(rec).CK) != nil {
			copiedKeys++
		}
	}
	if got := implied.Copies(types.CompositeKey{Key: "other", Version: 0}); !slices.Equal(got, []Loc{old, copied}) || copiedKeys != 1 {
		t.Fatalf("Implied finds other@0 at %v (%d keys copied), want %v", got, copiedKeys, []Loc{old, copied})
	}
	re := NewLayout(c)
	for _, step := range []struct {
		delta    map[ID]*Map
		versions []types.VersionID
	}{{first, []types.VersionID{0}}, {second, []types.VersionID{1, 2}}} {
		opened := ID(re.NumChunks())
		for cid := opened; step.delta[cid] != nil; cid++ {
			if err := re.RestoreChunk(cid, stored[cid]); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range step.versions {
			var diffs []Slots
			for cid := ID(0); int(cid) < re.NumChunks(); cid++ {
				if m := step.delta[cid]; m != nil && m.Versions[v] != nil {
					diffs = append(diffs, Slots{cid, m.Versions[v].Clone()})
				}
			}
			diffs, err := implied.Or(re, v, c.Graph().Parent(v), diffs)
			if err != nil {
				t.Fatal(err)
			}
			if err := re.ApplyDiffs(v, c.Graph().Parent(v), diffs); err != nil {
				t.Fatal(err)
			}
		}
		for cid := opened; int(cid) < re.NumChunks(); cid++ {
			if err := re.BindRecords(cid, stored[cid]); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkLayout(t, c, re)
	for rec := uint32(0); rec < 4; rec++ {
		if re.Loc(rec) != l.Loc(rec) || !slices.Equal(re.Older(rec), l.Older(rec)) {
			t.Fatalf("record %d restored at %+v (older %v), was %+v (older %v)", rec, re.Loc(rec), re.Older(rec), l.Loc(rec), l.Older(rec))
		}
	}
}
