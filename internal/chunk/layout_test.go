package chunk

import (
	"errors"
	"slices"
	"testing"

	"rstore/internal/corpus"
	"rstore/internal/types"
)

// fakeProj is a Projection that records what a Layout reports, in order.
type fakeProj struct {
	versions map[types.VersionID][]ID
}

func newFakeProj() *fakeProj {
	return &fakeProj{versions: map[types.VersionID][]ID{}}
}

func (p *fakeProj) ObserveVersionChunk(v types.VersionID, c ID) {
	p.versions[v] = append(p.versions[v], c)
}
func (p *fakeProj) VersionChunks(v types.VersionID) []ID { return p.versions[v] }

// recordItems wraps every record of c as a one-member item; item index =
// record id.
func recordItems(t testing.TB, c *corpus.Corpus) []Item {
	t.Helper()
	items := make([]Item, c.NumRecords())
	for i := range items {
		it, err := SingleRecordItem(c, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		items[i] = it
	}
	return items
}

// storedOf decodes a chunk's segment values, as AddChunk returned them, back
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
// layout's Locs, with the corpus's ground truth (Members), and the reported
// spans with the maps.
func checkLayout(t *testing.T, c *corpus.Corpus, l *Layout, p *fakeProj) {
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
			loc := l.Loc(rec)
			if loc.Chunk == NoChunk || !l.Map(loc.Chunk).SlotsOf(v).Contains(loc.Slot) {
				t.Fatalf("v%d: record %d at %+v not in its chunk's map", v, rec, loc)
			}
		}
		if !slices.Equal(p.versions[v], span) {
			t.Fatalf("v%d: reported span %v, maps say %v", v, p.versions[v], span)
		}
	}
}

// TestLayoutOfflineOnlineRestore drives the three users of a Layout over one
// corpus — everything at once, a batch on top of a placed prefix, and the
// load-time fold of what those two persisted — and checks each against
// corpus.Members.
func TestLayoutOfflineOnlineRestore(t *testing.T) {
	c := miniCorpus(t) // records: doc@0, other@0, doc@1, doc@2
	items := recordItems(t, c)

	// Offline: two chunks, then every version in id order.
	proj := newFakeProj()
	l := NewLayout(c, proj)
	for _, idxs := range [][]uint32{{1, 0}, {3, 2}} {
		if _, err := l.AddChunk(items, idxs); err != nil {
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
	checkLayout(t, c, l, proj)
	whole := l.TakeDelta()
	if len(whole) != 2 || len(whole[0].Versions) != 3 || len(whole[1].Versions) != 2 {
		t.Fatalf("delta of a full build: %v", whole)
	}
	if l.TakeDelta() != nil {
		t.Fatal("a taken delta came back")
	}

	// Online: version 0 with its chunk, then the batch {1, 2} with a second
	// chunk; the second delta holds only the batch's bitmaps.
	proj2 := newFakeProj()
	l2 := NewLayout(c, proj2)
	if l2.Loc(3).Chunk != NoChunk {
		t.Fatal("unplaced record has a chunk")
	}
	p0, err := l2.AddChunk(items, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.PlaceVersion(0); err != nil {
		t.Fatal(err)
	}
	first := l2.TakeDelta()
	p1, err := l2.AddChunk(items, []uint32{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := types.VersionID(1); v < 3; v++ {
		if err := l2.PlaceVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	checkLayout(t, c, l2, proj2)
	second := l2.TakeDelta()
	if _, old := second[0].Versions[0]; old || len(second[0].Versions) != 2 || second[0].NumSlots != 2 {
		t.Fatalf("second delta of chunk 0: %+v", second[0])
	}

	// Restore: fold both deltas, in order, over the decoded payloads.
	proj3 := newFakeProj()
	l3 := NewLayout(c, proj3)
	if err := l3.Restore(1, second[1], storedOf(t, p1)); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("chunk 1 restored before chunk 0: %v", err)
	}
	short := storedOf(t, p0)
	short.Records = short.Records[:1]
	if err := l3.Restore(0, first[0], short); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("chunk restored from segments shorter than its map: %v", err)
	}
	for _, step := range []struct {
		cid    ID
		m      *Map
		stored Stored
	}{{0, first[0], storedOf(t, p0)}, {0, second[0], Stored{}}, {1, second[1], storedOf(t, p1)}} {
		if err := l3.Restore(step.cid, step.m, step.stored); err != nil {
			t.Fatal(err)
		}
	}
	checkLayout(t, c, l3, proj3)
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

// TestLayoutRejectsBadAssignments: a record assigned to two chunks, an item
// index past the items, and a live record no chunk holds.
func TestLayoutRejectsBadAssignments(t *testing.T) {
	c := miniCorpus(t)
	items := recordItems(t, c)

	l := NewLayout(c, newFakeProj())
	if _, err := l.AddChunk(items, []uint32{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddChunk(items, []uint32{1, 2, 3}); err == nil {
		t.Fatal("record in two chunks accepted")
	}
	if _, err := l.AddChunk(items, []uint32{9}); err == nil {
		t.Fatal("item index past the items accepted")
	}

	// Record 0 (live in v0) left out.
	l = NewLayout(c, newFakeProj())
	if _, err := l.AddChunk(items, []uint32{1, 2, 3}); err != nil {
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
