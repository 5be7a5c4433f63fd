package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rstore/internal/bitset"
	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// placementParts is a placement record taken apart. encode writes it out by
// the grammar of docs/FORMATS.md, not through savePlacement, so the tests
// below can state records no store would write.
type placementParts struct {
	first   uint64
	parents [][]types.VersionID
	maps    []mapPart // as listed: a valid record lists chunks ascending
}

type mapPart struct {
	cid chunk.ID
	m   *chunk.Map
}

func (p placementParts) encode() []byte {
	buf := codec.PutUvarint(nil, p.first)
	buf = codec.PutUvarint(buf, uint64(len(p.parents)))
	for _, ps := range p.parents {
		buf = codec.PutUvarint(buf, uint64(len(ps)))
		for _, parent := range ps {
			buf = codec.PutUvarint(buf, uint64(parent))
		}
	}
	buf = codec.PutUvarint(buf, uint64(len(p.maps)))
	for _, mp := range p.maps {
		buf = codec.PutUvarint(buf, uint64(mp.cid))
		buf = codec.PutBytes(buf, mp.m.AppendBinary(nil))
	}
	return buf
}

// wholeRecord takes apart the one record a bulk-loaded store wrote: every
// version's parents and, per chunk, every version's diff against its tree
// parent — computed here from the live layout's whole bitmaps, not taken from
// the layout's own delta.
func wholeRecord(t *testing.T, st *Store) placementParts {
	t.Helper()
	var p placementParts
	for v := types.VersionID(0); int(v) < st.graph.NumVersions(); v++ {
		p.parents = append(p.parents, slices.Clone(st.graph.Parents(v)))
	}
	for cid := chunk.ID(0); int(cid) < st.NumChunks(); cid++ {
		live := st.layout.Map(cid)
		m := chunk.NewMap(live.NumSlots)
		for v := types.VersionID(0); int(v) < st.graph.NumVersions(); v++ {
			diff := bitset.New(live.NumSlots)
			for _, u := range []types.VersionID{v, st.graph.Parent(v)} {
				if bits := live.SlotsOf(u); bits != nil { // nil also for the root's InvalidVersion parent
					diff.Xor(bits)
				}
			}
			if !diff.Empty() {
				m.Versions[v] = diff
			}
		}
		p.maps = append(p.maps, mapPart{cid, m})
	}
	return p
}

// TestLoadRejectsCorruptPlacementRecord: whatever a placement record says
// that the chunks, the root or the records before it contradict comes back
// from Load as ErrCorrupt — bitmaps and deltas are both folded from the
// record's diffs, so a diff is checked against the chunk it indexes before
// anything is.
func TestLoadRejectsCorruptPlacementRecord(t *testing.T) {
	ctx := context.Background()
	st, kv := openGolden(t, Config{})
	if err := st.BulkLoad(ctx, goldenCorpus(t)); err != nil {
		t.Fatal(err)
	}
	key := placementKey(st.gen, 0)
	stored, err := kv.Get(ctx, TablePlacement, key)
	if err != nil {
		t.Fatal(err)
	}
	if got := wholeRecord(t, st).encode(); !bytes.Equal(got, stored) {
		t.Fatalf("the record re-encoded from its parts differs from the stored one (%d and %d bytes)", len(got), len(stored))
	}
	numVersions, numChunks := st.graph.NumVersions(), st.NumChunks()
	if numVersions < 10 || numChunks < 3 {
		t.Fatalf("%d versions in %d chunks: too small to corrupt", numVersions, numChunks)
	}
	// someBitmap picks a diff of chunk map m, the lowest version's.
	someBitmap := func(m *chunk.Map) *bitset.BitSet {
		vs := make([]types.VersionID, 0, len(m.Versions))
		for v := range m.Versions {
			vs = append(vs, v)
		}
		return m.Versions[slices.Min(vs)]
	}

	for _, tc := range []struct {
		name    string
		corrupt func(p *placementParts) []byte // nil: p, changed in place, re-encoded
	}{
		{"a diff names a slot past the chunk's records", func(p *placementParts) []byte {
			someBitmap(p.maps[1].m).Set(uint32(p.maps[1].m.NumSlots))
			return nil
		}},
		{"a chunk map counts other slots than its chunk holds", func(p *placementParts) []byte {
			p.maps[1].m.NumSlots--
			return nil
		}},
		{"a map delta for a chunk past the root's count", func(p *placementParts) []byte {
			p.maps = append(p.maps, mapPart{chunk.ID(numChunks), chunk.NewMap(0)})
			return nil
		}},
		{"map deltas out of chunk order", func(p *placementParts) []byte {
			p.maps[0], p.maps[1] = p.maps[1], p.maps[0]
			return nil
		}},
		{"a diff of a version the record does not place", func(p *placementParts) []byte {
			p.maps[0].m.Versions[types.VersionID(numVersions)] = bitset.FromSlice([]uint32{0})
			return nil
		}},
		{"a version whose parent is not folded yet", func(p *placementParts) []byte {
			p.parents[4] = []types.VersionID{7}
			return nil
		}},
		{"a version that is its own parent", func(p *placementParts) []byte {
			p.parents[4] = []types.VersionID{4}
			return nil
		}},
		{"a second root", func(p *placementParts) []byte {
			p.parents[4] = nil
			return nil
		}},
		{"an unknown secondary parent", func(p *placementParts) []byte {
			p.parents[4] = append(p.parents[4], types.VersionID(numVersions+5))
			return nil
		}},
		{"fewer versions than the root counts", func(p *placementParts) []byte {
			last := types.VersionID(numVersions - 1)
			p.parents = p.parents[:last]
			for _, mp := range p.maps {
				delete(mp.m.Versions, last)
			}
			return nil
		}},
		{"fewer chunks than the root counts", func(p *placementParts) []byte {
			p.maps = p.maps[:numChunks-1]
			return nil
		}},
		{"a chunk no version's diff claims a record of", func(p *placementParts) []byte {
			clear(p.maps[numChunks-1].m.Versions)
			return nil
		}},
		{"a version count no record could hold", func(*placementParts) []byte {
			return codec.PutUvarint(codec.PutUvarint(nil, 0), 1<<60)
		}},
		{"a parent count no record could hold", func(*placementParts) []byte {
			return codec.PutUvarint(codec.PutUvarint(codec.PutUvarint(nil, 0), 1), 1<<60)
		}},
		{"trailing bytes", func(p *placementParts) []byte { return append(p.encode(), 0) }},
		{"a truncated record", func(p *placementParts) []byte { return stored[:len(stored)/2] }},
	} {
		p := wholeRecord(t, st)
		rec := tc.corrupt(&p)
		if rec == nil {
			rec = p.encode()
		}
		if err := kv.Put(ctx, TablePlacement, key, rec); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(ctx, Config{KV: kv, ReadOnly: true}); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%s: Load returned %v, want ErrCorrupt", tc.name, err)
		}
	}

	if err := kv.Put(ctx, TablePlacement, key, stored); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(ctx, Config{KV: kv, ReadOnly: true}); err != nil {
		t.Fatalf("the stored record, put back: %v", err)
	}
}

// TestFoldRebuildsBitmapsFromDiffs: placement records state a version as its
// diffs against its tree parent, and Load must come back with the bitmaps the
// writer holds whole. Seeded branchy sessions, bulk loaded and committed
// online in batches of 16, are reloaded after every flush, with a pending
// tail, and after a Materialize, and compared with the live store bitmap by
// bitmap (checkSamePlacement). The sessions must reach the cases a fold can
// get wrong: a version that empties a chunk its parent filled, a chunk a
// version is the first of its line to touch, a version whose parent an earlier
// record placed, a merge that re-adds records through its second parent, and
// — the rule nothing in a record states — a chunk a version's record does not
// list it in, where it holds what its parent holds.
func TestFoldRebuildsBitmapsFromDiffs(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		se := branchySession(rng, 70, 48, func(k, step int) []byte { return payload(rng, k, step) })
		for _, batch := range []int{0, 16} { // 0: bulk load
			phase := fmt.Sprintf("seed %d batch %d", seed, batch)
			kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{KV: kv, ChunkCapacity: 512, BatchSize: batch}
			st, err := Open(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reloads := 0
			reload := func(when string) {
				t.Helper()
				ro := cfg
				ro.ReadOnly = true // the live store is still the writer
				re, err := Load(ctx, ro)
				if err != nil {
					t.Fatalf("%s %s: load: %v", phase, when, err)
				}
				checkSamePlacement(t, phase+" "+when, st, re)
				reloads++
			}
			if batch == 0 {
				if err := st.BulkLoad(ctx, sessionCorpus(t, se)); err != nil {
					t.Fatal(err)
				}
				reload("after the bulk load")
			} else {
				if err := st.Checkpoint(ctx); err != nil { // a root for the first pending tail to load under
					t.Fatal(err)
				}
				for v, sc := range se.commits {
					if got, err := st.CommitDelta(ctx, sc.parents, sc.delta); err != nil || int(got) != v {
						t.Fatalf("%s: commit %d: %d, %v", phase, v, got, err)
					}
					switch st.PendingVersions() {
					case 0:
						reload(fmt.Sprintf("after the flush at version %d", v))
					case batch / 2:
						reload(fmt.Sprintf("with a pending tail at version %d", v))
					}
				}
			}

			// What the placed versions look like beside their parents.
			var emptied, firstTouch, inherited, acrossRecords int
			for v := types.VersionID(1); int(v) < st.placed; v++ {
				parent := st.graph.Parent(v)
				if batch > 0 && int(parent)/batch < int(v)/batch {
					acrossRecords++
				}
				for cid := chunk.ID(0); int(cid) < st.NumChunks(); cid++ {
					mine, theirs := st.layout.Map(cid).SlotsOf(v), st.layout.Map(cid).SlotsOf(parent)
					switch {
					case mine == nil && theirs != nil:
						emptied++
					case mine != nil && theirs == nil:
						firstTouch++
					case mine != nil && mine.Equal(theirs):
						inherited++
					}
				}
			}
			if emptied == 0 || firstTouch == 0 || inherited == 0 || se.remerged == 0 || (batch > 0 && acrossRecords == 0) {
				t.Fatalf("%s: %d (version, chunk) pairs emptied, %d first touched, %d inherited, %d versions under an earlier record's parent, %d re-added records: the session exercises too little",
					phase, emptied, firstTouch, inherited, acrossRecords, se.remerged)
			}

			if err := st.Materialize(ctx); err != nil {
				t.Fatal(err)
			}
			reload("after materialize")
			if batch > 0 && reloads < 2+len(se.commits)/batch {
				t.Fatalf("%s: reloaded %d times", phase, reloads)
			}
		}
	}
}

// foldFixture is what Load hands applyPlacement for one store: the decoded
// chunks and the generation's placement records in order.
type foldFixture struct {
	chunks  []chunk.Stored
	records [][]byte
}

// storedChunks reads the chunks of st's generation back from their segment
// values, as Load does.
func storedChunks(t testing.TB, st *Store, kv *kvstore.Store) []chunk.Stored {
	t.Helper()
	parts := make([][]chunk.Part, st.NumChunks())
	if err := kv.Scan(context.Background(), TableChunks, func(key string, value []byte) bool {
		g, cid, seg, ok := chunk.ParseSegmentKey(key)
		if !ok || g != st.gen || int(cid) >= len(parts) {
			t.Fatalf("chunk segment key %q in a store of generation %d and %d chunks", key, st.gen, len(parts))
		}
		first, _, recs, err := chunk.DecodeSegment(value, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts[cid] = append(parts[cid], chunk.Part{Index: seg, First: first, Records: recs})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	chunks := make([]chunk.Stored, len(parts))
	for cid := range parts {
		var err error
		if chunks[cid], err = chunk.JoinSegments(parts[cid]); err != nil {
			t.Fatal(err)
		}
	}
	return chunks
}

func takeFoldFixture(t testing.TB, st *Store, kv *kvstore.Store) foldFixture {
	t.Helper()
	ctx := context.Background()
	fx := foldFixture{chunks: storedChunks(t, st, kv), records: make([][]byte, st.numPlacements)}
	for idx := range fx.records {
		var err error
		if fx.records[idx], err = kv.Get(ctx, TablePlacement, placementKey(st.gen, uint32(idx))); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

// FuzzApplyPlacement: the fold of a placement record must answer arbitrary
// bytes with ErrCorrupt — never a panic, an index out of range or an
// allocation sized by the input's claims — and whatever it accepts must hang
// together: every version holds, by the deltas read off its diffs, exactly
// the records the slot bitmaps rebuilt from the same diffs name. Seeded with
// the golden corpus's records: the one record of a bulk load (at 0), and each
// record of a replay in online batches of four, folded after the ones before
// it (at i+1); and a record of two versions whose second names parent 2³²,
// which a fold that truncated ids would take for version 0.
func FuzzApplyPlacement(f *testing.F) {
	st, kv := openGolden(f, Config{})
	if err := st.BulkLoad(context.Background(), goldenCorpus(f)); err != nil {
		f.Fatal(err)
	}
	bulk := takeFoldFixture(f, st, kv)
	st, kv = openGolden(f, Config{BatchSize: 4})
	replayGolden(f, st)
	online := takeFoldFixture(f, st, kv)

	f.Add(bulk.records[0], uint8(0))
	for i, rec := range online.records {
		f.Add(rec, uint8(i+1))
	}
	var wide []byte // versions [0, 2): the root, then one of parent 2³²; no chunk maps
	for _, u := range []uint64{0, 2, 0, 1, 1 << 32, 0} {
		wide = codec.PutUvarint(wide, u)
	}
	f.Add(wide, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, at uint8) {
		fx, before := bulk, 0
		if at > 0 {
			fx, before = online, int(at-1)%len(online.records)
		}
		s := newStore(Config{}, false)
		for _, rec := range fx.records[:before] {
			if err := s.applyPlacement(rec, fx.chunks); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.applyPlacement(data, fx.chunks); err != nil {
			if !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("a refused record is not ErrCorrupt: %v", err)
			}
			return
		}
		for v := types.VersionID(0); int(v) < s.graph.NumVersions(); v++ {
			members, err := s.corpus.Members(v)
			if err != nil {
				t.Fatal(err)
			}
			var byDeltas, byBitmaps []string
			for _, id := range members {
				byDeltas = append(byDeltas, fmt.Sprint(s.corpus.Record(id).CK))
			}
			for _, cid := range s.layout.VersionChunks(v) {
				s.layout.Map(cid).SlotsOf(v).ForEach(func(slot uint32) bool {
					byBitmaps = append(byBitmaps, fmt.Sprint(fx.chunks[cid].Records[slot].CK))
					return true
				})
			}
			slices.Sort(byDeltas)
			slices.Sort(byBitmaps)
			if !slices.Equal(byDeltas, byBitmaps) {
				t.Fatalf("version %d holds %v by its deltas, %v by its bitmaps", v, byDeltas, byBitmaps)
			}
		}
	})
}
