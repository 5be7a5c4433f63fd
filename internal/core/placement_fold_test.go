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
// parent less the slots composite keys imply — computed here from the live
// layout's whole bitmaps and the corpus, not taken from the layout's own
// delta. A slot of a diff is implied where its record's composite key names
// the version, or where the parent holds it and the version has a record of
// its key that names the version.
func wholeRecord(t *testing.T, st *Store) placementParts {
	t.Helper()
	var p placementParts
	for v := types.VersionID(0); int(v) < st.graph.NumVersions(); v++ {
		p.parents = append(p.parents, slices.Clone(st.graph.Parents(v)))
	}
	cks := slotKeys(st)
	for cid := chunk.ID(0); int(cid) < st.NumChunks(); cid++ {
		live := st.layout.Map(cid)
		m := chunk.NewMap(live.NumSlots)
		for v := types.VersionID(0); int(v) < st.graph.NumVersions(); v++ {
			parent := st.graph.Parent(v)
			diff := bitset.New(live.NumSlots)
			for _, u := range []types.VersionID{v, parent} {
				if bits := live.SlotsOf(u); bits != nil { // nil also for the root's InvalidVersion parent
					diff.Xor(bits)
				}
			}
			diff.ForEach(func(slot uint32) bool {
				ck := cks[cid][slot]
				_, supersedes := st.corpus.IDForCK(types.CompositeKey{Key: ck.Key, Version: v})
				if ck.Version == v || (supersedes && live.SlotsOf(parent).Contains(slot)) {
					diff.Clear(slot)
				}
				return true
			})
			if !diff.Empty() {
				m.Versions[v] = diff
			}
		}
		p.maps = append(p.maps, mapPart{cid, m})
	}
	return p
}

// slotKeys returns, per chunk of st, the composite key of the record in each
// slot.
func slotKeys(st *Store) [][]types.CompositeKey {
	cks := make([][]types.CompositeKey, st.NumChunks())
	for cid := range cks {
		cks[cid] = make([]types.CompositeKey, st.layout.Map(chunk.ID(cid)).NumSlots)
	}
	for rec := 0; rec < st.corpus.NumRecords(); rec++ {
		loc := st.layout.Loc(uint32(rec))
		cks[loc.Chunk][loc.Slot] = st.corpus.Record(uint32(rec)).CK
	}
	return cks
}

// TestLoadRejectsCorruptPlacementRecord: whatever a placement record says
// that the chunks, the root or the records before it contradict comes back
// from Open as ErrCorrupt — bitmaps and deltas are both folded from the
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
	// A record the last version creates: no version before it can hold it.
	last := types.VersionID(numVersions - 1)
	lastAt := chunk.Loc{Chunk: chunk.NoChunk}
	for cid, cks := range slotKeys(st) {
		if slot := slices.IndexFunc(cks, func(ck types.CompositeKey) bool { return ck.Version == last }); slot >= 0 {
			lastAt = chunk.Loc{Chunk: chunk.ID(cid), Slot: uint32(slot)}
		}
	}
	if lastAt.Chunk == chunk.NoChunk {
		t.Fatalf("version %d created no record", last)
	}

	for _, tc := range []struct {
		name    string
		corrupt func(p *placementParts) []byte // nil: p, changed in place, re-encoded
	}{
		{"a diff names a slot past the chunk's records", func(p *placementParts) []byte {
			p.maps[1].m.Versions[1] = bitset.FromSlice([]uint32{uint32(p.maps[1].m.NumSlots)})
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
		{"a version takes up a record whose key names a later version", func(p *placementParts) []byte {
			m := p.maps[lastAt.Chunk].m
			if m.Versions[0] == nil {
				m.Versions[0] = bitset.New(m.NumSlots)
			}
			m.Versions[0].Set(lastAt.Slot)
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
		if _, err := Open(ctx, Config{KV: kv, ReadOnly: true}); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%s: Open returned %v, want ErrCorrupt", tc.name, err)
		}
	}

	if err := kv.Put(ctx, TablePlacement, key, stored); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, Config{KV: kv, ReadOnly: true}); err != nil {
		t.Fatalf("the stored record, put back: %v", err)
	}
}

// TestFoldRebuildsBitmapsFromDiffs: placement records state a version as its
// diffs against its tree parent, and Open must come back with the bitmaps the
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
				re, err := Open(ctx, ro)
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

// foldFixture is what Open hands applyPlacement for one store: the decoded
// chunks, their index of what composite keys imply, and the generation's
// placement records in order.
type foldFixture struct {
	chunks  []chunk.Stored
	implied *chunk.Implied
	records [][]byte
}

// storedChunks reads the chunks of st's generation back from their segment
// values, as Open does.
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
	fx.implied = chunk.NewImplied(fx.chunks)
	for idx := range fx.records {
		var err error
		if fx.records[idx], err = kv.Get(ctx, TablePlacement, placementKey(st.gen, uint32(idx))); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

// shapedFixture is a store of three flushes, each one placement record: the
// root's six keys; version 1, which puts a new key — a new chunk, whose one
// record its key implies — and deletes another, the record's one stated
// slot; and version 2, a merge with version 0 that takes the deleted record
// up again, the one stated slot of its record, and rewrites a key.
func shapedFixture(t testing.TB) foldFixture {
	t.Helper()
	ctx := context.Background()
	st, kv := openGolden(t, Config{})
	puts := map[types.Key][]byte{}
	for _, k := range []types.Key{"a", "b", "c", "d", "e", "f"} {
		puts[k] = []byte("the first value of " + k)
	}
	commits := []func() (types.VersionID, error){
		func() (types.VersionID, error) { return st.Commit(ctx, types.InvalidVersion, Change{Puts: puts}) },
		func() (types.VersionID, error) {
			return st.Commit(ctx, 0, Change{Puts: map[types.Key][]byte{"g": []byte("new in 1")}, Deletes: []types.Key{"b"}})
		},
		func() (types.VersionID, error) {
			return st.CommitDelta(ctx, []types.VersionID{1, 0}, &types.Delta{
				Adds: []types.Record{{CK: types.CompositeKey{Key: "b", Version: 0}, Value: puts["b"]}, {CK: types.CompositeKey{Key: "a", Version: 2}, Value: []byte("rewritten in 2")}},
				Dels: []types.CompositeKey{{Key: "a", Version: 0}},
			})
		},
	}
	for i, commit := range commits {
		if v, err := commit(); err != nil || int(v) != i {
			t.Fatalf("commit %d: %d, %v", i, v, err)
		}
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return takeFoldFixture(t, st, kv)
}

// copiedFixture is a store of two flushes at a chunk capacity of 8 KiB, whose
// flushes copy forward what a placed chunk holds at the batch's tips when it
// packs into 32 bytes — two of its records of 14: the root's 1 000 records,
// two chunks; then version 1, which puts a new key and deletes every record
// of chunk 0 but two, which its flush copies into its new chunk beside the
// new record — a move of each, a slot out of chunk 0 and a slot into chunk 2.
// It returns the store too.
func copiedFixture(t testing.TB) (foldFixture, *Store) {
	t.Helper()
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(ctx, Config{KV: kv, ChunkCapacity: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	puts := map[types.Key][]byte{}
	for i := 0; i < 1000; i++ {
		puts[types.Key(fmt.Sprintf("k%03d", i))] = []byte("x")
	}
	if _, err := st.Commit(ctx, types.InvalidVersion, Change{Puts: puts}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var dels []types.Key
	for _, rec := range st.layout.Records(0)[2:] {
		dels = append(dels, st.corpus.Record(rec).CK.Key)
	}
	if _, err := st.Commit(ctx, 0, Change{Puts: map[types.Key][]byte{"new": []byte("y")}, Deletes: dels}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := st.Info().Copies; n != 2 || st.NumChunks() != 3 {
		t.Fatalf("the copied store holds %d copies in %d chunks, want 2 in 3", n, st.NumChunks())
	}
	return takeFoldFixture(t, st, kv), st
}

// decodeParts takes a placement record apart, by the grammar encode writes.
func decodeParts(t testing.TB, rec []byte, chunks []chunk.Stored) placementParts {
	t.Helper()
	var p placementParts
	next := func() uint64 {
		u, rest, err := codec.Uvarint(rec)
		if err != nil {
			t.Fatal(err)
		}
		rec = rest
		return u
	}
	p.first = next()
	p.parents = make([][]types.VersionID, next())
	for i := range p.parents {
		for n := next(); n > 0; n-- {
			p.parents[i] = append(p.parents[i], types.VersionID(next()))
		}
	}
	for n := next(); n > 0; n-- {
		cid := chunk.ID(next())
		enc, rest, err := codec.Bytes(rec)
		if err != nil {
			t.Fatal(err)
		}
		rec = rest
		m, err := chunk.DecodeMap(enc, len(chunks[cid].Records))
		if err != nil {
			t.Fatal(err)
		}
		p.maps = append(p.maps, mapPart{cid, m})
	}
	return p
}

// FuzzApplyPlacement: the fold of a placement record must answer arbitrary
// bytes with ErrCorrupt — never a panic, an index out of range or an
// allocation sized by the input's claims — and whatever it accepts must hang
// together: every version holds, by the deltas read off its diffs, exactly
// the records the slot bitmaps rebuilt from the same diffs name. Seeded with
// the golden corpus's records: the one record of a bulk load, and each record
// of a replay in online batches of four, folded after the ones before it; a
// record of two versions whose second names parent 2³², which a fold that
// truncated ids would take for version 0; and the last two records of
// shapedFixture, each folded after the ones before it: one that lists a new
// chunk with no version and states a delete alone, and one that states a
// merge's re-add. The fold derives the rest of each version's diffs from
// the chunks' composite keys. Then copiedFixture's: its second record, which
// states two moves, each folded after the first; the same with one move's
// slot out of chunk 0 and the other's slot into chunk 2 left out, a move
// whose two slots name two composite keys, which leaves version 1 holding one
// record in two chunks; and its first record folded over chunks whose chunk 0
// holds, in a slot of its own, a copy of the record version 1 creates in
// chunk 2 — a copy in a chunk opened before the original's, which the fold of
// that chunk finds no version has registered. Each seed's at is its index in
// cases.
func FuzzApplyPlacement(f *testing.F) {
	st, kv := openGolden(f, Config{})
	if err := st.BulkLoad(context.Background(), goldenCorpus(f)); err != nil {
		f.Fatal(err)
	}
	bulk := takeFoldFixture(f, st, kv)
	st, kv = openGolden(f, Config{BatchSize: 4})
	replayGolden(f, st)
	online := takeFoldFixture(f, st, kv)
	shaped := shapedFixture(f)

	// cases[at] folds fx.records[:before] and then the input.
	type foldCase struct {
		fx     foldFixture
		before int
	}
	cases := []foldCase{{bulk, 0}}
	f.Add(bulk.records[0], uint8(0))
	for i, rec := range online.records {
		f.Add(rec, uint8(len(cases)))
		cases = append(cases, foldCase{online, i})
	}
	var wide []byte // versions [0, 2): the root, then one of parent 2³²; no chunk maps
	for _, u := range []uint64{0, 2, 0, 1, 1 << 32, 0} {
		wide = codec.PutUvarint(wide, u)
	}
	f.Add(wide, uint8(0))

	// The shaped records, checked to state what they are seeds of.
	if len(shaped.records) != 3 {
		f.Fatalf("the shaped store wrote %d placement records, want 3", len(shaped.records))
	}
	deleteOnly, reAdd := decodeParts(f, shaped.records[1], shaped.chunks), decodeParts(f, shaped.records[2], shaped.chunks)
	stated := func(p placementParts) (versions int) {
		for _, mp := range p.maps {
			versions += len(mp.m.Versions)
		}
		return versions
	}
	newChunk := deleteOnly.maps[len(deleteOnly.maps)-1]
	if stated(deleteOnly) != 1 || len(newChunk.m.Versions) != 0 || int(newChunk.cid) != len(shaped.chunks)-2 {
		f.Fatalf("version 1's record lists chunks %v: want a new chunk with no version, beside the one slot of its delete", deleteOnly.maps)
	}
	if stated(reAdd) != 1 || reAdd.maps[0].m.Versions[2].Count() != 1 {
		f.Fatalf("version 2's record lists chunks %v: want the one slot of its re-add", reAdd.maps)
	}
	for before := 1; before <= 2; before++ {
		f.Add(shaped.records[before], uint8(len(cases)))
		cases = append(cases, foldCase{shaped, before})
	}

	copied, cst := copiedFixture(f)
	f.Add(copied.records[1], uint8(len(cases)))
	cases = append(cases, foldCase{copied, 1})
	moves := decodeParts(f, copied.records[1], copied.chunks)
	out, in := moves.maps[0].m.Versions[1], moves.maps[len(moves.maps)-1].m.Versions[1]
	var kept []uint32 // chunk 0's slots of the two copied records
	for slot, rec := range cst.layout.Records(0) {
		if len(cst.layout.Older(rec)) > 0 {
			kept = append(kept, uint32(slot))
		}
	}
	if moves.maps[0].cid != 0 || len(kept) != 2 || in.Count() != 2 || !out.Contains(kept[0]) || !out.Contains(kept[1]) {
		f.Fatalf("version 1's record lists chunks %v: want chunk 0 to state the two moves out, %v, and chunk 2 the two in", moves.maps, kept)
	}
	out.Clear(kept[1]) // the second copied record stays in chunk 0 …
	in.Clear(in.Slice()[0])
	if cst.corpus.Record(cst.layout.Records(0)[kept[0]]).CK.Key > cst.corpus.Record(cst.layout.Records(0)[kept[1]]).CK.Key {
		f.Fatal("chunk 0's copied records are out of key order")
	}
	// … and comes into chunk 2 as well, where slots follow key order: the
	// first copied record is out of both.
	f.Add(moves.encode(), uint8(len(cases)))
	cases = append(cases, foldCase{copied, 1})

	early := copied
	early.chunks = slices.Clone(copied.chunks)
	created := slices.IndexFunc(copied.chunks[2].Records, func(r types.Record) bool { return r.CK.Version == 1 })
	early.chunks[0].Records = append(slices.Clone(copied.chunks[0].Records), copied.chunks[2].Records[created])
	early.implied = chunk.NewImplied(early.chunks)
	root := decodeParts(f, copied.records[0], copied.chunks)
	root.maps[0].m.NumSlots++
	early.records = [][]byte{root.encode(), copied.records[1]}
	f.Add(early.records[0], uint8(len(cases)))
	cases = append(cases, foldCase{early, 0})
	for i, want := range []error{nil, types.ErrCorrupt, types.ErrCorrupt} { // the three seeds above fold or not, as they say
		c, data := cases[len(cases)-3+i], [][]byte{copied.records[1], moves.encode(), early.records[0]}[i]
		s := newStore(Config{}, false)
		for _, rec := range c.fx.records[:c.before] {
			if err := s.applyPlacement(rec, c.fx.chunks, c.fx.implied); err != nil {
				f.Fatal(err)
			}
		}
		if err := s.applyPlacement(data, c.fx.chunks, c.fx.implied); !errors.Is(err, want) || (want == nil) != (err == nil) {
			f.Fatalf("copied seed %d folds with %v, want %v", i, err, want)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, at uint8) {
		c := cases[int(at)%len(cases)]
		s := newStore(Config{}, false)
		for _, rec := range c.fx.records[:c.before] {
			if err := s.applyPlacement(rec, c.fx.chunks, c.fx.implied); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.applyPlacement(data, c.fx.chunks, c.fx.implied); err != nil {
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
					byBitmaps = append(byBitmaps, fmt.Sprint(c.fx.chunks[cid].Records[slot].CK))
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
