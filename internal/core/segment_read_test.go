package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rstore/internal/chunk"
	"rstore/internal/corpus"
	"rstore/internal/docgen"
	"rstore/internal/kvstore"
	"rstore/internal/types"
	"rstore/internal/vgraph"
)

// sessionCorpus registers a session's commits as a corpus, for BulkLoad.
func sessionCorpus(t *testing.T, se session) *corpus.Corpus {
	t.Helper()
	g := vgraph.New()
	c := corpus.New(g)
	for v, sc := range se.commits {
		var err error
		if v == 0 {
			_, err = g.AddRoot()
		} else {
			_, err = g.AddVersion(sc.parents...)
		}
		if err == nil {
			err = c.AddVersionDelta(types.VersionID(v), sc.delta)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// checkReadsMatchSession asks s all four kinds of query about every version
// and key of the session (point reads: a rotating quarter of the keys per
// version) and compares the answers with the session's own record of them.
// Point reads must also cost what an exact read costs: one
// chunk consulted, none wasted, and no more bytes than the one segment the
// record's slot falls in (a segment overshoots its target by less than one
// item, so twice the target bounds it with room).
func checkReadsMatchSession(t *testing.T, phase string, s *Store, se session, nkeys int) {
	t.Helper()
	ctx := context.Background()
	same := func(what string, got []types.Record, want []types.Record) {
		t.Helper()
		types.SortRecords(want)
		if len(got) != len(want) {
			t.Fatalf("%s: %s: %d records, want %d", phase, what, len(got), len(want))
		}
		for i := range want {
			if got[i].CK != want[i].CK || string(got[i].Value) != string(want[i].Value) {
				t.Fatalf("%s: %s: record %d is %v, want %v", phase, what, i, got[i].CK, want[i].CK)
			}
		}
	}
	history := map[types.Key]map[types.CompositeKey]types.Record{}
	pointReads := 0
	for v, sc := range se.commits {
		var all, ranged []types.Record
		lo, hi := key(v%nkeys), key(v%nkeys+nkeys/10)
		for i := 0; i < nkeys; i++ {
			k := key(i)
			want, live := sc.state[k]
			if (i+v)%4 == 0 {
				got, stats, err := s.GetRecord(ctx, k, types.VersionID(v))
				var notFound *types.KeyNotFoundError
				switch {
				case !live && errors.As(err, &notFound):
				case live && err == nil && got.CK == want.CK && string(got.Value) == string(want.Value):
					if v < s.placed {
						pointReads++
						if stats.Span != 1 || stats.WastedChunks != 0 || stats.Requests != 1 || stats.BytesRead > 2*chunk.SegmentTarget {
							t.Fatalf("%s: point read of %s at version %d cost %+v", phase, k, v, stats)
						}
					}
				default:
					t.Fatalf("%s: GetRecord(%s, %d) = %v, %v; the version holds %v (%v)", phase, k, v, got.CK, err, want.CK, live)
				}
			}
			if live {
				all = append(all, want)
				if k >= lo && k < hi {
					ranged = append(ranged, want)
				}
				if history[k] == nil {
					history[k] = map[types.CompositeKey]types.Record{}
				}
				history[k][want.CK] = want
			}
		}
		got, stats, err := s.GetVersionAll(ctx, types.VersionID(v))
		if err != nil || stats.WastedChunks != 0 {
			t.Fatalf("%s: GetVersion(%d): %v, %+v", phase, v, err, stats)
		}
		same(fmt.Sprintf("version %d", v), got, all)
		if got, _, err = s.GetRangeAll(ctx, KeyRange(lo, hi), types.VersionID(v)); err != nil {
			t.Fatalf("%s: GetRange(%d): %v", phase, v, err)
		}
		same(fmt.Sprintf("range [%s, %s) of version %d", lo, hi, v), got, ranged)
		if got, _, err = s.GetRangeAll(ctx, KeyRangeFrom(lo), types.VersionID(v)); err != nil {
			t.Fatalf("%s: GetRange(%d): %v", phase, v, err)
		}
		same(fmt.Sprintf("range from %s of version %d", lo, v), got, slices.DeleteFunc(slices.Clone(all), func(r types.Record) bool { return r.CK.Key < lo }))
	}
	for i := 0; i < nkeys; i++ {
		var want []types.Record
		for _, r := range history[key(i)] {
			want = append(want, r)
		}
		got, stats, err := s.GetHistoryAll(ctx, key(i))
		if err != nil || stats.WastedChunks != 0 {
			t.Fatalf("%s: GetHistory(%s): %v, %+v", phase, key(i), err, stats)
		}
		types.SortRecords(got)
		same("history of "+string(key(i)), got, want)
	}
	if pointReads == 0 {
		t.Fatalf("%s: no point read reached a chunk", phase)
	}
}

// checkStoredSegments reads the stored segments of every chunk back and
// checks them against the layout: they tile the chunk's slots where the
// layout says they do, slots follow key order, and every slot decodes — from
// its own segment alone, so no delta's parent sits across a cut — to the
// record the layout has there, its newest copy or an older one. It returns how many chunks span several segments.
func checkStoredSegments(t *testing.T, phase string, s *Store, kv *kvstore.Store) (multi int) {
	t.Helper()
	for cid, st := range storedChunks(t, s, kv) {
		if !slices.Equal(st.Segments, s.layout.Segments(chunk.ID(cid))) || len(st.Records) != s.layout.Map(chunk.ID(cid)).NumSlots {
			t.Fatalf("%s: chunk %d stored as segments %v of %d records; the layout has %v of %d slots",
				phase, cid, st.Segments, len(st.Records), s.layout.Segments(chunk.ID(cid)), s.layout.Map(chunk.ID(cid)).NumSlots)
		}
		if len(st.Segments) > 1 {
			multi++
		}
		for slot, r := range st.Records {
			id, ok := s.corpus.IDForCK(r.CK)
			if !ok || s.layout.Records(chunk.ID(cid))[slot] != id || string(r.Value) != string(s.corpus.Record(id).Value) {
				t.Fatalf("%s: chunk %d slot %d holds %v", phase, cid, slot, r.CK)
			}
			if slot > 0 && r.CK.Key < st.Records[slot-1].CK.Key {
				t.Fatalf("%s: chunk %d slot %d: key %s after %s", phase, cid, slot, r.CK.Key, st.Records[slot-1].CK.Key)
			}
		}
	}
	return multi
}

// TestSegmentedReadsMatchOracle is the property test of the segmented read
// path: over seeded branchy sessions (merges that re-add records, a version
// that deletes everything, histories of up to a dozen records per key), bulk
// loaded with sub-chunks of 1 and 4 and committed online in batches large
// enough to split at the frontier, every GetVersion, GetRange, GetRecord and
// GetHistory equals the session's own account — before and after Open, and
// with a pending tail — while chunks span several segments, so answers come
// from the right segment and the right slot of it or not at all. A third
// session mixes, inside every segment, what the run lists against a segment's
// first value must each come through byte for byte: documents of one length
// and of differing lengths under neighbouring keys, in-place mutations of a
// key's previous document, random blobs, and empty values — any of which may
// be the anchor the others are coded against. A fourth mixes what a segment's
// literal code must carry: documents, whose literals are 64 symbols; prose,
// which is literals throughout, of more symbols than a six-bit table holds;
// blobs and empty values; and documents with one byte no table has, which
// takes the escape — in segments that pack all of it at six bits.
func TestSegmentedReadsMatchOracle(t *testing.T) {
	ctx := context.Background()
	const nkeys, commits, capacity = 160, 50, 3 * chunk.SegmentTarget
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		// Values of ≈ 400–700 bytes that share most of their text with the
		// key's other revisions, so sub-chunks of 4 hold real deltas.
		value := func(k, step int) []byte {
			return []byte(strings.Repeat(fmt.Sprintf("key %d lorem ipsum dolor sit amet ", k), 12+k%8) + fmt.Sprintf("rev %d %d", step, rng.Int63()))
		}
		if seed == 3 {
			docs, latest := docgen.New(seed), map[int][]byte{}
			value = func(k, step int) []byte {
				switch kind := rng.Intn(8); {
				case kind == 0:
					return []byte{}
				case kind == 1:
					blob := make([]byte, 100+rng.Intn(900))
					rng.Read(blob)
					return blob
				case kind == 2 && latest[k] != nil:
					latest[k] = docs.Mutate(latest[k], 0.05)
				case kind <= 4:
					latest[k] = docs.Document(key(k), 512)
				default:
					latest[k] = docs.Document(key(k), 200+rng.Intn(800))
				}
				return latest[k]
			}
		}
		if seed == 4 {
			docs, latest := docgen.New(seed), map[int][]byte{}
			words := strings.Fields("It is a truth universally acknowledged, that a single man in possession of a good fortune, must be in want of a wife; however little known the feelings (or views) of such a man may be on his first entering a neighbourhood - in 1813 - this truth is so well fixed: \"My dear Mr. Bennet,\" said his lady to him one day, \"have you heard that Netherfield Park is let at last?\" Queequeg & Xerxes jumped over the lazy dog's back #42 *twice*!")
			value = func(k, step int) []byte {
				switch kind := rng.Intn(10); {
				case kind == 0:
					return []byte{}
				case kind == 1:
					blob := make([]byte, 100+rng.Intn(400))
					rng.Read(blob)
					return blob
				case kind <= 3:
					var text []byte
					for size := 200 + rng.Intn(400); len(text) < size; {
						text = append(append(text, words[rng.Intn(len(words))]...), ' ')
					}
					return text
				case kind == 4 && latest[k] != nil:
					odd := slices.Clone(latest[k])
					odd[rng.Intn(len(odd))] = byte(0x80 + rng.Intn(0x80))
					return odd
				default:
					latest[k] = docs.Document(key(k), 512)
					return latest[k]
				}
			}
		}
		se := branchySession(rng, commits, nkeys, value)
		if se.remerged == 0 || se.refilled == 0 {
			t.Fatalf("seed %d: %d re-added records, %d under the emptied version", seed, se.remerged, se.refilled)
		}
		for _, mode := range []struct {
			name  string
			k     int
			batch int // 0: bulk load
		}{{"bulk-k1", 1, 0}, {"bulk-k4", 4, 0}, {"online", 1, 16}} {
			phase := fmt.Sprintf("seed %d %s", seed, mode.name)
			kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{KV: kv, ChunkCapacity: capacity, SubChunkK: mode.k, BatchSize: mode.batch}
			st, err := Open(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if mode.batch == 0 {
				if err := st.BulkLoad(ctx, sessionCorpus(t, se)); err != nil {
					t.Fatal(err)
				}
			} else {
				splits := 0
				for v, sc := range se.commits {
					before := st.NumChunks()
					if got, err := st.CommitDelta(ctx, sc.parents, sc.delta); err != nil || int(got) != v {
						t.Fatalf("%s: commit %d: %d, %v", phase, v, got, err)
					}
					if st.NumChunks() >= before+2 {
						splits++
					}
				}
				if splits == 0 || st.PendingVersions() == 0 {
					t.Fatalf("%s: %d batches split at the frontier, %d versions pending: the session exercises too little", phase, splits, st.PendingVersions())
				}
			}
			if multi := checkStoredSegments(t, phase, st, kv); multi < 2 {
				t.Fatalf("%s: %d of %d chunks span several segments", phase, multi, st.NumChunks())
			}
			if seed == 4 {
				widths := map[byte]int{} // segments by the width of their literals
				if err := kv.Scan(ctx, TableChunks, func(_ string, seg []byte) bool {
					widths[seg[0]]++
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if widths[6] == 0 {
					t.Fatalf("%s: segments by literal width %v: none packs documents and prose at six bits", phase, widths)
				}
			}
			checkReadsMatchSession(t, phase, st, se, nkeys)

			re, err := Open(ctx, cfg)
			if err != nil {
				t.Fatalf("%s: load: %v", phase, err)
			}
			checkReadsMatchSession(t, phase+", reloaded", re, se, nkeys)
			if err := re.Flush(ctx); err != nil { // the online mode's pending tail
				t.Fatal(err)
			}
			checkStoredSegments(t, phase+", reloaded and flushed", re, kv)
			checkReadsMatchSession(t, phase+", reloaded and flushed", re, se, nkeys)
		}
	}
}
