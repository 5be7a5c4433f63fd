package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rstore/internal/chunk"
	"rstore/internal/corpus"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// deltaCKs renders a version's tree-edge delta by composite key, sorted:
// record ids are local to a process, composite keys are not.
func deltaCKs(c *corpus.Corpus, v types.VersionID) (adds, dels []types.CompositeKey) {
	for _, id := range c.Adds(v) {
		adds = append(adds, c.Record(id).CK)
	}
	for _, id := range c.Dels(v) {
		dels = append(dels, c.Record(id).CK)
	}
	byCK := func(a, b types.CompositeKey) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Version, b.Version))
	}
	slices.SortFunc(adds, byCK)
	slices.SortFunc(dels, byCK)
	return adds, dels
}

// checkSamePlacement requires two stores to hold the same physical placement
// — every record's Loc, every chunk map bitmap, and every version's chunks — and
// the same tree-edge delta for every version: a reloaded store derives the
// deltas of placed versions from the bitmaps, the writer kept the ones it
// was given.
func checkSamePlacement(t *testing.T, phase string, live, re *Store) {
	t.Helper()
	if live.gen != re.gen || live.numPlacements != re.numPlacements || live.placed != re.placed ||
		live.NumChunks() != re.NumChunks() || live.corpus.NumRecords() != re.corpus.NumRecords() {
		t.Fatalf("%s: live gen %d / %d records / %d placed / %d chunks / %d corpus records, reloaded %d / %d / %d / %d / %d", phase,
			live.gen, live.numPlacements, live.placed, live.NumChunks(), live.corpus.NumRecords(),
			re.gen, re.numPlacements, re.placed, re.NumChunks(), re.corpus.NumRecords())
	}
	for id := uint32(0); int(id) < live.corpus.NumRecords(); id++ {
		ck := live.corpus.Record(id).CK
		rid, ok := re.corpus.IDForCK(ck)
		if !ok || live.layout.Loc(id) != re.layout.Loc(rid) {
			t.Fatalf("%s: record %v at %+v live, %+v reloaded", phase, ck, live.layout.Loc(id), re.layout.Loc(rid))
		}
	}
	for cid := chunk.ID(0); int(cid) < live.NumChunks(); cid++ {
		a, b := live.layout.Map(cid), re.layout.Map(cid)
		if a.NumSlots != b.NumSlots || len(a.Versions) != len(b.Versions) {
			t.Fatalf("%s: chunk %d map: %d slots × %d versions live, %d × %d reloaded", phase, cid,
				a.NumSlots, len(a.Versions), b.NumSlots, len(b.Versions))
		}
		for v, bm := range a.Versions {
			if other := b.Versions[v]; other == nil || !bm.Equal(other) {
				t.Fatalf("%s: chunk %d version %d: %v live, %v reloaded", phase, cid, v, bm, other)
			}
		}
	}
	if live.graph.NumVersions() != re.graph.NumVersions() {
		t.Fatalf("%s: %d versions live, %d reloaded", phase, live.graph.NumVersions(), re.graph.NumVersions())
	}
	for v := types.VersionID(0); int(v) < live.graph.NumVersions(); v++ {
		if a, b := live.layout.VersionChunks(v), re.layout.VersionChunks(v); !slices.Equal(a, b) {
			t.Fatalf("%s: version %d spans %v live, %v reloaded", phase, v, a, b)
		}
		if a, b := live.graph.Parents(v), re.graph.Parents(v); !slices.Equal(a, b) {
			t.Fatalf("%s: version %d has parents %v live, %v reloaded", phase, v, a, b)
		}
		liveAdds, liveDels := deltaCKs(live.corpus, v)
		reAdds, reDels := deltaCKs(re.corpus, v)
		if !slices.Equal(liveAdds, reAdds) || !slices.Equal(liveDels, reDels) {
			t.Fatalf("%s: version %d adds %v and deletes %v live, %v and %v reloaded", phase, v, liveAdds, liveDels, reAdds, reDels)
		}
	}
	if !slices.Equal(live.sortedKeys, re.sortedKeys) {
		t.Fatalf("%s: %d sorted keys live, %d reloaded", phase, len(live.sortedKeys), len(re.sortedKeys))
	}
	for _, k := range live.sortedKeys {
		if a, b := live.keySpan(k), re.keySpan(k); a != b {
			t.Fatalf("%s: key %s spans %d chunks live, %d reloaded", phase, k, a, b)
		}
	}
}

// sessionCommit is one commit of a generated session: its parents, its
// tree-edge delta against parents[0], and the contents it results in.
type sessionCommit struct {
	parents []types.VersionID
	delta   *types.Delta
	state   map[types.Key]types.Record
}

// session is a seeded history of branched delta commits; commits[v] makes
// version v.
type session struct {
	commits []sessionCommit
	// remerged counts records a merge re-added from its second parent,
	// refilled those of them that went under the version that deletes
	// everything.
	remerged, refilled int
}

// branchySession generates commits versions over nkeys keys: a root holding
// all of them, then commits off random earlier versions that each rewrite or
// delete about a fifth of their parent's keys, 40 % of them merges that take
// the second parent's record for some keys where the branches differ —
// re-adding records that exist elsewhere. Version 20 deletes everything and
// versions 21 and 22 build on it, so only such re-adds bring records back
// there.
func branchySession(rng *rand.Rand, commits, nkeys int, value func(k, step int) []byte) session {
	var se session
	states := func(v types.VersionID) map[types.Key]types.Record { return se.commits[v].state }
	root := map[types.Key]types.Record{}
	rootDelta := &types.Delta{}
	for i := 0; i < nkeys; i++ {
		r := types.Record{CK: types.CompositeKey{Key: key(i), Version: 0}, Value: value(i, 0)}
		root[r.CK.Key] = r
		rootDelta.Adds = append(rootDelta.Adds, r)
	}
	se.commits = append(se.commits, sessionCommit{[]types.VersionID{types.InvalidVersion}, rootDelta, root})

	const emptied = types.VersionID(20) // the version that deletes everything
	for step := 1; step < commits; step++ {
		v := types.VersionID(step)
		parent := types.VersionID(rng.Intn(step))
		if step == 21 || step == 22 {
			parent = emptied // build on it at least twice
		}
		parents := []types.VersionID{parent}
		state := map[types.Key]types.Record{}
		for k, r := range states(parent) {
			state[k] = r
		}
		delta := &types.Delta{}
		for i := 0; i < nkeys; i++ {
			k := key(i)
			if old, live := state[k]; live && (v == emptied || rng.Float64() < 0.2) {
				delta.Dels = append(delta.Dels, old.CK)
				if v == emptied || rng.Float64() < 0.15 {
					delete(state, k)
					continue
				}
				r := types.Record{CK: types.CompositeKey{Key: k, Version: v}, Value: value(i, step)}
				delta.Adds, state[k] = append(delta.Adds, r), r
			}
		}
		if other := types.VersionID(rng.Intn(step)); other != parent && v != emptied && (parent == emptied || rng.Float64() < 0.4) {
			// Merge: take other's record for every key where the branches
			// differ and this commit has not touched the key — re-adding
			// records that are already placed (or pending) elsewhere. Keys in
			// order: the delta must not depend on map iteration.
			parents = append(parents, other)
			for i := 0; i < nkeys; i++ {
				k := key(i)
				theirs, has := states(other)[k]
				ours, live := states(parent)[k]
				if !has || state[k].CK != ours.CK || (live && ours.CK == theirs.CK) || rng.Float64() < 0.5 {
					continue
				}
				if live {
					delta.Dels = append(delta.Dels, ours.CK)
				}
				delta.Adds, state[k] = append(delta.Adds, theirs), theirs
				se.remerged++
				if len(states(parent)) == 0 {
					se.refilled++
				}
			}
		}
		se.commits = append(se.commits, sessionCommit{parents, delta, state})
	}
	return se
}

// TestLiveEqualsReloadedPlacement: the layout a store grows in memory — by
// flushes on the live layout, by a repartition on a fresh one — is the layout
// Open folds back out of what they persisted, and the deltas Open reads off
// the persisted bitmaps are the ones the writer was given. A random session
// of branched delta commits (including merges that re-add records another
// branch already placed, and a version that deletes everything, under which
// only such re-adds bring records back), flushes at random points — some over
// batches larger than a chunk, which split into open and closed records — and
// a Materialize is reloaded after every placement step and compared field by
// field, answers included.
func TestLiveEqualsReloadedPlacement(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{KV: kv, ChunkCapacity: 512, SubChunkK: 2}
		st, err := Open(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// states[v] is version v's key → record.
		var states []map[types.Key]types.Record
		checkAnswers := func(phase string, s *Store) {
			t.Helper()
			for v, state := range states {
				recs, _, err := s.GetVersionAll(ctx, types.VersionID(v))
				if err != nil || len(recs) != len(state) {
					t.Fatalf("seed %d %s: version %d: %d records, want %d, %v", seed, phase, v, len(recs), len(state), err)
				}
				for _, r := range recs {
					if w := state[r.CK.Key]; w.CK != r.CK || string(w.Value) != string(r.Value) {
						t.Fatalf("seed %d %s: version %d key %s: %v, want %v", seed, phase, v, r.CK.Key, r.CK, w.CK)
					}
				}
			}
		}
		reload := func(phase string) {
			t.Helper()
			ro := cfg
			ro.ReadOnly = true // compare without repairing: the live store is still the writer
			re, err := Open(ctx, ro)
			if err != nil {
				t.Fatalf("seed %d %s: load: %v", seed, phase, err)
			}
			checkSamePlacement(t, fmt.Sprintf("seed %d %s", seed, phase), st, re)
			checkAnswers(phase+", reloaded", re)
		}
		commit := func(parents []types.VersionID, state map[types.Key]types.Record, delta *types.Delta) {
			t.Helper()
			v, err := st.CommitDelta(ctx, parents, delta)
			if err != nil || int(v) != len(states) {
				t.Fatalf("seed %d: commit %d: %d, %v", seed, len(states), v, err)
			}
			states = append(states, state)
		}
		se := branchySession(rng, 60, 24, func(k, step int) []byte { return payload(rng, k, step) })
		splitFlushes := 0
		for step, sc := range se.commits {
			commit(sc.parents, sc.state, sc.delta)
			if step == 0 {
				continue
			}
			switch {
			case step == 35:
				if err := st.Materialize(ctx); err != nil {
					t.Fatal(err)
				}
				reload("after materialize")
			case rng.Float64() < 0.25:
				before := st.NumChunks()
				if err := st.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				if st.NumChunks() >= before+2 {
					splitFlushes++ // more than one chunk: the flush split the batch at the frontier
				}
				reload(fmt.Sprintf("after the flush at step %d", step))
			case step%10 == 0:
				reload(fmt.Sprintf("with a pending tail at step %d", step))
			}
		}
		if se.remerged == 0 || se.refilled == 0 || splitFlushes == 0 || st.NumChunks() < 4 {
			t.Fatalf("seed %d: %d re-added records (%d under the emptied version), %d split flushes, %d chunks: the session exercises too little",
				seed, se.remerged, se.refilled, splitFlushes, st.NumChunks())
		}
		checkAnswers("at the end, live", st)
	}
}
