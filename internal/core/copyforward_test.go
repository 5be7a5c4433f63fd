package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rstore/internal/chunk"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// copyCapacity is the chunk capacity of the copy-forward tests: about 680 of
// copyChain's records of ≈ 36 packed bytes to a chunk, and a flush copies
// forward what a chunk still holds at its tips when that is at most 1/256 of
// the chunk's packed bytes: two records of a full chunk.
const copyCapacity = 24 << 10

// copyChain is a store under test with the contents of every version it
// committed: a root of keys records, then commits that rewrite some of them.
type copyChain struct {
	t      *testing.T
	st     *Store
	rng    *rand.Rand
	keys   int
	states []map[types.Key]types.Record // version → key → record
}

// newCopyChain commits the root of keys records to st.
func newCopyChain(t *testing.T, st *Store, seed int64, keys int) *copyChain {
	t.Helper()
	c := &copyChain{t: t, st: st, rng: rand.New(rand.NewSource(seed)), keys: keys}
	root := Change{Puts: map[types.Key][]byte{}}
	for k := 0; k < keys; k++ {
		root.Puts[key(k)] = c.value(key(k), 0)
	}
	c.commit([]types.VersionID{types.InvalidVersion}, root)
	return c
}

// value is a 21-byte document of key k at step v.
func (c *copyChain) value(k types.Key, v int) []byte {
	return []byte(fmt.Sprintf("%s.%06d.%07d", k, v, c.rng.Intn(10_000_000)))
}

// commit commits ch on parents[0] (a merge if there are more) and notes the
// contents it results in.
func (c *copyChain) commit(parents []types.VersionID, ch Change) types.VersionID {
	c.t.Helper()
	v, err := c.st.CommitMerge(context.Background(), parents, ch)
	if err != nil || int(v) != len(c.states) {
		c.t.Fatalf("commit %d: %d, %v", len(c.states), v, err)
	}
	state := map[types.Key]types.Record{}
	if parents[0] != types.InvalidVersion {
		for k, r := range c.states[parents[0]] {
			state[k] = r
		}
	}
	for _, k := range ch.Deletes {
		delete(state, k)
	}
	for k, val := range ch.Puts {
		state[k] = types.Record{CK: types.CompositeKey{Key: k, Version: v}, Value: val}
	}
	c.states = append(c.states, state)
	return v
}

// chain commits n versions, each on the one before, each rewriting rewrite
// keys the parent holds, and returns the last.
func (c *copyChain) chain(parent types.VersionID, n, rewrite int) types.VersionID {
	c.t.Helper()
	for i := 0; i < n; i++ {
		held := slices.Sorted(maps.Keys(c.states[parent]))
		ch := Change{Puts: map[types.Key][]byte{}}
		for len(ch.Puts) < min(rewrite, len(held)) {
			k := held[c.rng.Intn(len(held))]
			ch.Puts[k] = c.value(k, len(c.states))
		}
		parent = c.commit([]types.VersionID{parent}, ch)
	}
	return parent
}

// copiedRecords returns the records of st a flush copied forward, ascending
// by id.
func copiedRecords(st *Store) []uint32 {
	var out []uint32
	for rec := uint32(0); int(rec) < st.corpus.NumRecords(); rec++ {
		if len(st.layout.Older(rec)) > 0 {
			out = append(out, rec)
		}
	}
	return out
}

// copyPrice returns the packed bytes st's copies store beyond each record's
// first, and the packed bytes of every chunk.
func copyPrice(st *Store) (copies, stored int) {
	for cid := chunk.ID(0); int(cid) < st.NumChunks(); cid++ {
		stored += st.packedBytes(st.layout.Records(cid))
	}
	for _, rec := range copiedRecords(st) {
		copies += len(st.layout.Older(rec)) * chunk.RecordPackedSize(st.corpus.Record(rec))
	}
	return copies, stored
}

// check reads every version of c back from s whole, a range of a tenth of
// the keys of every fifth version, every version's record of each copied
// key, and the history of each copied key, against the contents c noted.
func (c *copyChain) check(phase string, s *Store) {
	c.t.Helper()
	t, ctx := c.t, context.Background()
	sorted := func(state map[types.Key]types.Record, keep func(types.Key) bool) []types.Record {
		var out []types.Record
		for k, r := range state {
			if keep(k) {
				out = append(out, r)
			}
		}
		types.SortRecords(out)
		return out
	}
	all := func(types.Key) bool { return true }
	var copiedKeys []types.Key
	for _, rec := range copiedRecords(c.st) {
		copiedKeys = append(copiedKeys, c.st.corpus.Record(rec).CK.Key)
	}
	lo, hi := key(c.keys/3), key(c.keys/3+c.keys/10)
	for v, state := range c.states {
		got, _, err := s.GetVersionAll(ctx, types.VersionID(v))
		if err != nil {
			t.Fatalf("%s: version %d: %v", phase, v, err)
		}
		sameRecords(t, fmt.Sprintf("%s: version %d", phase, v), got, sorted(state, all))
		if v%5 == 0 {
			got, _, err := s.GetRangeAll(ctx, KeyRange(lo, hi), types.VersionID(v))
			if err != nil {
				t.Fatalf("%s: range of version %d: %v", phase, v, err)
			}
			sameRecords(t, fmt.Sprintf("%s: range of version %d", phase, v), got, sorted(state, func(k types.Key) bool { return k >= lo && k < hi }))
		}
		for _, k := range copiedKeys {
			r, _, err := s.GetRecord(ctx, k, types.VersionID(v))
			want, ok := state[k]
			if ok != (err == nil) || (ok && (r.CK != want.CK || string(r.Value) != string(want.Value))) {
				t.Fatalf("%s: version %d key %s: %v, %v; want %v (held %v)", phase, v, k, r.CK, err, want.CK, ok)
			}
		}
	}
	for _, k := range copiedKeys {
		byCK := map[types.CompositeKey]types.Record{}
		for _, state := range c.states {
			if r, ok := state[k]; ok {
				byCK[r.CK] = r
			}
		}
		var want []types.Record
		for _, r := range byCK {
			want = append(want, r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].CK.Version < want[j].CK.Version })
		got, _, err := s.GetHistoryAll(ctx, k)
		if err != nil {
			t.Fatalf("%s: history of %s: %v", phase, k, err)
		}
		sameRecords(t, fmt.Sprintf("%s: history of %s", phase, k), got, want)
	}
}

// reload opens cfg's cluster read-only beside the writer st and checks that
// it folds the placement st holds, copies included, and reads what c noted.
func (c *copyChain) reload(phase string, cfg Config) *Store {
	c.t.Helper()
	cfg.ReadOnly = true
	re, err := Open(context.Background(), cfg)
	if err != nil {
		c.t.Fatalf("%s: load: %v", phase, err)
	}
	checkSamePlacement(c.t, phase, c.st, re)
	c.check(phase+", reloaded", re)
	return re
}

// TestCopyForwardKeepsEveryVersion: a chain long enough for old chunks to
// die down to a record or two at its tip has flushes copy those forward. The
// tip then reads fewer chunks than it would from the chunks the records were
// first placed in, every version — the old ones, which still read the old
// copies, included — reads back whole, by range, by point and by history,
// and the layout Open folds back is the live one, copies and moves included.
func TestCopyForwardKeepsEveryVersion(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{KV: kv, ChunkCapacity: copyCapacity, BatchSize: 8}
	st, err := Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := newCopyChain(t, st, 1, 1000)
	tip := c.chain(0, 119, 60) // 120 versions: 15 batches
	if st.PendingVersions() != 0 {
		t.Fatalf("%d versions pending", st.PendingVersions())
	}
	info := st.Info()
	if info.Copies == 0 {
		t.Fatal("no flush copied a record forward: the chain exercises nothing")
	}
	// Where the tip would read from without copies: the first copy of each
	// record it holds.
	first := map[chunk.ID]bool{}
	for _, r := range c.states[tip] {
		rec, _ := st.corpus.IDForCK(r.CK)
		loc := st.layout.Loc(rec)
		if older := st.layout.Older(rec); len(older) > 0 {
			loc = older[0]
		}
		first[loc.Chunk] = true
	}
	if span := st.VersionSpan(tip); span >= len(first) {
		t.Fatalf("the tip reads %d chunks, and %d without its copies", span, len(first))
	}
	copyBytes, stored := copyPrice(st)
	if copyBytes*copyForwardShare > stored {
		t.Fatalf("%d records copied, %d of %d packed bytes stored: over 1/%d", info.Copies, copyBytes, stored, copyForwardShare)
	}
	t.Logf("%d records, %d copies, %d chunks, tip span %d (%d without copies)", info.Records, info.Copies, info.Chunks, st.VersionSpan(tip), len(first))
	c.check("live", st)
	c.reload("after the chain", cfg)
}

// TestSmallFlushesCopyLittle: a store flushed after every commit of one
// record — as every CLI command's Close flushes — makes a chunk of a record
// or two per flush, all still alive at the tip. Copying them forward would
// re-copy every small chunk's survivors on each flush; the copies instead
// stay within 1/copyForwardShare of the stored bytes at the default capacity.
func TestSmallFlushesCopyLittle(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	c := newCopyChain(t, st, 4, 20)
	tip := types.VersionID(0)
	for i := 0; i < 300; i++ {
		k := key(c.keys + i/2) // a new key, then a rewrite of it
		tip = c.commit([]types.VersionID{tip}, Change{Puts: map[types.Key][]byte{k: c.value(k, len(c.states))}})
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	slots := 0
	for cid := chunk.ID(0); int(cid) < st.NumChunks(); cid++ {
		slots += st.layout.Map(cid).NumSlots
	}
	records := st.Info().Records
	copyBytes, stored := copyPrice(st)
	if (slots-records)*copyForwardShare > records || copyBytes*copyForwardShare > stored {
		t.Fatalf("%d records in %d slots over %d chunks; copies %d of %d packed bytes", records, slots, st.NumChunks(), copyBytes, stored)
	}
	c.check("live", st)
}

// TestCopiedRecordsChangeOffTheTip: once records are copied forward, a
// commit on a version placed before the copy updates one copied record and
// deletes another — the commit resolves each at the old copy its parent
// holds — and a merge re-adds a copied record that the version it commits
// on deleted from the newest copy. Every version reads back, live and
// reloaded, and the reloaded layout is the live one.
func TestCopiedRecordsChangeOffTheTip(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{KV: kv, ChunkCapacity: copyCapacity, BatchSize: 8}
	st, err := Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := newCopyChain(t, st, 2, 1000)
	tip := c.chain(0, 119, 60)
	copied := copiedRecords(st)
	if len(copied) < 3 {
		t.Fatalf("%d records copied forward, want 3 at least", len(copied))
	}
	// An old version holding two copied records at their first copies.
	var old types.VersionID
	var held []uint32
	for v := types.VersionID(1); v < tip && len(held) < 2; v++ {
		held = held[:0]
		for _, rec := range copied {
			if at, ok := st.layout.Held(rec, v); ok && at == st.layout.Older(rec)[0] {
				held = append(held, rec)
			}
		}
		old = v
	}
	if len(held) < 2 {
		t.Fatal("no version holds two copied records at their first copies")
	}
	update, del := st.corpus.Record(held[0]).CK.Key, st.corpus.Record(held[1]).CK.Key
	branch := c.commit([]types.VersionID{old}, Change{Puts: map[types.Key][]byte{update: c.value(update, len(c.states))}, Deletes: []types.Key{del}})

	// A version that reads a copied record from its newest copy deletes it;
	// a merge with the branch brings it back.
	var goneRec uint32
	holder := types.InvalidVersion
	for v := tip; v > old && holder == types.InvalidVersion; v-- {
		for _, rec := range copied {
			if at, ok := st.layout.Held(rec, v); ok && at == st.layout.Loc(rec) && !slices.Contains(held, rec) {
				goneRec, holder = rec, v
				break
			}
		}
	}
	if holder == types.InvalidVersion {
		t.Fatal("no version reads a copied record from its newest copy")
	}
	gone := st.corpus.Record(goneRec)
	deleted := c.commit([]types.VersionID{holder}, Change{Deletes: []types.Key{gone.CK.Key}})
	v, err := st.CommitDelta(ctx, []types.VersionID{deleted, branch}, &types.Delta{Adds: []types.Record{gone}})
	if err != nil || int(v) != len(c.states) {
		t.Fatalf("merge: %d, %v", v, err)
	}
	state := map[types.Key]types.Record{gone.CK.Key: gone}
	for k, r := range c.states[deleted] {
		state[k] = r
	}
	c.states = append(c.states, state)
	c.chain(v, 5, 60)
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.layout.Held(goneRec, v); !ok {
		t.Fatalf("the merge does not hold %v", gone.CK)
	}
	for _, rec := range held {
		if _, ok := st.layout.Held(rec, branch); ok {
			t.Fatalf("the commit on version %d still holds %v", old, st.corpus.Record(rec).CK)
		}
	}
	c.check("live", st)
	c.reload("after the branch and the merge", cfg)
}

// TestCopyForwardCrashAndRepartition: a flush that copies records forward
// and fails once its chunks are written leaves them as debris past the
// root's chunk count, which Open deletes; the versions re-flush, copies and
// all. A Materialize then lays every record out once, and so does the store
// Open folds back from it.
func TestCopyForwardCrashAndRepartition(t *testing.T) {
	ctx := context.Background()
	st, kv, backends := openFaultyCapacity(t, 1, copyCapacity)
	cfg := Config{KV: kv, ChunkCapacity: copyCapacity}
	c := newCopyChain(t, st, 3, 1000)
	tip := types.VersionID(0)
	for i := 0; ; i++ {
		if i == 30 {
			t.Fatal("no batch of 8 copies a record forward")
		}
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		tip = c.chain(tip, 8, 60)
		if len(st.copyForward(st.pending())) > 0 {
			break
		}
	}
	chunks, copies := st.NumChunks(), st.Info().Copies
	backends[0].arm(func(table string) bool { return table == TablePlacement })
	if err := st.Flush(ctx); !errors.Is(err, errInjected) {
		t.Fatalf("flush under fault: %v", err)
	}
	backends[0].arm(nil)
	if stored := storedSegments(t, kv, st.gen); len(stored) <= chunks {
		t.Fatalf("precondition: segments of %d chunks stored, the root counts %d", len(stored), chunks)
	}

	re, err := Open(ctx, cfg)
	if err != nil {
		t.Fatalf("load after the interrupted flush: %v", err)
	}
	if stored := storedSegments(t, kv, re.gen); len(stored) != chunks || re.NumChunks() != chunks || re.Info().Copies != copies {
		t.Fatalf("after the load: segments of %d chunks, %d chunks, %d copies; want %d, %d, %d", len(stored), re.NumChunks(), re.Info().Copies, chunks, chunks, copies)
	}
	c.st = re
	c.check("reloaded after the crash", re)
	if err := re.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if re.Info().Copies <= copies {
		t.Fatalf("the re-flush copied nothing: %d copies, %d before", re.Info().Copies, copies)
	}
	c.check("re-flushed", re)
	c.reload("re-flushed", cfg)

	if err := re.Materialize(ctx); err != nil {
		t.Fatal(err)
	}
	if n := re.Info().Copies; n != 0 {
		t.Fatalf("%d copies after Materialize", n)
	}
	c.check("materialized", re)
	if back := c.reload("materialized", cfg); back.Info().Copies != 0 {
		t.Fatalf("%d copies reloaded after Materialize", back.Info().Copies)
	}
}
