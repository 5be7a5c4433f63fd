package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rstore/internal/chunk"
	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// faultBackend wraps a memory backend and fails writes on demand — the
// crash-injection seam for flush and repartition tests. A BatchPut that
// fails leaves nothing behind (the batch contract), so partial table state
// is produced by failing SOME nodes' batches, and "crash between stages" by
// failing a later stage's table. A kvstore Delete or BatchDelete reaches the
// backend as the Put or BatchPut of tombstones, so failing a table's writes
// also fails its deletes.
type faultBackend struct {
	*memory.Backend
	mu       sync.Mutex
	fail     func(table string) bool // nil = healthy
	inFlight atomic.Int32            // BatchPuts entered and not yet returned
	writes   atomic.Int64            // Put and BatchPut calls, failed ones included
	refused  []string                // keys of the BatchPuts it failed, under mu
}

var errInjected = errors.New("injected crash")

func (b *faultBackend) arm(fail func(table string) bool) {
	b.mu.Lock()
	b.fail = fail
	b.mu.Unlock()
}

func (b *faultBackend) failing(table string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fail != nil && b.fail(table)
}

func (b *faultBackend) Put(ctx context.Context, table, key string, value []byte) error {
	b.writes.Add(1)
	if b.failing(table) {
		return errInjected
	}
	return b.Backend.Put(ctx, table, key, value)
}

func (b *faultBackend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	b.writes.Add(1)
	b.inFlight.Add(1)
	defer b.inFlight.Add(-1)
	if b.failing(table) {
		b.mu.Lock()
		for _, e := range entries {
			b.refused = append(b.refused, e.Key)
		}
		b.mu.Unlock()
		return errInjected
	}
	return b.Backend.BatchPut(ctx, table, entries)
}

// openFaulty builds a store of 256-byte chunks over fault-injectable backends.
func openFaulty(t *testing.T, nodes int) (*Store, *kvstore.Store, []*faultBackend) {
	t.Helper()
	return openFaultyCapacity(t, nodes, 256)
}

// openFaultyCapacity is openFaulty with a chunk capacity of the caller's:
// one above chunk.SegmentTarget gives chunks of several segments, which the
// ring spreads over the nodes.
func openFaultyCapacity(t *testing.T, nodes, capacity int) (*Store, *kvstore.Store, []*faultBackend) {
	t.Helper()
	backends := make([]*faultBackend, nodes)
	kv, err := kvstore.Open(context.Background(), kvstore.Config{
		Nodes: nodes,
		NewBackend: func(id int) (engine.Backend, error) {
			backends[id] = &faultBackend{Backend: memory.New()}
			return backends[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(context.Background(), Config{KV: kv, ChunkCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return st, kv, backends
}

// storedSegments counts, per chunk of generation gen, the segment entries
// the chunks table holds.
func storedSegments(t *testing.T, kv *kvstore.Store, gen uint32) map[chunk.ID]int {
	t.Helper()
	stored := map[chunk.ID]int{}
	if err := kv.Scan(context.Background(), TableChunks, func(key string, _ []byte) bool {
		if g, cid, _, ok := chunk.ParseSegmentKey(key); ok && g == gen {
			stored[cid]++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return stored
}

// partialChunks lists the chunks of which stored holds some segments and not
// all of those lay cut them into.
func partialChunks(stored map[chunk.ID]int, lay *chunk.Layout) []chunk.ID {
	var partial []chunk.ID
	for cid, n := range stored {
		if n < len(lay.Segments(cid)) {
			partial = append(partial, cid)
		}
	}
	return partial
}

// seedStore commits versions with a flush after EVERY commit, so the
// online placement produces many small per-batch chunks — a layout a full
// repartition will consolidate into genuinely different chunks. The crash
// tests depend on that divergence: debris of an uncommitted repartition
// must not be mistakable for the live layout. Returns the expected
// per-version contents.
func seedStore(t *testing.T, st *Store) (map[types.VersionID]map[string]string, []types.VersionID) {
	t.Helper()
	ctx := context.Background()
	want := map[types.VersionID]map[string]string{}
	var versions []types.VersionID
	parent := types.InvalidVersion
	state := map[string]string{}
	for rev := 0; rev < 8; rev++ {
		puts := map[types.Key][]byte{}
		for d := 0; d < 5; d++ {
			if (rev+d)%2 == 0 {
				v := fmt.Sprintf("doc-%d rev-%d content", d, rev)
				puts[types.Key(fmt.Sprintf("doc-%d", d))] = []byte(v)
				state[fmt.Sprintf("doc-%d", d)] = v
			}
		}
		v, err := st.Commit(ctx, parent, Change{Puts: puts})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		cp := map[string]string{}
		for k, s := range state {
			cp[k] = s
		}
		want[v] = cp
		versions = append(versions, v)
		parent = v
	}
	return want, versions
}

func checkVersions(t *testing.T, st *Store, want map[types.VersionID]map[string]string) {
	t.Helper()
	for v, contents := range want {
		recs, _, err := st.GetVersionAll(context.Background(), v)
		if err != nil {
			t.Fatalf("GetVersion(%d): %v", v, err)
		}
		got := map[string]string{}
		for _, r := range recs {
			got[string(r.CK.Key)] = string(r.Value)
		}
		if len(got) != len(contents) {
			t.Fatalf("version %d: %d records, want %d", v, len(got), len(contents))
		}
		for k, val := range contents {
			if got[k] != val {
				t.Fatalf("version %d key %s = %q, want %q", v, k, got[k], val)
			}
		}
	}
}

// scanChunkGens returns the set of generations present in the chunks table.
func scanChunkGens(t *testing.T, kv *kvstore.Store) map[uint32]int {
	t.Helper()
	gens := map[uint32]int{}
	if err := kv.Scan(context.Background(), TableChunks, func(key string, _ []byte) bool {
		g, _, _, ok := chunk.ParseSegmentKey(key)
		if !ok {
			t.Fatalf("unparseable chunk key %q", key)
		}
		gens[g]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return gens
}

// TestMaterializeCrashBeforeManifest is the regression test for the
// in-place repartition hazard: a crash after the new chunk entries are
// written but before the manifest commits must leave the old manifest
// paired with the old, INTACT chunk generation. Open then serves the
// pre-repartition state exactly and clears the uncommitted generation's
// debris.
func TestMaterializeCrashBeforeManifest(t *testing.T) {
	st, kv, backends := openFaulty(t, 1)
	want, _ := seedStore(t, st)
	ctx := context.Background()

	// Crash at the commit point: chunks (gen 1) and projections land, the
	// manifest write dies.
	backends[0].arm(func(table string) bool { return table == TableMeta })
	if err := st.Materialize(ctx); !errors.Is(err, errInjected) {
		t.Fatalf("materialize under meta fault: %v", err)
	}
	backends[0].arm(nil)
	if gens := scanChunkGens(t, kv); gens[1] == 0 {
		t.Fatalf("precondition: uncommitted generation debris expected, got %v", gens)
	}

	re, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatalf("load after interrupted materialize: %v", err)
	}
	checkVersions(t, re, want)
	// Debris of the uncommitted generation is gone; gen 0 survives.
	gens := scanChunkGens(t, kv)
	if gens[1] != 0 {
		t.Fatalf("uncommitted generation survived load: %v", gens)
	}
	if gens[0] == 0 {
		t.Fatalf("live generation collected: %v", gens)
	}

	// The reopened store repartitions cleanly; afterwards only the new
	// generation remains.
	if err := re.Materialize(ctx); err != nil {
		t.Fatal(err)
	}
	checkVersions(t, re, want)
	gens = scanChunkGens(t, kv)
	if len(gens) != 1 || gens[1] == 0 {
		t.Fatalf("after clean materialize: generations %v, want only gen 1", gens)
	}
	re2, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	checkVersions(t, re2, want)
}

// TestMaterializeCrashMidChunkWrite crashes while the new generation's
// chunk entries themselves are being written (some nodes' batches land,
// others fail). Under in-place keys this was the unrecoverable window —
// the old manifest's chunk contents were partially overwritten; under
// epoch keys the old generation is untouched.
func TestMaterializeCrashMidChunkWrite(t *testing.T) {
	st, kv, backends := openFaulty(t, 3)
	want, _ := seedStore(t, st)
	ctx := context.Background()

	// Nodes 1 and 2 die for chunk-table batches: the repartition writes a
	// partial new generation and aborts.
	for _, b := range backends[1:] {
		b.arm(func(table string) bool { return table == TableChunks })
	}
	if err := st.Materialize(ctx); !errors.Is(err, errInjected) {
		t.Fatalf("materialize under chunk fault: %v", err)
	}
	for _, b := range backends[1:] {
		b.arm(nil)
	}

	re, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatalf("load after mid-write crash: %v", err)
	}
	checkVersions(t, re, want)
	if gens := scanChunkGens(t, kv); gens[1] != 0 {
		t.Fatalf("partial generation survived load: %v", gens)
	}
	// And a rerun completes.
	if err := re.Materialize(ctx); err != nil {
		t.Fatal(err)
	}
	checkVersions(t, re, want)
}

// TestMaterializeCrashBetweenSegments: the segments of one chunk are KVS
// entries of their own and the ring may put them on different nodes, so a
// repartition can die with some segments of a chunk written and others not.
// The half-written chunks belong to a generation no root names: Open serves
// the previous generation and deletes them segment by segment, and a repeated
// Materialize writes them whole.
func TestMaterializeCrashBetweenSegments(t *testing.T) {
	ctx := context.Background()
	const capacity = 4 * chunk.SegmentTarget
	st, kv, backends := openFaultyCapacity(t, 2, capacity)
	// Four versions of twelve 16 KiB documents, flushed one by one: ≈ 768 KiB,
	// a dozen segments in three or four chunks once repartitioned.
	want := map[types.VersionID]map[string]string{}
	parent := types.InvalidVersion
	for rev := 0; rev < 4; rev++ {
		puts, contents := map[types.Key][]byte{}, map[string]string{}
		for d := 0; d < 12; d++ {
			k := fmt.Sprintf("doc-%02d", d)
			contents[k] = strings.Repeat(fmt.Sprintf("%d.%d ", d, rev), 16<<10/5)
			puts[types.Key(k)] = []byte(contents[k])
		}
		v, err := st.Commit(ctx, parent, Change{Puts: puts})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		want[v], parent = contents, v
	}

	backends[1].arm(func(table string) bool { return table == TableChunks })
	if err := st.Materialize(ctx); !errors.Is(err, errInjected) {
		t.Fatalf("materialize with one node refusing chunk writes: %v", err)
	}
	backends[1].arm(nil)
	landed := storedSegments(t, kv, 1) // judged below, against the cuts of the run that succeeds

	re, err := Open(ctx, Config{KV: kv, ChunkCapacity: capacity})
	if err != nil {
		t.Fatalf("load after a crash between segments: %v", err)
	}
	checkVersions(t, re, want)
	if gens := scanChunkGens(t, kv); gens[1] != 0 {
		t.Fatalf("half-written generation survived load: %v", gens)
	}
	if err := re.Materialize(ctx); err != nil {
		t.Fatal(err)
	}
	checkVersions(t, re, want)
	// The repeated run cuts the same chunks the same way: the crash had left
	// some of them in part, now all are whole.
	if partial := partialChunks(landed, re.layout); len(partial) == 0 {
		t.Fatalf("precondition: the crash left no chunk stored in part (segments per chunk: %v)", landed)
	}
	if gens, partial := scanChunkGens(t, kv), partialChunks(storedSegments(t, kv, 1), re.layout); len(gens) != 1 || len(partial) != 0 {
		t.Fatalf("after the repeated materialize: generations %v, chunks stored in part %v", gens, partial)
	}
	re2, err := Open(ctx, Config{KV: kv, ChunkCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	checkVersions(t, re2, want)
}

// seedGroups commits three versions that each rewrite four documents of a
// quarter of chunkGroupBytes, flushing after every commit. Each record is a
// chunk of its own (capacity is 256 B), so a Materialize writes twelve chunks
// as three groups of four. Returns the expected per-version contents.
func seedGroups(t *testing.T, st *Store) map[types.VersionID]map[string]string {
	t.Helper()
	ctx := context.Background()
	want := map[types.VersionID]map[string]string{}
	parent := types.InvalidVersion
	for rev := 0; rev < 3; rev++ {
		puts := map[types.Key][]byte{}
		contents := map[string]string{}
		for d := 0; d < 4; d++ {
			k := fmt.Sprintf("doc-%d", d)
			contents[k] = strings.Repeat(fmt.Sprintf("%d.%d ", d, rev), chunkGroupBytes/4/4)
			puts[types.Key(k)] = []byte(contents[k])
		}
		v, err := st.Commit(ctx, parent, Change{Puts: puts})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		want[v], parent = contents, v
	}
	return want
}

// TestMaterializeCrashBetweenGroups: the chunk write of a repartition is a
// pipeline of groups, and it may die on any of them. Whichever group fails,
// no later group is started, the store is poisoned, Open serves the previous
// generation byte-exact and deletes the groups that did land, and a repeated
// Materialize succeeds.
func TestMaterializeCrashBetweenGroups(t *testing.T) {
	const groups = 3
	for k := 1; k <= groups; k++ {
		t.Run(fmt.Sprintf("group-%d-of-%d", k, groups), func(t *testing.T) {
			ctx := context.Background()
			st, kv, backends := openFaulty(t, 1)
			want := seedGroups(t, st)

			writes := 0 // BatchPuts of chunk payloads: only placement issues them
			backends[0].arm(func(table string) bool {
				if table == TableChunks {
					writes++
				}
				return table == TableChunks && writes == k
			})
			if err := st.Materialize(ctx); !errors.Is(err, errInjected) {
				t.Fatalf("materialize failing its group %d: %v", k, err)
			}
			backends[0].arm(nil)
			if writes != k {
				t.Fatalf("%d chunk groups were written, want the pipeline to stop at the failed group %d", writes, k)
			}
			if got, landed := scanChunkGens(t, kv)[1], 4*(k-1); got != landed {
				t.Fatalf("precondition: %d chunks of the uncommitted generation on disk, want %d", got, landed)
			}
			if _, err := st.Commit(ctx, types.VersionID(2), Change{Puts: map[types.Key][]byte{"x": []byte("y")}}); !errors.Is(err, types.ErrPoisoned) {
				t.Fatalf("commit after the failed materialize: %v, want ErrPoisoned", err)
			}

			re, err := Open(ctx, Config{KV: kv, ChunkCapacity: 256})
			if err != nil {
				t.Fatalf("load after a crash on group %d: %v", k, err)
			}
			checkVersions(t, re, want)
			if gens := scanChunkGens(t, kv); gens[1] != 0 || gens[0] != 4*groups {
				t.Fatalf("after load: generations %v, want only the %d chunks of generation 0", gens, 4*groups)
			}
			if err := re.Materialize(ctx); err != nil {
				t.Fatal(err)
			}
			checkVersions(t, re, want)
			if gens := scanChunkGens(t, kv); len(gens) != 1 || gens[1] != 4*groups {
				t.Fatalf("after the repeated materialize: generations %v, want only generation 1", gens)
			}
		})
	}
}

// TestMaterializeCancelledMidPipeline cancels the context while the second
// group is in flight: Materialize returns the cancellation, no chunk write is
// still running when it does (place awaits its goroutine on every path), the
// store is poisoned and Open recovers the previous generation.
func TestMaterializeCancelledMidPipeline(t *testing.T) {
	st, kv, backends := openFaulty(t, 1)
	want := seedGroups(t, st)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	writes := 0
	backends[0].arm(func(table string) bool {
		if table == TableChunks {
			if writes++; writes == 2 {
				cancel() // the group is in flight: the backend sees a dead context
			}
		}
		return false
	})
	err := st.Materialize(ctx)
	if n := backends[0].inFlight.Load(); n != 0 {
		t.Fatalf("%d chunk writes still in flight after Materialize returned", n)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("materialize under a cancelled context: %v", err)
	}
	backends[0].arm(nil)
	if writes != 2 {
		t.Fatalf("%d chunk groups were written, want the pipeline to stop at the cancelled group 2", writes)
	}
	if err := st.Flush(context.Background()); !errors.Is(err, types.ErrPoisoned) {
		t.Fatalf("flush after the cancelled materialize: %v, want ErrPoisoned", err)
	}
	re, err := Open(context.Background(), Config{KV: kv, ChunkCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	checkVersions(t, re, want)
	if gens := scanChunkGens(t, kv); gens[1] != 0 {
		t.Fatalf("the cancelled generation survived load: %v", gens)
	}
}
