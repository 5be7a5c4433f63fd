package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rstore/internal/chunk"
	"rstore/internal/codec"
	"rstore/internal/docgen"
	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// countingBackend counts what reaches the storage engine: reads per table,
// writes per key, bytes written.
type countingBackend struct {
	*memory.Backend
	mu       sync.Mutex
	reads    map[string]int // table → Get and Scan calls
	writes   map[string]int // table/key → times written
	bytesPut int64
}

func (b *countingBackend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	b.mu.Lock()
	b.reads[table]++
	b.mu.Unlock()
	return b.Backend.Get(ctx, table, key)
}

func (b *countingBackend) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	b.mu.Lock()
	b.reads[table]++
	b.mu.Unlock()
	return b.Backend.Scan(ctx, table, fn)
}

func (b *countingBackend) Put(ctx context.Context, table, key string, value []byte) error {
	b.mu.Lock()
	b.writes[table+"/"+key]++
	b.bytesPut += int64(len(value))
	b.mu.Unlock()
	return b.Backend.Put(ctx, table, key, value)
}

func (b *countingBackend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	b.mu.Lock()
	for _, e := range entries {
		b.writes[table+"/"+e.Key]++
		b.bytesPut += int64(len(e.Value))
	}
	b.mu.Unlock()
	return b.Backend.BatchPut(ctx, table, entries)
}

// TestFlushWriteVolumeDoesNotAge: a flush costs what its batch adds, not
// what the store holds. Over 40 equal batches on a chain — every version's
// span reaching back into chunks of earlier batches — no flush reads the
// chunks table, every chunk is written exactly once, and the 40th flush
// writes no more than 1.5× the bytes of the 2nd.
func TestFlushWriteVolumeDoesNotAge(t *testing.T) {
	ctx := context.Background()
	be := &countingBackend{Backend: memory.New(), reads: map[string]int{}, writes: map[string]int{}}
	kv, err := kvstore.Open(ctx, kvstore.Config{
		Nodes:      1,
		NewBackend: func(int) (engine.Backend, error) { return be, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(ctx, Config{KV: kv, ChunkCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}

	const batches, perBatch, keys = 40, 8, 64
	flushBytes := make([]int64, batches+1) // 1-based
	parent := types.InvalidVersion
	for batch := 1; batch <= batches; batch++ {
		for i := 0; i < perBatch; i++ {
			n := (batch-1)*perBatch + i
			ch := Change{Puts: map[types.Key][]byte{}}
			rewrites := 3
			if n == 0 {
				rewrites = keys
			}
			for r := 0; r < rewrites; r++ {
				ch.Puts[key((3*n+r)%keys)] = []byte(fmt.Sprintf(`{"rev":%06d,"pad":"%064d"}`, n, r))
			}
			if parent, err = st.Commit(ctx, parent, ch); err != nil {
				t.Fatal(err)
			}
		}
		be.mu.Lock()
		readsBefore, bytesBefore := be.reads[TableChunks], be.bytesPut
		be.mu.Unlock()
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		be.mu.Lock()
		if got := be.reads[TableChunks] - readsBefore; got != 0 {
			t.Errorf("flush %d read the chunks table %d times", batch, got)
		}
		flushBytes[batch] = be.bytesPut - bytesBefore
		be.mu.Unlock()
	}

	be.mu.Lock()
	chunkKeys := 0
	for k, n := range be.writes {
		if strings.HasPrefix(k, TableChunks+"/") {
			chunkKeys++
			if n != 1 {
				t.Errorf("%s written %d times", k, n)
			}
		}
	}
	be.mu.Unlock()
	if chunkKeys != st.NumChunks() || chunkKeys < batches {
		t.Fatalf("%d chunk keys written, store has %d chunks", chunkKeys, st.NumChunks())
	}
	if flushBytes[batches]*2 > flushBytes[2]*3 {
		t.Fatalf("flush %d put %d bytes, flush 2 put %d: write volume grows with the store", batches, flushBytes[batches], flushBytes[2])
	}
	// The tip is still all there.
	recs, _, err := st.GetVersionAll(ctx, parent)
	if err != nil || len(recs) != keys {
		t.Fatalf("tip: %d records, %v", len(recs), err)
	}
}

// TestFlushCrashMatrix fails a flush at each step of its crash order —
// between two segments of one chunk, after the chunk write, after the
// placement record, after the root (the commit point), and with the
// delta-drain batch landed on one node and not the other —
// and checks that Load recovers every version byte-exact, that the recovered
// store commits and flushes again (reusing the orphaned chunk ids and record
// index), and that the result survives another reload.
func TestFlushCrashMatrix(t *testing.T) {
	stages := []struct {
		name string
		// fail is armed on the last node. Most stages run on one node and
		// 256-byte chunks, which the batch overflows; between-segments needs
		// a chunk of several segments (documents padded by pad bytes, twelve
		// of them to four segments) on two nodes, one of which refuses its
		// share of them; half-drained has two nodes for the drain's batch to
		// split over.
		fail            func(table string) bool
		nodes, capacity int
		pad             int
	}{
		{"between-segments", func(table string) bool { return table == TableChunks }, 2, 8 * chunk.SegmentTarget, 28 << 10},
		{"after-chunks", func(table string) bool { return table == TablePlacement }, 1, 256, 0},
		{"after-record", func(table string) bool { return table == TableMeta }, 1, 256, 0},
		{"after-root", func(table string) bool { return table == TableDeltaStore }, 1, 256, 0},
		{"half-drained", func(table string) bool { return table == TableDeltaStore }, 2, 256, 0},
	}
	for _, stage := range stages {
		t.Run(stage.name, func(t *testing.T) {
			ctx := context.Background()
			st, kv, backends := openFaultyCapacity(t, stage.nodes, stage.capacity)
			want, versions := seedStore(t, st)
			state := want[versions[len(versions)-1]]
			parent := versions[len(versions)-1]
			commit := func(s *Store, rev int) {
				t.Helper()
				val := fmt.Sprintf("doc-%d rev-%d content", rev%5, rev) + strings.Repeat(".", stage.pad)
				v, err := s.Commit(ctx, parent, Change{Puts: map[types.Key][]byte{
					types.Key(fmt.Sprintf("doc-%d", rev%5)): []byte(val),
					types.Key(fmt.Sprintf("new-%d", rev)):   []byte(val),
				}})
				if err != nil {
					t.Fatal(err)
				}
				next := map[string]string{fmt.Sprintf("doc-%d", rev%5): val, fmt.Sprintf("new-%d", rev): val}
				for k, s := range state {
					if _, ok := next[k]; !ok {
						next[k] = s
					}
				}
				want[v], state, parent = next, next, v
			}
			// Six commits, 12 records of ≈ 36 B: larger than the 256 B chunk
			// capacity, so the faulted flush is a split one (open and
			// closed chunks; rev 105 supersedes rev 100's doc-0).
			for rev := 100; rev < 106; rev++ {
				commit(st, rev)
			}

			seeded := st.NumChunks()
			last := backends[len(backends)-1]
			last.arm(stage.fail)
			if err := st.Flush(ctx); !errors.Is(err, errInjected) {
				t.Fatalf("flush under fault: %v", err)
			}
			last.arm(nil)
			switch stage.name {
			case "between-segments":
				// Some of the batch's chunks must be on disk in part: a
				// segment of theirs landed, and the last node refused another.
				stored, partial := storedSegments(t, kv, st.gen), []chunk.ID{}
				for _, key := range last.refused {
					if g, cid, _, ok := chunk.ParseSegmentKey(key); ok && g == st.gen && stored[cid] > 0 {
						partial = append(partial, cid)
					}
				}
				if len(partial) == 0 || slices.Min(partial) < chunk.ID(seeded) {
					t.Fatalf("precondition: partially written chunks %v, want some, all at or past chunk %d", partial, seeded)
				}
			case "half-drained":
				left := 0
				if err := kv.Scan(ctx, TableDeltaStore, func(string, []byte) bool { left++; return true }); err != nil {
					t.Fatal(err)
				}
				if left == 0 || left >= 6 {
					t.Fatalf("precondition: %d of the batch's 6 delta entries left, want some and not all", left)
				}
			}

			re, err := Load(ctx, Config{KV: kv, ChunkCapacity: stage.capacity})
			if err != nil {
				t.Fatalf("load after interrupted flush: %v", err)
			}
			checkVersions(t, re, want)
			commit(re, 106)
			if err := re.Flush(ctx); err != nil {
				t.Fatalf("re-flush: %v", err)
			}
			checkVersions(t, re, want)
			if re.PendingVersions() != 0 {
				t.Fatalf("%d versions pending after the re-flush", re.PendingVersions())
			}

			if partial := partialChunks(storedSegments(t, kv, re.gen), re.layout); len(partial) != 0 {
				t.Fatalf("chunks %v are still stored in part after load and re-flush", partial)
			}

			re2, err := Load(ctx, Config{KV: kv, ChunkCapacity: stage.capacity})
			if err != nil {
				t.Fatalf("reload: %v", err)
			}
			checkVersions(t, re2, want)
			if re2.NumChunks() != re.NumChunks() || re2.PendingVersions() != 0 {
				t.Fatalf("reload: %d chunks, %d pending; flushed store had %d, 0",
					re2.NumChunks(), re2.PendingVersions(), re.NumChunks())
			}
		})
	}
}

// TestFlushKVCallsBounded: a flush is a fixed number of storage writes
// whatever its batch holds — per node one batch of chunk segments, the
// placement record, the root, and one batch that drains the write store — so
// a batch of 64 versions must not cost more engine calls than a batch of one.
func TestFlushKVCallsBounded(t *testing.T) {
	ctx := context.Background()
	const nodes = 2
	calls := map[int]int64{}
	for _, k := range []int{1, 8, 64} {
		st, _, backends := openFaultyCapacity(t, nodes, 4096)
		_, versions := seedStore(t, st)
		parent := versions[len(versions)-1]
		for i := 0; i < k; i++ {
			var err error
			if parent, err = st.Commit(ctx, parent, Change{Puts: map[types.Key][]byte{key(i % 7): []byte(fmt.Sprintf("rev %d", i))}}); err != nil {
				t.Fatal(err)
			}
		}
		before := int64(0)
		for _, be := range backends {
			before += be.writes.Load()
		}
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		for _, be := range backends {
			calls[k] += be.writes.Load()
		}
		calls[k] -= before
	}
	// Chunks and drain reach at most every node, record and root one each.
	if limit := int64(2*nodes + 2); calls[1] > limit || calls[8] > limit || calls[64] > limit {
		t.Fatalf("a flush of 1, 8 and 64 versions made %d, %d and %d engine write calls, want at most %d each", calls[1], calls[8], calls[64], limit)
	}
}

// TestLoadRefusesOlderManifest: a format-2 manifest (chunk maps inside the
// chunk values, no placement log), a format-3 root (this root's fields, over
// placement records that also list each version's composite keys), a
// format-4 root (the same fields again, over chunks stored as one payload
// each), a format-5 root (the same fields, over placement records of whole
// bitmaps, which this build would take for diffs), a format-6 root (the
// same fields, over segments of raw values, whose item heads this build would
// read a bit off) and a format-7 root (the same fields, over segments that
// begin with their first slot where this build reads a literal width, and
// whose run lists mix heads and literal bytes) must be refused with the
// re-initialize error, not misread; so must a root of a version after this
// build's.
func TestLoadRefusesOlderManifest(t *testing.T) {
	ctx := context.Background()
	for _, ver := range []uint64{2, 3, 4, 5, 6, 7, manifestVersion + 1} {
		kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Five zero fields after the version: v2's generation, versions,
		// chunks, pending, branches; from v3 on generation, chunks, placement
		// records, placed versions, branches.
		root := codec.PutUvarint(nil, ver)
		for i := 0; i < 5; i++ {
			root = codec.PutUvarint(root, 0)
		}
		if err := kv.Put(ctx, TableMeta, manifestKey, root); err != nil {
			t.Fatal(err)
		}
		_, err = Load(ctx, Config{KV: kv})
		if !errors.Is(err, types.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), "re-initialize the store") {
			t.Fatalf("load of a v%d manifest: %v", ver, err)
		}
	}
}

// TestLoadDetectsMissingPlacementRecord: a hole in the placement log below
// the root's record count is corruption, not a silently shorter history.
func TestLoadDetectsMissingPlacementRecord(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(ctx, Config{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	parent := types.InvalidVersion
	for i := 0; i < 3; i++ {
		if parent, err = st.Commit(ctx, parent, Change{Puts: map[types.Key][]byte{key(i): []byte("x")}}); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Load(ctx, Config{KV: kv}); err != nil {
		t.Fatalf("intact log: %v", err)
	}
	if err := kv.Delete(ctx, TablePlacement, placementKey(st.gen, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(ctx, Config{KV: kv}); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("load with placement record 1 of 3 missing: %v", err)
	}
}

// TestDamagedSegmentsAreCorrupt: a chunk the root counts is whole or the
// store is corrupt. With one segment of it missing — first, middle or last —
// or two stored under each other's keys, Load refuses with ErrCorrupt rather
// than open a shorter or shuffled chunk, and a store that is already open
// answers a read that needs the damaged segment with ErrCorrupt too.
func TestDamagedSegmentsAreCorrupt(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{KV: kv, ChunkCapacity: 8 * chunk.SegmentTarget}
	st, err := Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	puts := map[types.Key][]byte{}
	for i := 0; i < 64; i++ { // 64 records of 4 KiB: one chunk of four segments
		puts[key(i)] = []byte(strings.Repeat(fmt.Sprintf("%02d", i), 2<<10))
	}
	v0, err := st.Commit(ctx, types.InvalidVersion, Change{Puts: puts})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	segs := st.layout.Segments(0)
	if st.NumChunks() != 1 || len(segs) != 4 {
		t.Fatalf("precondition: %d chunks, chunk 0 in segments %v", st.NumChunks(), segs)
	}
	values := make([][]byte, len(segs))
	for i := range segs {
		if values[i], err = kv.Get(ctx, TableChunks, chunk.SegmentKey(st.gen, 0, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	restore := func() {
		t.Helper()
		for i, value := range values {
			if err := kv.Put(ctx, TableChunks, chunk.SegmentKey(st.gen, 0, uint32(i)), value); err != nil {
				t.Fatal(err)
			}
		}
	}
	// keyIn is a key whose record sits in segment i: slots follow key order.
	keyIn := func(i int) types.Key { return key(int(segs[i])) }
	check := func(damage string, touched ...int) {
		t.Helper()
		if _, err := Load(ctx, Config{KV: kv, ReadOnly: true}); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%s: Load returned %v, want ErrCorrupt", damage, err)
		}
		for _, i := range touched {
			if _, _, err := st.GetRecord(ctx, keyIn(i), v0); !errors.Is(err, types.ErrCorrupt) {
				t.Errorf("%s: point read in segment %d returned %v, want ErrCorrupt", damage, i, err)
			}
		}
		if _, _, err := st.GetVersionAll(ctx, v0); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%s: version read returned %v, want ErrCorrupt", damage, err)
		}
		restore()
	}
	for i := range segs {
		if err := kv.Delete(ctx, TableChunks, chunk.SegmentKey(st.gen, 0, uint32(i))); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("segment %d of %d missing", i, len(segs)), i)
	}
	for _, swap := range [][2]int{{1, 2}, {0, 3}} {
		for j := 0; j < 2; j++ {
			if err := kv.Put(ctx, TableChunks, chunk.SegmentKey(st.gen, 0, uint32(swap[j])), values[swap[1-j]]); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("segments %d and %d stored under each other's keys", swap[0], swap[1]), swap[0], swap[1])
	}

	if _, err := Load(ctx, Config{KV: kv, ReadOnly: true}); err != nil {
		t.Fatalf("the segments, put back: %v", err)
	}
	for i := range segs {
		if rec, stats, err := st.GetRecord(ctx, keyIn(i), v0); err != nil || string(rec.Value) != string(puts[keyIn(i)]) || stats.BytesRead != int64(len(values[i])) {
			t.Fatalf("point read in segment %d, restored: %v, %+v (the segment is %d bytes)", i, err, stats, len(values[i]))
		}
	}
}

// TestFailedPublishPoisonsStore: a flush whose chunk write fails has already
// advanced the in-memory layout. The store must refuse every further mutation
// — a later batch-closing commit would otherwise find the unwritten records
// "placed", write no payload for them, and commit a root counting chunks that
// were never stored — while reads and Close keep working and Load recovers
// every acknowledged version.
func TestFailedPublishPoisonsStore(t *testing.T) {
	ctx := context.Background()
	var be *faultBackend
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1, NewBackend: func(int) (engine.Backend, error) {
		be = &faultBackend{Backend: memory.New()}
		return be, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 3
	cfg := Config{KV: kv, ChunkCapacity: 256, BatchSize: batch}
	st, err := Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[types.VersionID]map[string]string{}
	state := map[string]string{}
	parent := types.InvalidVersion
	commit := func(s *Store, rev int) error {
		val := fmt.Sprintf("doc-%d rev-%d content", rev%4, rev)
		k := fmt.Sprintf("doc-%d", rev%4)
		v, err := s.Commit(ctx, parent, Change{Puts: map[types.Key][]byte{types.Key(k): []byte(val)}})
		if err != nil {
			return err
		}
		state[k] = val
		cp := map[string]string{}
		for k, s := range state {
			cp[k] = s
		}
		want[v], parent = cp, v
		return nil
	}
	rev := 0
	for ; rev < 2*batch+2; rev++ { // two flushed batches and two pending versions
		if err := commit(st, rev); err != nil {
			t.Fatal(err)
		}
	}

	// The commit that closes the third batch: its flush cannot write chunks.
	be.arm(func(table string) bool { return table == TableChunks })
	if err := commit(st, rev); !errors.Is(err, errInjected) || !errors.Is(err, types.ErrPoisoned) {
		t.Fatalf("batch-closing commit under a chunk-write fault: %v, want ErrPoisoned wrapping the fault", err)
	}
	be.arm(nil)
	rev++

	// Every mutation is refused from here on, through the next batch and past it.
	for i := 0; i < batch+1; i, rev = i+1, rev+1 {
		if err := commit(st, rev); !errors.Is(err, types.ErrPoisoned) {
			t.Errorf("commit %d after the failed flush: %v, want ErrPoisoned", i, err)
		}
	}
	checkVersions(t, st, want) // reads keep answering
	if err := st.Close(); err != nil {
		t.Fatalf("close of a poisoned store: %v", err)
	}

	re, err := Load(ctx, cfg)
	if err != nil {
		t.Fatalf("load after the failed flush: %v", err)
	}
	checkVersions(t, re, want)
	if err := commit(re, rev); err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	re2, err := Load(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkVersions(t, re2, want)
	if re2.PendingVersions() != 0 || re2.NumChunks() != re.NumChunks() {
		t.Fatalf("reload: %d pending, %d chunks; flushed store had 0, %d", re2.PendingVersions(), re2.NumChunks(), re.NumChunks())
	}
}

// TestFailedMaterializePoisonsStore: the same rule for a repartition. One
// that fails after its chunks but before its record leaves generation g+1
// half-written; a later flush must not be allowed to append to that
// generation's log and commit a root over a history that starts mid-way.
func TestFailedMaterializePoisonsStore(t *testing.T) {
	ctx := context.Background()
	st, kv, backends := openFaulty(t, 1)
	want, versions := seedStore(t, st)
	tip := versions[len(versions)-1]

	backends[0].arm(func(table string) bool { return table == TablePlacement })
	if err := st.Materialize(ctx); !errors.Is(err, errInjected) || !errors.Is(err, types.ErrPoisoned) {
		t.Fatalf("materialize under fault: %v, want ErrPoisoned wrapping the fault", err)
	}
	backends[0].arm(nil)

	_, commitErr := st.Commit(ctx, tip, Change{Puts: map[types.Key][]byte{"doc-0": []byte("late")}})
	for name, err := range map[string]error{
		"Commit":      commitErr,
		"Flush":       st.Flush(ctx),
		"Materialize": st.Materialize(ctx),
		"SetBranch":   st.SetBranch(ctx, "main", tip),
		"Checkpoint":  st.Checkpoint(ctx),
	} {
		if !errors.Is(err, types.ErrPoisoned) || !strings.Contains(err.Error(), errInjected.Error()) {
			t.Errorf("%s on a poisoned store: %v, want ErrPoisoned naming the cause", name, err)
		}
	}
	checkVersions(t, st, want) // served from g+1, installed before its record: its chunks are durable
	if err := st.Close(); err != nil {
		t.Fatalf("close of a poisoned store: %v", err)
	}

	re, err := Load(ctx, Config{KV: kv, ChunkCapacity: 256})
	if err != nil {
		t.Fatalf("load after the failed materialize: %v", err)
	}
	checkVersions(t, re, want)
	if err := re.Materialize(ctx); err != nil {
		t.Fatal(err)
	}
	checkVersions(t, re, want)
	if gens := scanChunkGens(t, kv); len(gens) != 1 {
		t.Fatalf("chunk generations after recovery and a clean repartition: %v", gens)
	}
}

// TestDrainedDeltasLeaveNoLog is ingest's shape on a 3-node lsm cluster at
// rf 2: 64 commits of 150 documents of 512 bytes, closing a batch every 16.
// A drain overwrites its batch's delta entries with tombstones, which leaves
// the delta store's log mostly dead, and the log is replaced there: what the
// disks hold is what is stored, give or take framing. While the deltas
// stayed in a log shared with the chunks until the next memtable flush, the
// disks held nearly three times what was stored.
func TestDrainedDeltasLeaveNoLog(t *testing.T) {
	ctx := context.Background()
	kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 3, ReplicationFactor: 2, Engine: kvstore.EngineLSM, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	s, err := Open(ctx, Config{KV: kv, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	docs := docgen.New(1)
	v := types.InvalidVersion
	for i := 0; i < 64; i++ {
		ch := Change{Puts: map[types.Key][]byte{}}
		for j := 0; j < 150; j++ {
			k := types.Key(fmt.Sprintf("doc-%04d", (i*150+j)%1000))
			ch.Puts[k] = docs.Document(k, 512)
		}
		if v, err = s.Commit(ctx, v, ch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if s.PendingVersions() != 0 {
		t.Fatalf("%d versions pending after the flush", s.PendingVersions())
	}
	st := kv.Stats(ctx)
	if ratio := float64(st.DiskBytes) / float64(st.BytesStored); ratio > 1.02 {
		t.Fatalf("the disks hold %d bytes for %d stored (%.3f×): drained deltas stayed logged", st.DiskBytes, st.BytesStored, ratio)
	}
}

// TestDeletesLeaveNoTombstones: every flush drains the delta store and a
// repartition replaces a whole placement generation, so a store deletes on
// every batch. Each delete's tombstone is collected once every replica holds
// it — at rf 1 as at rf 2 — so after 64 one-key commits in batches of 4 and
// a Materialize, no node holds a tombstone, with nothing read in between.
func TestDeletesLeaveNoTombstones(t *testing.T) {
	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("rf=%d", rf), func(t *testing.T) {
			ctx := context.Background()
			kv, nodes := openMemCluster(t, kvstore.Config{Nodes: 2, ReplicationFactor: rf})
			defer kv.Close()
			s, err := Open(ctx, Config{KV: kv, BatchSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			v := types.InvalidVersion
			for i := 0; i < 64; i++ {
				ch := Change{Puts: map[types.Key][]byte{key(i % 8): []byte(fmt.Sprintf("v%d", i))}}
				if v, err = s.Commit(ctx, v, ch); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Materialize(ctx); err != nil {
				t.Fatal(err)
			}
			// tombs counts the tombstones the nodes hold per table: LWW
			// envelopes with flag 1 and no payload (docs/FORMATS.md).
			tombs := func() map[string]int {
				out := map[string]int{}
				for _, table := range []string{TableChunks, TableDeltaStore, TablePlacement} {
					for _, be := range nodes {
						if err := be.Scan(ctx, table, func(_ string, raw []byte) bool {
							if len(raw) == kvstore.EnvelopeOverhead && raw[0] == 1 {
								out[table]++
							}
							return true
						}); err != nil {
							t.Fatal(err)
						}
					}
				}
				return out
			}
			deadline := time.Now().Add(5 * time.Second)
			for len(tombs()) > 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if left := tombs(); len(left) > 0 {
				t.Fatalf("tombstones left per table: %v (TombstonesGCed %d)", left, kv.Stats(ctx).TombstonesGCed)
			}
		})
	}
}
