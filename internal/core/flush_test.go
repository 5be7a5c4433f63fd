package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rstore/internal/codec"
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
// after the chunk write, after the placement record, after the root (the
// commit point), and mid delta-drain — and checks that Load recovers every
// version byte-exact, that the recovered store commits and flushes again
// (reusing the orphaned chunk ids and record index), and that the result
// survives another reload.
func TestFlushCrashMatrix(t *testing.T) {
	drainCalls := 0
	stages := []struct {
		name string
		fail func(table string) bool
	}{
		{"after-chunks", func(table string) bool { return table == TablePlacement }},
		{"after-record", func(table string) bool { return table == TableMeta }},
		{"after-root", func(table string) bool { return table == TableDeltaStore }},
		{"mid-drain", func(table string) bool {
			if table == TableDeltaStore {
				drainCalls++
			}
			return drainCalls > 1
		}},
	}
	for _, stage := range stages {
		t.Run(stage.name, func(t *testing.T) {
			ctx := context.Background()
			st, kv, backends := openFaulty(t, 1)
			want, versions := seedStore(t, st)
			state := want[versions[len(versions)-1]]
			parent := versions[len(versions)-1]
			commit := func(s *Store, rev int) {
				t.Helper()
				val := fmt.Sprintf("doc-%d rev-%d content", rev%5, rev)
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
			// Six commits, 12 records of ≈ 36 B: larger than the 256 B
			// chunk capacity, so the faulted flush is a split one (open
			// and closed chunks; rev 105 supersedes rev 100's doc-0).
			for rev := 100; rev < 106; rev++ {
				commit(st, rev)
			}

			backends[0].arm(stage.fail)
			if err := st.Flush(ctx); !errors.Is(err, errInjected) {
				t.Fatalf("flush under fault: %v", err)
			}
			backends[0].arm(nil)

			re, err := Load(ctx, Config{KV: kv, ChunkCapacity: 256})
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

			re2, err := Load(ctx, Config{KV: kv, ChunkCapacity: 256})
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

// TestLoadRefusesOlderManifest: a format-2 manifest (chunk maps inside the
// chunk values, no placement log) and a format-3 root (this root's fields,
// over placement records that also list each version's composite keys) must
// be refused with the re-initialize error, not misread.
func TestLoadRefusesOlderManifest(t *testing.T) {
	ctx := context.Background()
	for _, ver := range []uint64{2, 3} {
		kv, err := kvstore.Open(ctx, kvstore.Config{Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Five zero fields after the version: v2's generation, versions,
		// chunks, pending, branches; v3's generation, chunks, placement
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
	checkVersions(t, st, want) // still served from the generation the root names
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
