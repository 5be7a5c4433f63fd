package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// A query plans under the store's read lock and streams outside it, so a
// cursor whose consumer stops reading holds up no writer. These tests leave a
// cursor the way such a client does — planned, its first fetch round done,
// suspended in its consumer — and hold every writer to a second beside it.

// besideReaderStore opens a store of 256-byte chunks over a one-node memory
// cluster of its own, flushing every batch versions (0: by hand), and commits
// version 0 — twenty documents of a chunk each, more chunks than one fetch
// round reads — placed, and version 1, pending, which rewrites five of them,
// deletes five and adds two.
func besideReaderStore(t *testing.T, batch int) (*Store, *kvstore.Store) {
	t.Helper()
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return besideReaderStoreOver(t, kv, batch), kv
}

// besideReaderStoreOver is besideReaderStore over the caller's cluster.
func besideReaderStoreOver(t *testing.T, kv *kvstore.Store, batch int) *Store {
	t.Helper()
	ctx := context.Background()
	st, err := Open(ctx, Config{KV: kv, ChunkCapacity: 256, BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	puts := map[types.Key][]byte{}
	for i := 0; i < 20; i++ {
		puts[types.Key(fmt.Sprintf("doc-%02d", i))] = []byte(strings.Repeat(fmt.Sprintf("%02d", i), 100))
	}
	v0, err := st.Commit(ctx, types.InvalidVersion, Change{Puts: puts})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st.NumChunks() <= queryFetchBatch {
		t.Fatalf("%d chunks: version 0 must take more than one fetch round", st.NumChunks())
	}
	change := Change{Puts: map[types.Key][]byte{"new-0": []byte("n0"), "new-1": []byte("n1")}}
	for i := 0; i < 5; i++ {
		change.Puts[types.Key(fmt.Sprintf("doc-%02d", i))] = []byte(fmt.Sprintf("rewritten %d", i))
		change.Deletes = append(change.Deletes, types.Key(fmt.Sprintf("doc-%02d", 5+i)))
	}
	if _, err := st.Commit(ctx, v0, change); err != nil {
		t.Fatal(err)
	}
	return st
}

// stalledCursor opens a cursor on version v and reads one record of it. rest
// resumes it and returns all it streamed, sorted; stop abandons it.
func stalledCursor(t *testing.T, st *Store, v types.VersionID) (rest func() []types.Record, stop func()) {
	t.Helper()
	next, stop := iter.Pull2(st.GetVersion(context.Background(), v).Records())
	first, err, ok := next()
	if !ok || err != nil {
		stop()
		t.Fatalf("first record of version %d: %v", v, err)
	}
	return func() []types.Record {
		t.Helper()
		recs := []types.Record{first}
		for r, err, ok := next(); ok; r, err, ok = next() {
			if err != nil {
				t.Fatalf("resumed cursor of version %d: %v", v, err)
			}
			recs = append(recs, r)
		}
		types.SortRecords(recs)
		return recs
	}, stop
}

// within runs op and fails the test unless it returns, without error, inside
// a second.
func within(t *testing.T, what string, op func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(time.Second):
		t.Fatalf("%s waited more than a second", what)
	}
}

// sameRecords fails unless got and want hold the same records, byte for byte.
func sameRecords(t *testing.T, what string, got, want []types.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].CK != want[i].CK || string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("%s: record %d is %v = %q, want %v = %q", what, i, got[i].CK, got[i].Value, want[i].CK, want[i].Value)
		}
	}
}

// placementGens counts the placement records of each generation.
func placementGens(t *testing.T, kv *kvstore.Store) map[uint32]int {
	t.Helper()
	gens := map[uint32]int{}
	if err := kv.Scan(context.Background(), TablePlacement, func(key string, _ []byte) bool {
		var g, idx uint32
		if _, err := fmt.Sscanf(key, "g%08x-p%08x", &g, &idx); err != nil {
			t.Fatalf("placement key %q: %v", key, err)
		}
		gens[g]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return gens
}

// TestBesideReaderWritersDoNotWait: a plain commit, a commit that closes its
// batch (and so flushes) and a Materialize each return within a second beside
// a stalled cursor, which then finishes with what it started reading.
func TestBesideReaderWritersDoNotWait(t *testing.T) {
	ctx := context.Background()
	st, _ := besideReaderStore(t, 3)
	want, _, err := st.GetVersionAll(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	rest, stop := stalledCursor(t, st, 1)
	defer stop()

	within(t, "a commit beside a stalled cursor", func() error {
		_, err := st.Commit(ctx, 1, Change{Puts: map[types.Key][]byte{"doc-10": []byte("v2")}})
		return err
	})
	within(t, "a batch-closing commit beside a stalled cursor", func() error {
		_, err := st.Commit(ctx, 2, Change{Puts: map[types.Key][]byte{"doc-11": []byte("v3")}})
		return err
	})
	if n := st.PendingVersions(); n != 0 {
		t.Fatalf("%d versions pending: the third commit did not close the batch", n)
	}
	within(t, "a Materialize beside a stalled cursor", func() error { return st.Materialize(ctx) })
	sameRecords(t, "stalled cursor of version 1", rest(), want)
}

// TestBesideReaderFlushDrainsOverlay: a cursor of a pending version planned
// its overlay before a flush placed the version and drained its delta from the
// write store; it finishes byte-exact against the version read after.
func TestBesideReaderFlushDrainsOverlay(t *testing.T) {
	ctx := context.Background()
	st, kv := besideReaderStore(t, 0)
	rest, stop := stalledCursor(t, st, 1)
	defer stop()

	within(t, "a flush beside a stalled cursor", func() error { return st.Flush(ctx) })
	pending := 0
	if err := kv.Scan(ctx, TableDeltaStore, func(string, []byte) bool { pending++; return true }); err != nil {
		t.Fatal(err)
	}
	if pending != 0 {
		t.Fatalf("%d delta entries left after the flush", pending)
	}
	want, _, err := st.GetVersionAll(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "cursor opened before the flush", rest(), want)
}

// TestBesideReaderMaterializeDefersSweep: a cursor opened before Materialize
// pins the generation it reads. Materialize returns beside it, the superseded
// generation stays while the cursor streams, the cursor finishes byte-exact
// against the version read after, and once it ends no key of the old
// generation is left in chunks or placement.
func TestBesideReaderMaterializeDefersSweep(t *testing.T) {
	ctx := context.Background()
	st, kv := besideReaderStore(t, 0)
	rest, stop := stalledCursor(t, st, 1)
	defer stop()

	within(t, "a Materialize beside a stalled cursor", func() error { return st.Materialize(ctx) })
	if st.gen != 1 {
		t.Fatalf("generation %d after Materialize, want 1", st.gen)
	}
	if gens := scanChunkGens(t, kv); gens[0] == 0 {
		t.Fatalf("the generation a cursor reads was deleted under it: chunk generations %v", gens)
	}
	want, _, err := st.GetVersionAll(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "cursor opened before Materialize", rest(), want)
	if chunks, records := scanChunkGens(t, kv), placementGens(t, kv); chunks[0] != 0 || records[0] != 0 || chunks[1] == 0 {
		t.Fatalf("after the cursor ended: chunk generations %v, placement generations %v; want generation 1 alone", chunks, records)
	}
}

// TestBesideReaderCrashBeforeSweep: a crash after Materialize swapped the
// generation, while a cursor still held the old one, leaves nothing of the old
// generation once Open has run, and every version reads as it did.
func TestBesideReaderCrashBeforeSweep(t *testing.T) {
	ctx := context.Background()
	st, kv := besideReaderStore(t, 0)
	var want [2][]types.Record
	for v := range want {
		var err error
		if want[v], _, err = st.GetVersionAll(ctx, types.VersionID(v)); err != nil {
			t.Fatal(err)
		}
	}
	_, stop := stalledCursor(t, st, 1)
	defer stop()

	within(t, "a Materialize beside a stalled cursor", func() error { return st.Materialize(ctx) })
	if gens := scanChunkGens(t, kv); gens[0] == 0 {
		t.Fatalf("precondition: the pinned generation is gone before the crash: %v", gens)
	}
	// The crash: st is abandoned, cursor and all; a new process loads.
	re, err := Open(ctx, Config{KV: kv, ChunkCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	if chunks, records := scanChunkGens(t, kv), placementGens(t, kv); chunks[0] != 0 || records[0] != 0 {
		t.Fatalf("after Open: chunk generations %v, placement generations %v; want none of generation 0", chunks, records)
	}
	for v := range want {
		got, _, err := re.GetVersionAll(ctx, types.VersionID(v))
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, fmt.Sprintf("version %d after Open", v), got, want[v])
	}
}

// TestBesideReaderConcurrentPins: readers stream two versions over and over
// while a writer commits, flushes and repartitions; every read is byte-exact
// whichever generations it started and ended beside, and once the readers are
// done each superseded generation is gone — its last reader, or publish,
// deleted it, and nothing deleted one a reader still held.
func TestBesideReaderConcurrentPins(t *testing.T) {
	ctx := context.Background()
	st, kv := besideReaderStore(t, 0)
	var want [2][]types.Record
	for v := range want {
		var err error
		if want[v], _, err = st.GetVersionAll(ctx, types.VersionID(v)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < cap(errs); r++ {
		go func() {
			for i := r; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				got, _, err := st.GetVersionAll(ctx, types.VersionID(i%2))
				if err == nil && len(got) != len(want[i%2]) {
					err = fmt.Errorf("version %d: %d records, want %d", i%2, len(got), len(want[i%2]))
				}
				for j := 0; err == nil && j < len(got); j++ {
					if got[j].CK != want[i%2][j].CK || string(got[j].Value) != string(want[i%2][j].Value) {
						err = fmt.Errorf("version %d: record %d is %v, want %v", i%2, j, got[j].CK, want[i%2][j].CK)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	tip := types.VersionID(1)
	for round := 0; round < 5; round++ {
		next, err := st.Commit(ctx, tip, Change{Puts: map[types.Key][]byte{types.Key(fmt.Sprintf("round-%d", round)): []byte("r")}})
		if err == nil {
			err = st.Flush(ctx)
		}
		if err == nil {
			err = st.Materialize(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		tip = next
	}
	close(stop)
	for r := 0; r < cap(errs); r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if chunks, records := scanChunkGens(t, kv), placementGens(t, kv); len(chunks) != 1 || chunks[st.gen] == 0 || len(records) != 1 || records[st.gen] == 0 {
		t.Fatalf("readers done: chunk generations %v, placement generations %v; want generation %d alone", chunks, records, st.gen)
	}
}

// TestBesideReaderClose: Close does not wait for a stalled cursor, and the
// cursor, resumed with segments left to fetch from the cluster Close closed,
// ends with an error wrapping types.ErrClosed — not with a panic, and not as
// if it had streamed the whole version.
func TestBesideReaderClose(t *testing.T) {
	ctx := context.Background()
	st, err := Open(ctx, Config{ChunkCapacity: 256}) // the store owns its cluster
	if err != nil {
		t.Fatal(err)
	}
	puts := map[types.Key][]byte{}
	for i := 0; i < 20; i++ {
		puts[types.Key(fmt.Sprintf("doc-%02d", i))] = []byte(strings.Repeat(fmt.Sprintf("%02d", i), 100))
	}
	v, err := st.Commit(ctx, types.InvalidVersion, Change{Puts: puts})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	next, stop := iter.Pull2(st.GetVersion(ctx, v).Records())
	defer stop()
	if _, err, ok := next(); !ok || err != nil {
		t.Fatalf("first record: %v", err)
	}

	within(t, "Close beside a stalled cursor", st.Close)
	got := 1
	for _, err, ok := next(); ok; _, err, ok = next() {
		if err != nil {
			if !errors.Is(err, types.ErrClosed) {
				t.Fatalf("cursor resumed after Close ended with %v, want types.ErrClosed", err)
			}
			if got >= len(puts) {
				t.Fatalf("cursor streamed all %d records and then failed", got)
			}
			return
		}
		got++
	}
	t.Fatalf("cursor resumed after Close streamed %d of %d records and ended without an error", got, len(puts))
}

// gateBackend is a memory backend that, once armed, holds every call of some
// operations on one table: each announces itself on entered and waits until
// the gate opens or its context ends.
type gateBackend struct {
	*memory.Backend
	gate atomic.Pointer[gate]
}

// gate is what a gateBackend holds: the calls of ops ("get", "scan",
// "batchput") on table.
type gate struct {
	table   string
	ops     []string
	entered chan struct{} // a token per held call; 16 outnumbers any test's held calls, and a full buffer drops tokens
	release chan struct{}
}

// openGated returns a store over a gatedCluster, set up as besideReaderStore
// sets one up.
func openGated(t *testing.T) (*Store, *gateBackend) {
	t.Helper()
	kv, be := gatedCluster(t)
	return besideReaderStoreOver(t, kv, 0), be
}

// gatedCluster returns a one-node cluster of a gateBackend; the gate opens
// when the test ends.
func gatedCluster(t *testing.T) (*kvstore.Store, *gateBackend) {
	t.Helper()
	be := &gateBackend{Backend: memory.New()}
	t.Cleanup(be.open)
	kv, err := kvstore.Open(context.Background(), kvstore.Config{Nodes: 1, NewBackend: func(int) (engine.Backend, error) { return be, nil }})
	if err != nil {
		t.Fatal(err)
	}
	return kv, be
}

// hold arms b to hold the calls of ops on table.
func (b *gateBackend) hold(table string, ops ...string) *gate {
	g := &gate{table: table, ops: ops, entered: make(chan struct{}, 16), release: make(chan struct{})}
	b.gate.Store(g)
	return g
}

// open disarms b and lets every held call through.
func (b *gateBackend) open() {
	if g := b.gate.Swap(nil); g != nil {
		close(g.release)
	}
}

// reached waits for a call to enter g.
func (g *gate) reached(t *testing.T, what string) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never reached the held call", what)
	}
}

func (b *gateBackend) wait(ctx context.Context, op, table string) error {
	g := b.gate.Load()
	if g == nil || g.table != table || !slices.Contains(g.ops, op) {
		return nil
	}
	select {
	case g.entered <- struct{}{}:
	default:
	}
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *gateBackend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	if err := b.wait(ctx, "get", table); err != nil {
		return nil, false, err
	}
	return b.Backend.Get(ctx, table, key)
}

// MultiGet reads a batch through Get, so a "get" gate holds it too.
func (b *gateBackend) MultiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	return engine.GetEach(ctx, b, table, keys)
}

func (b *gateBackend) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	if err := b.wait(ctx, "scan", table); err != nil {
		return err
	}
	return b.Backend.Scan(ctx, table, fn)
}

func (b *gateBackend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	if err := b.wait(ctx, "batchput", table); err != nil {
		return err
	}
	return b.Backend.BatchPut(ctx, table, entries)
}

// besideQueries are the queries a plan answers from memory, of version 1 of a
// besideReaderStore: GetVersion, GetRange, GetRecord of each key of recs (the
// version's records) and GetHistory of four keys.
func besideQueries(ctx context.Context, recs []types.Record) map[string]func(st *Store) ([]types.Record, error) {
	return map[string]func(st *Store) ([]types.Record, error){
		"GetVersion": func(st *Store) ([]types.Record, error) {
			got, _, err := st.GetVersionAll(ctx, 1)
			return got, err
		},
		"GetRange": func(st *Store) ([]types.Record, error) {
			got, _, err := st.GetRangeAll(ctx, KeyRange("doc-03", "new-1"), 1)
			return got, err
		},
		"GetRecord": func(st *Store) ([]types.Record, error) {
			var out []types.Record
			for _, r := range recs {
				rec, _, err := st.GetRecord(ctx, r.CK.Key, 1)
				if err != nil {
					return nil, err
				}
				out = append(out, rec)
			}
			return out, nil
		},
		"GetHistory": func(st *Store) ([]types.Record, error) {
			var out []types.Record
			for _, k := range []types.Key{"doc-00", "doc-05", "doc-10", "new-0"} {
				hist, _, err := st.GetHistoryAll(ctx, k)
				if err != nil {
					return nil, err
				}
				out = append(out, hist...)
			}
			return out, nil
		},
	}
}

// TestBesideReaderPendingPlan: a query plans from memory alone, so no read of
// the write store can hold the store lock. Over a cluster that answers no such
// read, GetVersion, GetRange, GetRecord and GetHistory of the pending version
// answer byte-exact — as the same queries do once a twin store has placed it
// — and a commit beside them returns within a second. A pending record one
// caller mutates reads back unchanged for the next.
func TestBesideReaderPendingPlan(t *testing.T) {
	ctx := context.Background()
	st, be := openGated(t)
	twin, _ := besideReaderStore(t, 0)
	if err := twin.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	held, _, err := twin.GetVersionAll(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := besideQueries(ctx, held)
	want := map[string][]types.Record{}
	for what, query := range queries {
		if want[what], err = query(twin); err != nil {
			t.Fatalf("%s of the placed twin: %v", what, err)
		}
	}

	be.hold(TableDeltaStore, "get", "scan")
	type answer struct {
		what string
		recs []types.Record
		err  error
	}
	answers := make(chan answer, len(queries))
	for what, query := range queries {
		go func() {
			recs, err := query(st)
			answers <- answer{what, recs, err}
		}()
	}
	within(t, "a commit beside reads of the write store", func() error {
		_, err := st.Commit(ctx, 1, Change{Puts: map[types.Key][]byte{"doc-19": []byte("v2")}})
		return err
	})
	for range queries {
		select {
		case a := <-answers:
			if a.err != nil {
				t.Fatalf("%s of the pending version: %v", a.what, a.err)
			}
			sameRecords(t, a.what+" of the pending version", a.recs, want[a.what])
		case <-time.After(time.Second):
			t.Fatal("a query of the pending version waited more than a second")
		}
	}

	rec, _, err := st.GetRecord(ctx, "new-0", 1)
	if err != nil {
		t.Fatal(err)
	}
	copy(rec.Value, "XX")
	if again, _, err := st.GetRecord(ctx, "new-0", 1); err != nil || string(again.Value) != "n0" {
		t.Fatalf("new-0 after one caller rewrote its copy: %q, %v", again.Value, err)
	}
}
