// Conformance suite: every engine.Backend implementation must pass these
// semantics — put/get/delete/batch/scan behavior, overwrite accounting,
// value isolation, table isolation, and concurrent access. New backends
// (pebble, tiered, remote) get their correctness contract by adding a row
// to backends().
package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
)

// backendRow is one implementation under test. open returns a backend over
// dir (volatile rows ignore it) whose Close releases everything the row
// started; on a durable row, opening the same dir again after Close must
// find what was written.
type backendRow struct {
	durable bool
	open    func(t *testing.T, dir string) engine.Backend
}

// backends enumerates every implementation under test.
func backends() map[string]backendRow {
	// LSM with a memtable small enough that the suite constantly flushes,
	// so reads cross the memtable/SSTable boundary and the size-tiered
	// compactor fires mid-test.
	openLSM := func(t *testing.T, dir string) engine.Backend {
		b, err := lsm.Open(dir, lsm.Options{MemtableBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return map[string]backendRow{
		"memory": {open: func(*testing.T, string) engine.Backend { return memory.New() }},
		"lsm":    {durable: true, open: openLSM},
		// LSM with Compact after every mutation — a flush, and a wait for
		// the worker's pass to settle: flushes, tier merges, MANIFEST
		// commits and victim unlinks race the whole suite.
		"lsm-compacting": {durable: true, open: func(t *testing.T, dir string) engine.Backend {
			return compactingBackend{openLSM(t, dir)}
		}},
		// The wire client against an engined server over real TCP: the
		// remote seam must be indistinguishable from a local backend.
		"remote": {open: func(t *testing.T, _ string) engine.Backend {
			return serve(t, memory.New())
		}},
		// The same wire seam over the lsm engine: durable across a daemon
		// restart, and CompactionStats and the hash-range seam answered by
		// an engine that has them.
		"remote-lsm": {durable: true, open: func(t *testing.T, dir string) engine.Backend {
			return serve(t, openLSM(t, dir))
		}},
	}
}

// served is a wire client whose Close also stops the daemon it dialed and
// the engine behind it, so a durable row's directory can be opened again.
type served struct {
	*remote.Client
	srv *engined.Server
	be  engine.Backend
}

// serve starts an engined daemon over be on a loopback port and dials it.
func serve(t *testing.T, be engine.Backend) served {
	t.Helper()
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	c, err := remote.Dial(srv.Addr().String(), remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return served{c, srv, be}
}

func (s served) Close() error {
	err := s.Client.Close()
	s.srv.Close()
	if cerr := s.be.Close(); err == nil {
		err = cerr
	}
	return err
}

// compactingBackend wraps any compacting backend so every successful
// mutation is followed by a Compact: on lsm, a flush and a settled pass of
// its worker. A backend flushed and settled after every write must be
// semantically indistinguishable from a quiescent one.
type compactingBackend struct {
	engine.Backend
}

func (c compactingBackend) compact(ctx context.Context) error {
	_, err := c.Backend.(engine.Compactor).Compact(ctx)
	return err
}

func (c compactingBackend) Put(ctx context.Context, table, key string, value []byte) error {
	if err := c.Backend.Put(ctx, table, key, value); err != nil {
		return err
	}
	return c.compact(ctx)
}

func (c compactingBackend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	if err := c.Backend.BatchPut(ctx, table, entries); err != nil {
		return err
	}
	return c.compact(ctx)
}

func (c compactingBackend) Delete(ctx context.Context, table, key string) error {
	if err := c.Backend.Delete(ctx, table, key); err != nil {
		return err
	}
	return c.compact(ctx)
}

// forEachBackend runs fn against every backend implementation.
func forEachBackend(t *testing.T, fn func(t *testing.T, b engine.Backend)) {
	for name, row := range backends() {
		t.Run(name, func(t *testing.T) {
			b := row.open(t, t.TempDir())
			defer b.Close()
			fn(t, b)
		})
	}
}

func mustGet(t *testing.T, b engine.Backend, table, key string) []byte {
	t.Helper()
	v, ok, err := b.Get(context.Background(), table, key)
	if err != nil {
		t.Fatalf("Get(%s,%s): %v", table, key, err)
	}
	if !ok {
		t.Fatalf("Get(%s,%s): missing", table, key)
	}
	return v
}

func mustMissing(t *testing.T, b engine.Backend, table, key string) {
	t.Helper()
	if _, ok, err := b.Get(context.Background(), table, key); err != nil || ok {
		t.Fatalf("Get(%s,%s) = present, err=%v; want missing", table, key, err)
	}
}

func TestConformancePutGetOverwrite(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		if err := b.Put(context.Background(), "t", "k1", []byte("hello")); err != nil {
			t.Fatal(err)
		}
		if got := mustGet(t, b, "t", "k1"); string(got) != "hello" {
			t.Fatalf("got %q", got)
		}
		if n := b.BytesStored(); n != 5 {
			t.Fatalf("BytesStored = %d, want 5", n)
		}
		// Overwrite replaces the accounting, not adds to it.
		if err := b.Put(context.Background(), "t", "k1", []byte("hi")); err != nil {
			t.Fatal(err)
		}
		if got := mustGet(t, b, "t", "k1"); string(got) != "hi" {
			t.Fatalf("after overwrite: %q", got)
		}
		if n := b.BytesStored(); n != 2 {
			t.Fatalf("BytesStored after overwrite = %d, want 2", n)
		}
		mustMissing(t, b, "t", "nope")
		// Empty values are legal and distinct from missing.
		if err := b.Put(context.Background(), "t", "empty", nil); err != nil {
			t.Fatal(err)
		}
		if v := mustGet(t, b, "t", "empty"); len(v) != 0 {
			t.Fatalf("empty value = %q", v)
		}
	})
}

func TestConformanceDelete(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		if err := b.Put(context.Background(), "t", "k", []byte("vvvv")); err != nil {
			t.Fatal(err)
		}
		if err := b.Delete(context.Background(), "t", "k"); err != nil {
			t.Fatal(err)
		}
		mustMissing(t, b, "t", "k")
		if n := b.BytesStored(); n != 0 {
			t.Fatalf("BytesStored after delete = %d", n)
		}
		// Deleting a missing key is a no-op, repeatedly.
		if err := b.Delete(context.Background(), "t", "k"); err != nil {
			t.Fatal(err)
		}
		if err := b.Delete(context.Background(), "other", "never-existed"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceBatchPut(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		var entries []engine.Entry
		for i := 0; i < 50; i++ {
			entries = append(entries, engine.Entry{
				Key:   fmt.Sprintf("k%02d", i),
				Value: []byte(fmt.Sprintf("value-%02d", i)),
			})
		}
		// A duplicate key inside one batch: the later entry wins.
		entries = append(entries, engine.Entry{Key: "k00", Value: []byte("winner")})
		if err := b.BatchPut(context.Background(), "t", entries); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 50; i++ {
			want := fmt.Sprintf("value-%02d", i)
			if got := mustGet(t, b, "t", fmt.Sprintf("k%02d", i)); string(got) != want {
				t.Fatalf("k%02d = %q, want %q", i, got, want)
			}
		}
		if got := mustGet(t, b, "t", "k00"); string(got) != "winner" {
			t.Fatalf("k00 = %q, want winner (last entry wins)", got)
		}
		// Empty batch is a no-op.
		if err := b.BatchPut(context.Background(), "t", nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceScan(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		want := map[string]string{}
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("k%02d", i)
			want[k] = "v" + k
			if err := b.Put(context.Background(), "t", k, []byte("v"+k)); err != nil {
				t.Fatal(err)
			}
		}
		got := map[string]int{}
		if err := b.Scan(context.Background(), "t", func(k string, v []byte) bool {
			got[k]++
			if string(v) != want[k] {
				t.Fatalf("scan %s = %q, want %q", k, v, want[k])
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("scanned %d keys, want %d", len(got), len(want))
		}
		for k, n := range got {
			if n != 1 {
				t.Fatalf("key %s visited %d times", k, n)
			}
		}
		// Early stop.
		count := 0
		if err := b.Scan(context.Background(), "t", func(string, []byte) bool { count++; return count < 5 }); err != nil {
			t.Fatal(err)
		}
		if count != 5 {
			t.Fatalf("early stop visited %d", count)
		}
		// Scanning an absent table visits nothing.
		if err := b.Scan(context.Background(), "absent", func(string, []byte) bool {
			t.Fatal("visited a key of an absent table")
			return false
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceTableIsolation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		if err := b.Put(context.Background(), "t1", "k", []byte("one")); err != nil {
			t.Fatal(err)
		}
		if err := b.Put(context.Background(), "t2", "k", []byte("two")); err != nil {
			t.Fatal(err)
		}
		if got := mustGet(t, b, "t1", "k"); string(got) != "one" {
			t.Fatalf("t1/k = %q", got)
		}
		if got := mustGet(t, b, "t2", "k"); string(got) != "two" {
			t.Fatalf("t2/k = %q", got)
		}
		if err := b.Delete(context.Background(), "t1", "k"); err != nil {
			t.Fatal(err)
		}
		mustMissing(t, b, "t1", "k")
		if got := mustGet(t, b, "t2", "k"); string(got) != "two" {
			t.Fatalf("t2/k after deleting t1/k = %q", got)
		}
		tables, err := b.Tables(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != 1 || tables[0] != "t2" {
			t.Fatalf("Tables = %v, want [t2]", tables)
		}
	})
}

func TestConformanceValueIsolation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		v := []byte("mutable")
		if err := b.Put(context.Background(), "t", "k", v); err != nil {
			t.Fatal(err)
		}
		v[0] = 'X' // caller mutates after put
		if got := mustGet(t, b, "t", "k"); string(got) != "mutable" {
			t.Fatal("put did not defend against caller mutation")
		}
		got := mustGet(t, b, "t", "k")
		got[0] = 'Y' // caller mutates the response
		if again := mustGet(t, b, "t", "k"); string(again) != "mutable" {
			t.Fatal("get returned aliased storage")
		}
		// Same for the batch path.
		bv := []byte("batched")
		if err := b.BatchPut(context.Background(), "t", []engine.Entry{{Key: "bk", Value: bv}}); err != nil {
			t.Fatal(err)
		}
		bv[0] = 'Z'
		if got := mustGet(t, b, "t", "bk"); string(got) != "batched" {
			t.Fatal("batch put did not defend against caller mutation")
		}
	})
}

func TestConformanceMultiGet(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		mg, ok := b.(engine.MultiGetter)
		if !ok {
			// Optional interface; the remote rows exercise it (and with it
			// the OpMultiGet wire op over real TCP).
			t.Skip("backend does not implement engine.MultiGetter")
		}
		ctx := context.Background()
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("k%02d", i)
			if err := b.Put(ctx, "t", k, []byte("v"+k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Put(ctx, "t", "empty", nil); err != nil {
			t.Fatal(err)
		}

		// Present, absent, duplicate, and empty-valued keys in one batch;
		// results must come back in request order with count preserved.
		keys := []string{"k03", "nope", "k17", "k03", "empty", "also-missing"}
		values, present, err := mg.MultiGet(ctx, "t", keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(values) != len(keys) || len(present) != len(keys) {
			t.Fatalf("got %d values, %d flags; want %d each", len(values), len(present), len(keys))
		}
		wantPresent := []bool{true, false, true, true, true, false}
		wantValue := []string{"vk03", "", "vk17", "vk03", "", ""}
		for i := range keys {
			if present[i] != wantPresent[i] || string(values[i]) != wantValue[i] {
				t.Fatalf("result %d (%s) = %q present=%v, want %q present=%v",
					i, keys[i], values[i], present[i], wantValue[i], wantPresent[i])
			}
		}
		// Absent keys yield nil values (empty values are present but empty).
		if values[1] != nil || values[5] != nil {
			t.Fatalf("absent keys returned non-nil values: %q %q", values[1], values[5])
		}

		// Batches against an absent table: every key absent, none an error.
		values, present, err = mg.MultiGet(ctx, "absent", []string{"a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		for i := range present {
			if present[i] || values[i] != nil {
				t.Fatalf("absent table result %d = %q present=%v", i, values[i], present[i])
			}
		}

		// Empty batch is a no-op.
		if values, present, err = mg.MultiGet(ctx, "t", nil); err != nil || len(values) != 0 || len(present) != 0 {
			t.Fatalf("empty batch: %v %v %v", values, present, err)
		}

		// Returned values must not alias backend state.
		values, _, err = mg.MultiGet(ctx, "t", []string{"k05"})
		if err != nil {
			t.Fatal(err)
		}
		values[0][0] = 'X'
		if got := mustGet(t, b, "t", "k05"); string(got) != "vk05" {
			t.Fatal("MultiGet returned aliased storage")
		}
	})
}

// TestConformanceChunkShapedValues drives the traffic the engines actually
// see: the only values on RStore's query path are ~1 MiB chunk entries, so
// every backend must carry values of 1 MiB and of 3 MiB (larger than one
// 2 MiB shard of lsm's default block cache, and a sstable block of their
// own) through Put and BatchPut, across a compaction where the backend has
// one, and — on durable rows — across a reopen, byte for byte through Get,
// MultiGet and Scan.
func TestConformanceChunkShapedValues(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(16))
	blob := func(n int) []byte {
		v := make([]byte, n)
		rng.Read(v)
		return v
	}
	want := map[string][]byte{
		"put-1m": blob(1 << 20), "put-3m": blob(3 << 20),
		"batch-1m": blob(1 << 20), "batch-3m": blob(3 << 20),
	}
	verify := func(t *testing.T, b engine.Backend) {
		t.Helper()
		keys := []string{"batch-3m", "absent", "put-1m", "put-3m", "batch-1m"}
		for _, k := range keys {
			v, ok, err := b.Get(ctx, "chunks", k)
			if err != nil || ok != (want[k] != nil) || !bytes.Equal(v, want[k]) {
				t.Fatalf("Get(%s): %d bytes ok=%v err=%v, want %d bytes", k, len(v), ok, err, len(want[k]))
			}
		}
		values, present, err := engine.MultiGet(ctx, b, "chunks", keys)
		if err != nil || len(values) != len(keys) || len(present) != len(keys) {
			t.Fatalf("MultiGet: %d values, %d flags, err=%v", len(values), len(present), err)
		}
		for i, k := range keys {
			if present[i] != (want[k] != nil) || !bytes.Equal(values[i], want[k]) {
				t.Fatalf("MultiGet[%d] (%s): %d bytes present=%v, want %d bytes", i, k, len(values[i]), present[i], len(want[k]))
			}
		}
		seen := 0
		if err := b.Scan(ctx, "chunks", func(k string, v []byte) bool {
			if want[k] == nil || !bytes.Equal(v, want[k]) {
				t.Fatalf("Scan visited %s with %d bytes, want %d bytes", k, len(v), len(want[k]))
			}
			seen++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if seen != len(want) {
			t.Fatalf("Scan visited %d keys, want %d", seen, len(want))
		}
		if n := b.BytesStored(); n != 8<<20 {
			t.Fatalf("BytesStored = %d, want %d", n, 8<<20)
		}
	}
	for name, row := range backends() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			b := row.open(t, dir)
			defer func() { b.Close() }()
			for _, k := range []string{"put-1m", "put-3m"} {
				if err := b.Put(ctx, "chunks", k, want[k]); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.BatchPut(ctx, "chunks", []engine.Entry{
				{Key: "batch-1m", Value: want["batch-1m"]},
				{Key: "batch-3m", Value: want["batch-3m"]},
			}); err != nil {
				t.Fatal(err)
			}
			verify(t, b)
			// On lsm Compact flushes the memtable, so the second round of
			// reads is served from sstable blocks. No client asks a daemon
			// to: a remote row compacts the engine behind it.
			var merged engine.Backend = b
			if s, ok := b.(served); ok {
				merged = s.be
			}
			if c, ok := merged.(engine.Compactor); ok {
				if _, err := c.Compact(ctx); err != nil {
					t.Fatal(err)
				}
			}
			verify(t, b)
			verify(t, b) // again, from whatever the first pass left cached
			if !row.durable {
				return
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b = row.open(t, dir)
			verify(t, b)
		})
	}
}

func TestConformanceConcurrentAccess(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					k := fmt.Sprintf("w%d-k%d", w, i)
					if err := b.Put(context.Background(), "t", k, []byte(k)); err != nil {
						t.Error(err)
						return
					}
					v, ok, err := b.Get(context.Background(), "t", k)
					if err != nil || !ok || string(v) != k {
						t.Errorf("%s: %q %v %v", k, v, ok, err)
						return
					}
					if i%10 == 0 {
						if err := b.Scan(context.Background(), "t", func(string, []byte) bool { return false }); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if n := b.BytesStored(); n <= 0 {
			t.Fatalf("BytesStored = %d after concurrent writes", n)
		}
	})
}

func TestConformanceClosedOperationsFail(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		if err := b.Put(context.Background(), "t", "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Put(context.Background(), "t", "k2", []byte("v")); err == nil {
			t.Fatal("Put after Close succeeded")
		}
		if _, _, err := b.Get(context.Background(), "t", "k"); err == nil {
			t.Fatal("Get after Close succeeded")
		}
		if err := b.Delete(context.Background(), "t", "k"); err == nil {
			t.Fatal("Delete after Close succeeded")
		}
		if err := b.BatchPut(context.Background(), "t", []engine.Entry{{Key: "x", Value: nil}}); err == nil {
			t.Fatal("BatchPut after Close succeeded")
		}
		if err := b.Scan(context.Background(), "t", func(string, []byte) bool { return true }); err == nil {
			t.Fatal("Scan after Close succeeded")
		}
		if _, err := b.Tables(context.Background()); err == nil {
			t.Fatal("Tables after Close succeeded")
		}
	})
}

// TestConformanceHashRange pins the anti-entropy hash seam: every backend
// that implements engine.HashRanger must produce the same digests for the
// same logical content — the whole point of the tree is that two replicas
// built through different engines (or different write orders) agree byte
// for byte. The remote rows exercise OpHashTree/OpHashRange over real TCP.
func TestConformanceHashRange(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		hr, ok := b.(engine.HashRanger)
		if !ok {
			// Optional interface; all built-in backends implement it.
			t.Skip("backend does not implement engine.HashRanger")
		}
		ctx := context.Background()
		const fanout = 8

		// An absent table digests to the canonical empty tree.
		empty, err := hr.HashTree(ctx, "absent", fanout)
		if err != nil {
			t.Fatal(err)
		}
		if len(empty.Leaves) != fanout {
			t.Fatalf("empty tree has %d leaves, want %d", len(empty.Leaves), fanout)
		}
		for i, l := range empty.Leaves {
			if l.Hash != 0 || l.Keys != 0 {
				t.Fatalf("empty tree leaf %d = %+v", i, l)
			}
		}
		for bkt := 0; bkt < fanout; bkt++ {
			khs, err := hr.HashRange(ctx, "absent", fanout, bkt)
			if err != nil {
				t.Fatal(err)
			}
			if len(khs) != 0 {
				t.Fatalf("empty table bucket %d lists %d keys", bkt, len(khs))
			}
		}

		// A single key lands in exactly its BucketOf bucket with its
		// EntryHash, and the root departs from the empty tree's.
		if err := b.Put(ctx, "h", "solo", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		one, err := hr.HashTree(ctx, "h", fanout)
		if err != nil {
			t.Fatal(err)
		}
		if one.Root == empty.Root {
			t.Fatal("single-key tree has the empty root")
		}
		want := engine.BucketOf("solo", fanout)
		for i, l := range one.Leaves {
			switch {
			case i == want && (l.Keys != 1 || l.Hash != engine.EntryHash("solo", []byte("payload"))):
				t.Fatalf("bucket %d = %+v, want the solo entry", i, l)
			case i != want && (l.Keys != 0 || l.Hash != 0):
				t.Fatalf("bucket %d = %+v, want empty", i, l)
			}
		}
		khs, err := hr.HashRange(ctx, "h", fanout, want)
		if err != nil {
			t.Fatal(err)
		}
		if len(khs) != 1 || khs[0].Key != "solo" || khs[0].Hash != engine.EntryHash("solo", []byte("payload")) {
			t.Fatalf("bucket %d = %+v", want, khs)
		}

		// Boundary keys: empty key, empty value, binary bytes, and enough
		// keys that every bucket is hit. Buckets must partition the key
		// set exactly, each listed ascending.
		content := map[string][]byte{"": []byte("empty-key"), "ev": nil, "b\x00\xff": []byte{0, 255}}
		for i := 0; i < 64; i++ {
			content[fmt.Sprintf("k%02d", i)] = []byte(fmt.Sprintf("v%02d", i)) // covers all 8 buckets w.h.p.
		}
		for k, v := range content {
			if err := b.Put(ctx, "h2", k, v); err != nil {
				t.Fatal(err)
			}
		}
		d, err := hr.HashTree(ctx, "h2", fanout)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		var totalKeys uint64
		for bkt := 0; bkt < fanout; bkt++ {
			khs, err := hr.HashRange(ctx, "h2", fanout, bkt)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(khs)) != d.Leaves[bkt].Keys {
				t.Fatalf("bucket %d lists %d keys, digest says %d", bkt, len(khs), d.Leaves[bkt].Keys)
			}
			var xor uint64
			for i, kh := range khs {
				if i > 0 && !(khs[i-1].Key < kh.Key) {
					t.Fatalf("bucket %d not ascending at %d: %q >= %q", bkt, i, khs[i-1].Key, kh.Key)
				}
				if engine.BucketOf(kh.Key, fanout) != bkt {
					t.Fatalf("key %q listed in bucket %d, hashes to %d", kh.Key, bkt, engine.BucketOf(kh.Key, fanout))
				}
				v, ok := content[kh.Key]
				if !ok {
					t.Fatalf("bucket %d lists unknown key %q", bkt, kh.Key)
				}
				if kh.Hash != engine.EntryHash(kh.Key, v) {
					t.Fatalf("key %q entry hash mismatch", kh.Key)
				}
				seen[kh.Key] = true
				xor ^= kh.Hash
			}
			if xor != d.Leaves[bkt].Hash {
				t.Fatalf("bucket %d leaf hash is not the XOR of its entries", bkt)
			}
			totalKeys += d.Leaves[bkt].Keys
		}
		if len(seen) != len(content) || totalKeys != uint64(len(content)) {
			t.Fatalf("buckets cover %d keys (%d counted), table holds %d", len(seen), totalKeys, len(content))
		}

		// Mutations move the digest; reverting them restores it exactly
		// (delete → re-hash must not leave tombstone residue in the tree).
		before := d.Root
		if err := b.Put(ctx, "h2", "k00", []byte("changed")); err != nil {
			t.Fatal(err)
		}
		changed, err := hr.HashTree(ctx, "h2", fanout)
		if err != nil {
			t.Fatal(err)
		}
		if changed.Root == before {
			t.Fatal("overwrite did not move the root")
		}
		if err := b.Delete(ctx, "h2", "k00"); err != nil {
			t.Fatal(err)
		}
		deleted, err := hr.HashTree(ctx, "h2", fanout)
		if err != nil {
			t.Fatal(err)
		}
		if deleted.Root == changed.Root {
			t.Fatal("delete did not move the root")
		}
		if err := b.Put(ctx, "h2", "k00", content["k00"]); err != nil {
			t.Fatal(err)
		}
		restored, err := hr.HashTree(ctx, "h2", fanout)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Root != before {
			t.Fatal("restoring the original content did not restore the root")
		}

		// Bad parameters are rejected up front.
		if _, err := hr.HashTree(ctx, "h2", 0); err == nil {
			t.Fatal("fanout 0 accepted")
		}
		if _, err := hr.HashTree(ctx, "h2", engine.MaxHashFanout+1); err == nil {
			t.Fatal("fanout past the limit accepted")
		}
		if _, err := hr.HashRange(ctx, "h2", fanout, fanout); err == nil {
			t.Fatal("bucket == fanout accepted")
		}
		if _, err := hr.HashRange(ctx, "h2", fanout, -1); err == nil {
			t.Fatal("negative bucket accepted")
		}
	})
}
