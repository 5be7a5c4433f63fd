package lsm

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
)

// ingestOpts gives an 8 KiB memtable budget and a 1 KiB ingest threshold.
var ingestOpts = Options{MemtableBytes: 8 << 10, maxTables: tierWidth}

// sortedBatch is n entries of 1000-byte values under prefix+"%03d" keys,
// from, from+step, ..., in ascending order: at ten or more, more than the
// memtables have room for under ingestOpts, and ingested.
func sortedBatch(prefix, tag string, from, step, n int) []engine.Entry {
	ents := make([]engine.Entry, n)
	for i := range ents {
		k := fmt.Sprintf("%s%03d", prefix, from+i*step)
		ents[i] = engine.Entry{Key: k, Value: []byte(tag + "/" + k + strings.Repeat("v", 1000-len(tag)-1-len(k)))}
	}
	return ents
}

// watchIngests makes b count the ingests that start writing a table.
func watchIngests(b *Backend) *int {
	n := new(int)
	b.setPause(func(stage string) {
		if stage == "ingesting" {
			*n++
		}
	})
	return n
}

// logSize is the size of table's log, 0 without one.
func logSize(b *Backend, table string) int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if r := b.runs[table]; r != nil && r.log != nil {
		return r.log.size
	}
	return 0
}

// readAll scans every table b lists into one map of table/key → value.
func readAll(t *testing.T, b engine.Backend) map[string]string {
	t.Helper()
	ctx := context.Background()
	tables, err := b.Tables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, table := range tables {
		if err := b.Scan(ctx, table, func(k string, v []byte) bool { got[table+"/"+k] = string(v); return true }); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestIngestOnlyWhatQualifies: a batch of strictly ascending keys, at least
// the threshold's payload, more than the memtables have room for, and whose
// range no memtable key of its table falls in, is one new table and no log
// record; an unsorted batch, one with a duplicate key, one under the
// threshold, one the memtables have room for, one over a memtable value and
// one over a memtable tombstone each take the log. Every one reads back.
func TestIngestOnlyWhatQualifies(t *testing.T) {
	ctx := context.Background()
	descending := sortedBatch("k", "desc", 0, 1, 10)
	slices.Reverse(descending)
	duplicate := sortedBatch("k", "dup", 0, 1, 10)
	duplicate[5].Key = duplicate[4].Key
	for _, c := range []struct {
		name    string
		before  func(b *Backend) error
		batch   []engine.Entry
		ingests bool
	}{
		{name: "qualifies", batch: sortedBatch("k", "ok", 0, 1, 10), ingests: true},
		{name: "beside a memtable key", before: func(b *Backend) error { return b.Put(ctx, "t", "z", []byte("z")) },
			batch: sortedBatch("k", "beside", 0, 1, 10), ingests: true},
		{name: "unsorted", batch: descending},
		{name: "duplicate key", batch: duplicate},
		{name: "below the threshold", before: func(b *Backend) error { // the memtables have no room for it
			return b.BatchPut(ctx, "u", sortedBatch("u", "fill", 0, 1, 7))
		}, batch: sortedBatch("k", "small", 0, 1, 1)},
		{name: "room in the memtables", batch: sortedBatch("k", "room", 0, 1, 7)},
		{name: "over a memtable value", before: func(b *Backend) error { return b.Put(ctx, "t", "k005", []byte("put")) },
			batch: sortedBatch("k", "over", 0, 1, 10)},
		{name: "over a memtable tombstone", before: func(b *Backend) error {
			if err := b.BatchPut(ctx, "t", sortedBatch("k", "old", 100, 1, 10)); err != nil {
				return err
			}
			return b.Delete(ctx, "t", "k105")
		}, batch: sortedBatch("k", "tomb", 100, 1, 10)},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := openT(t, t.TempDir(), ingestOpts)
			defer b.Close()
			if c.before != nil {
				if err := c.before(b); err != nil {
					t.Fatal(err)
				}
			}
			ingests, tables, logged := watchIngests(b), len(runFiles(b, "t")), logSize(b, "t")
			if err := b.BatchPut(ctx, "t", c.batch); err != nil {
				t.Fatal(err)
			}
			if c.ingests != (*ingests == 1) {
				t.Fatalf("%d ingests; want ingested = %v", *ingests, c.ingests)
			}
			if grew, wrote := len(runFiles(b, "t"))-tables, logSize(b, "t")-logged; c.ingests && (grew != 1 || wrote != 0) {
				t.Fatalf("ingested: the run grew by %d tables and the log by %d bytes", grew, wrote)
			}
			checkRunInvariants(t, b)
			for i, e := range c.batch {
				if later := slices.IndexFunc(c.batch[i+1:], func(l engine.Entry) bool { return l.Key == e.Key }); later >= 0 {
					continue // a later entry for the same key wins
				}
				if v, ok := mustGet(t, b, "t", e.Key); !ok || v != string(e.Value) {
					t.Fatalf("%s = %.12q ok=%v, want %.12q", e.Key, v, ok, e.Value)
				}
			}
		})
	}
}

// TestIngestLosesRaceToWrite: a put that lands in the batch's range while
// the batch's table is being made durable wins the race — the memtable now
// holds a key the table would sit beneath — so the ingest drops its table
// and the batch takes the log, after the put.
func TestIngestLosesRaceToWrite(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openT(t, dir, ingestOpts)
	defer func() { b.Close() }()
	batch := sortedBatch("k", "batch", 0, 1, 10)
	var lost []string // the ingest's table, durable under its name
	b.setPause(func(stage string) {
		if stage != "ingested" || lost != nil {
			return
		}
		lost = sstOnDisk(t, dir)
		for _, k := range []string{"k005", "k005+"} {
			if err := b.Put(ctx, "t", k, []byte("racer")); err != nil {
				t.Error(err)
			}
		}
	})
	if err := b.BatchPut(ctx, "t", batch); err != nil {
		t.Fatal(err)
	}
	if len(lost) != 1 {
		t.Fatalf("the ingest left %v on disk", lost)
	}
	for _, when := range []string{"after the race", "after reopen"} {
		if v, _ := mustGet(t, b, "t", "k005"); v != string(batch[5].Value) {
			t.Fatalf("%s: k005 = %.12q, want the batch's", when, v)
		}
		if v, _ := mustGet(t, b, "t", "k005+"); v != "racer" {
			t.Fatalf("%s: k005+ = %q, want the put's", when, v)
		}
		if files := runFiles(b, "t"); slices.Contains(files, lost[0]) {
			t.Fatalf("%s: the losing table was mounted: %v", when, files)
		}
		checkRunInvariants(t, b) // incl.: no table file the run does not mount
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		b = openT(t, dir, ingestOpts)
	}
}

// TestIngestReopens: a run of a flushed table, an ingested table that kills
// it, an ingested table beside it, and a log of puts and deletes over them
// reopens — closed, or killed — to the same contents and the same
// BytesStored, which are engine/memory's.
func TestIngestReopens(t *testing.T) {
	ctx := context.Background()
	for _, how := range []string{"close", "kill"} {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			b := openT(t, dir, ingestOpts)
			defer func() { b.Close() }()
			model := memory.New()
			for _, be := range []engine.Backend{b, model} {
				for i := 1; i <= 5; i++ {
					if err := be.Put(ctx, "t", fmt.Sprintf("a%03d", i), []byte("put")); err != nil {
						t.Fatal(err)
					}
				}
				if be == b {
					flushT(t, b)
				}
				for _, batch := range [][]engine.Entry{sortedBatch("a", "over", 0, 1, 10), sortedBatch("b", "beside", 0, 1, 10)} {
					if err := be.BatchPut(ctx, "t", batch); err != nil {
						t.Fatal(err)
					}
				}
				if err := be.Put(ctx, "t", "a003", []byte("again")); err != nil {
					t.Fatal(err)
				}
				if err := be.Delete(ctx, "t", "b004"); err != nil {
					t.Fatal(err)
				}
				if err := be.Put(ctx, "u", "x", []byte("y")); err != nil {
					t.Fatal(err)
				}
			}
			if files := runFiles(b, "t"); len(files) != 2 {
				t.Fatalf("want the flushed table retired and two ingested ones, run is %v", files)
			}
			want, bytes := readAll(t, model), model.BytesStored()
			for _, when := range []string{"before", "after " + how + " and reopen"} {
				if got := readAll(t, b); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: reads %d keys, engine/memory %d", when, len(got), len(want))
				}
				if got := b.BytesStored(); got != bytes {
					t.Fatalf("%s: BytesStored = %d, engine/memory %d", when, got, bytes)
				}
				checkRunInvariants(t, b)
				if how == "kill" {
					b.Kill()
				} else if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				b = openT(t, dir, ingestOpts)
			}
		})
	}
}

// TestReadsBesideIngest: an ingest holds no lock while it writes its table,
// so a Get, a Scan and a Put to another table held beside it do not wait
// for it; and Gets and Scans racing a stream of ingests and puts (under
// -race) see every key with a value written for it, in key order.
func TestReadsBesideIngest(t *testing.T) {
	ctx := context.Background()
	b := openT(t, t.TempDir(), ingestOpts)
	defer b.Close()

	held, release := make(chan struct{}), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	b.setPause(func(stage string) {
		if stage == "ingesting" {
			close(held)
			<-release
		}
	})
	done := make(chan error, 1)
	go func() { done <- b.BatchPut(ctx, "t", sortedBatch("k", "held", 0, 1, 10)) }()
	<-held
	b.setPause(nil)
	within := func(what string, op func() error) {
		t.Helper()
		ret := make(chan error, 1)
		go func() { ret <- op() }()
		select {
		case err := <-ret:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waited for the ingest", what)
		}
	}
	within("Get beside the ingest", func() error {
		if _, ok, err := b.Get(ctx, "t", "k000"); err != nil || ok {
			return fmt.Errorf("k000 found %v before the ingest installed it (err %v)", ok, err)
		}
		return nil
	})
	within("Scan beside the ingest", func() error { return b.Scan(ctx, "t", func(string, []byte) bool { return true }) })
	within("Put to another table beside the ingest", func() error { return b.Put(ctx, "other", "x", []byte("y")) })
	unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// valid reports whether v is a value written for k.
	valid := func(k string, v []byte) bool {
		_, rest, ok := strings.Cut(string(v), "/")
		return ok && strings.HasPrefix(rest, k+"v")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%03d", i%200)
				if v, ok, err := b.Get(ctx, "t", k); err != nil || ok && !valid(k, v) {
					t.Errorf("get %s: %.20q ok=%v err=%v", k, v, ok, err)
					return
				}
				last := ""
				err := b.Scan(ctx, "t", func(k string, v []byte) bool {
					if k <= last || !valid(k, v) {
						t.Errorf("scan: %s after %s, %.20q", k, last, v)
						return false
					}
					last = k
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		// Fresh ranges, and ranges over earlier ones, interleaved with puts
		// that send some batches to the log.
		if err := b.BatchPut(ctx, "t", sortedBatch("k", fmt.Sprint("r", i), (i*7)%100, 1, 10)); err != nil {
			t.Fatal(err)
		}
		k := fmt.Sprintf("k%03d", (i*37)%200)
		if err := b.Put(ctx, "t", k, []byte("put/"+k+"v")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	checkRunInvariants(t, b)
}

// TestTierLeavesDisjointTablesAlone: tiering never rewrites a table whose
// key range meets no other table's, and merges the others over it. Four
// ingested tables of interleaved keys are peers; two tables of key ranges
// of their own sit between them in age order. The fourth peer starts a tier
// merge of the four, which steps over the two; they keep their files, the
// output takes the oldest peer's place, and ten more tables of ranges of
// their own start no merge at all.
func TestTierLeavesDisjointTablesAlone(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openT(t, dir, ingestOpts)
	defer func() { b.Close() }()
	model := memory.New()
	put := func(batch []engine.Entry) {
		t.Helper()
		for _, be := range []engine.Backend{b, model} {
			if err := be.BatchPut(ctx, "t", batch); err != nil {
				t.Fatal(err)
			}
		}
		settleT(t, b) // the tier loop the ingest set off
	}
	put(sortedBatch("k", "p", 0, 4, 10))
	put(sortedBatch("x", "alone", 0, 1, 10))
	put(sortedBatch("k", "p", 1, 4, 10))
	put(sortedBatch("y", "alone", 0, 1, 10))
	put(sortedBatch("k", "p", 2, 4, 10))
	before := runFiles(b, "t")
	if len(before) != 5 {
		t.Fatalf("three peers and two tables alone should not merge yet: run is %v", before)
	}
	put(sortedBatch("k", "p", 3, 4, 10))
	after := runFiles(b, "t")
	if len(after) != 3 || after[1] != before[1] || after[2] != before[3] || slices.Contains(before, after[0]) {
		t.Fatalf("run %v → %v, want the merge output first, then %s and %s", before, after, before[1], before[3])
	}
	b.mu.RLock()
	rewritten, merged := b.rewritten, b.runs["t"].tables[0].size
	b.mu.RUnlock()
	if rewritten != merged {
		t.Fatalf("merges wrote %d bytes, the one output is %d", rewritten, merged)
	}
	for i := 0; i < 10; i++ {
		put(sortedBatch(fmt.Sprint("z", i), "alone", 0, 1, 10))
	}
	if files := runFiles(b, "t"); len(files) != 13 || !reflect.DeepEqual(files[:3], after) {
		t.Fatalf("tables of ranges of their own were merged: run %v", files)
	}
	b.mu.RLock()
	rewritten = b.rewritten
	b.mu.RUnlock()
	if rewritten != merged {
		t.Fatalf("merges wrote %d bytes, want still %d", rewritten, merged)
	}
	want := readAll(t, model)
	for _, when := range []string{"after the merge", "after reopen"} {
		if got := readAll(t, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reads %d keys, engine/memory %d", when, len(got), len(want))
		}
		for key, v := range want {
			table, k, _ := strings.Cut(key, "/")
			if got, ok := mustGet(t, b, table, k); !ok || got != v {
				t.Fatalf("%s: Get %s = %.12q ok=%v", when, key, got, ok)
			}
		}
		checkRunInvariants(t, b)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		b = openT(t, dir, ingestOpts)
	}
}
