package lsm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
)

// heldFlush opens a backend of an 8 KiB budget in dir whose first flush is
// held at stage (see setPause) until release is called; held is closed once
// it is.
func heldFlush(t *testing.T, dir, stage string) (b *Backend, held <-chan struct{}, release func()) {
	t.Helper()
	b = openT(t, dir, Options{MemtableBytes: 8 << 10})
	h, r := make(chan struct{}), make(chan struct{})
	release = sync.OnceFunc(func() { close(r) })
	t.Cleanup(release)
	var once sync.Once
	b.setPause(func(at string) {
		if at == stage {
			once.Do(func() {
				close(h)
				<-r
			})
		}
	})
	return b, h, release
}

// returnsWithin runs op and fails unless it returns nil within five seconds.
func returnsWithin(t *testing.T, what string, op func() error) {
	t.Helper()
	ret := make(chan error, 1)
	go func() { ret <- op() }()
	select {
	case err := <-ret:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited for the held flush", what)
	}
}

// TestWritesBesideHeldFlush holds the worker's flush of a frozen set at each
// of its stages. The write call whose swap froze it has returned; Get, Scan
// and HashTree read the frozen memtable's entries, and writes go on into the
// fresh one; the write whose swap is due next waits for the held flush, and
// returns once it is released. Everything then reads back as engine/memory's,
// before and after a reopen.
func TestWritesBesideHeldFlush(t *testing.T) {
	ctx := context.Background()
	value := []byte(strings.Repeat("v", 1000))
	for _, stage := range []string{"flushing", "flushed"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			b, held, release := heldFlush(t, dir, stage)
			defer func() { b.Close() }()
			model := memory.New()
			next := 0
			write := func(table string, n int) error {
				ents := tierBatch(next, n, value) // descending keys: the log, never an ingest
				next += n
				if err := model.BatchPut(ctx, table, ents); err != nil {
					return err
				}
				return b.BatchPut(ctx, table, ents)
			}
			returnsWithin(t, "the write whose swap froze the set", func() error { return write("t", 10) })
			select {
			case <-held:
			case <-time.After(10 * time.Second):
				t.Fatal("no flush started")
			}
			b.mu.RLock()
			frozen, tables := b.runs["t"].frozen != nil, len(b.runs["t"].tables)
			b.mu.RUnlock()
			if !frozen || tables != 0 {
				t.Fatalf("want the batch in a frozen memtable and no table yet: frozen %v, %d tables", frozen, tables)
			}
			returnsWithin(t, "a write to the fresh memtable", func() error { return write("t", 3) })
			returnsWithin(t, "a write to another table", func() error { return write("u", 2) })
			returnsWithin(t, "reads beside the held flush", func() error { return sameAsModel(ctx, b, model) })

			second := make(chan error, 1)
			go func() { second <- write("t", 10) }() // its swap is due while the set is unflushed
			select {
			case err := <-second:
				t.Fatalf("the second swap did not wait for the held flush (%v)", err)
			case <-time.After(200 * time.Millisecond):
			}
			release()
			if err := <-second; err != nil {
				t.Fatal(err)
			}
			checkRunInvariants(t, b)
			for _, when := range []string{"after the flushes", "after reopen"} {
				if err := sameAsModel(ctx, b, model); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				b = openT(t, dir, Options{MemtableBytes: 8 << 10})
			}
		})
	}
}

// TestCloseBesideHeldFlush closes a backend while the worker's flush is held
// at each of its stages: Close waits for the flush, and a reopen reads every
// write — the frozen memtable's and those after the swap — with no frozen
// log left behind.
func TestCloseBesideHeldFlush(t *testing.T) {
	ctx := context.Background()
	value := []byte(strings.Repeat("w", 1000))
	for _, stage := range []string{"flushing", "flushed"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			b, held, release := heldFlush(t, dir, stage)
			model := memory.New()
			for i, n := range []int{10, 3} { // the first swaps, the second lands in the fresh log
				ents := tierBatch(100*i, n, value)
				if err := b.BatchPut(ctx, "t", ents); err != nil {
					t.Fatal(err)
				}
				if err := model.BatchPut(ctx, "t", ents); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					<-held
				}
			}
			for _, k := range []string{"k0000-0000", "single"} {
				if err := b.Put(ctx, "t", k, []byte("put")); err != nil {
					t.Fatal(err)
				}
				if err := model.Put(ctx, "t", k, []byte("put")); err != nil {
					t.Fatal(err)
				}
			}
			closed := make(chan error, 1)
			go func() { closed <- b.Close() }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) beside the held flush", err)
			case <-time.After(200 * time.Millisecond):
			}
			release()
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			if logs := filesOnDisk(t, b, "wal-*.log"); len(logs) != 1 {
				t.Fatalf("closed with logs %v, want the fresh one alone", logs)
			}
			r := openT(t, dir, Options{MemtableBytes: 8 << 10})
			defer r.Close()
			if err := sameAsModel(ctx, r, model); err != nil {
				t.Fatal(err)
			}
			checkRunInvariants(t, r)
		})
	}
}

// TestReopenReplaysTwoLogs kills a backend while its flush is held, so that
// one table has a frozen log and a fresh one, both named by the MANIFEST an
// ingest committed meanwhile: the reopen replays both, in order, into a
// frozen memtable that its worker flushes, and the store reads as
// engine/memory's.
func TestReopenReplaysTwoLogs(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b, held, release := heldFlush(t, dir, "flushing")
	model := memory.New()
	value := []byte(strings.Repeat("x", 1000))
	put := func(key, v string) {
		t.Helper()
		for _, be := range []engine.Backend{b, model} {
			if err := be.Put(ctx, "t", key, []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ents := tierBatch(0, 10, value)
	for _, be := range []engine.Backend{b, model} {
		if err := be.BatchPut(ctx, "t", ents); err != nil {
			t.Fatal(err)
		}
	}
	<-held
	put(ents[0].Key, "overwritten after the swap") // shadows a frozen entry
	put("fresh", "after the swap")
	if err := b.Delete(ctx, "t", ents[1].Key); err != nil {
		t.Fatal(err)
	}
	if err := model.Delete(ctx, "t", ents[1].Key); err != nil {
		t.Fatal(err)
	}
	if err := b.BatchPut(ctx, "t", []engine.Entry{{Key: "synced", Value: []byte("s")}}); err != nil {
		t.Fatal(err)
	}
	if err := model.BatchPut(ctx, "t", []engine.Entry{{Key: "synced", Value: []byte("s")}}); err != nil {
		t.Fatal(err)
	}
	ingests := watchIngests(b) // the held flush keeps the hook it started with
	for _, be := range []engine.Backend{b, model} {
		if err := be.BatchPut(ctx, "u", sortedBatch("u", "ingested", 0, 1, 10)); err != nil {
			t.Fatal(err)
		}
	}
	m, _, err := readManifest(b.fs, dir)
	if err != nil || *ingests != 1 || len(m.wals) != 2 || m.wals[0].table != "t" || m.wals[1].table != "t" {
		t.Fatalf("the ingest's MANIFEST names logs %+v (err %v, %d ingests), want the frozen and the fresh log of t", m.wals, err, *ingests)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		release() // Kill waits for the worker
	}()
	b.Kill()
	if logs := filesOnDisk(t, b, "wal-*.log"); len(logs) != 2 {
		t.Fatalf("killed with logs %v, want the frozen one and the fresh one", logs)
	}
	r := openT(t, dir, Options{MemtableBytes: 8 << 10})
	defer r.Close()
	if err := sameAsModel(ctx, r, model); err != nil {
		t.Fatal(err)
	}
	if got, want := r.BytesStored(), model.BytesStored(); got != want {
		t.Fatalf("BytesStored = %d, engine/memory %d", got, want)
	}
	checkRunInvariants(t, r) // incl.: the reopen's frozen memtable was flushed, its log unlinked
	if files := runFiles(r, "t"); len(files) != 1 {
		t.Fatalf("want the frozen memtable flushed into one table, run is %v", files)
	}
}

// sameAsModel compares every table model holds, by Get, Scan and HashTree,
// with b.
func sameAsModel(ctx context.Context, b *Backend, model *memory.Backend) error {
	tables, err := model.Tables(ctx)
	if err != nil {
		return err
	}
	for _, table := range tables {
		got, want := map[string]string{}, map[string]string{}
		if err := b.Scan(ctx, table, func(k string, v []byte) bool { got[k] = string(v); return true }); err != nil {
			return err
		}
		if err := model.Scan(ctx, table, func(k string, v []byte) bool { want[k] = string(v); return true }); err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Scan(%s) reads %d keys, engine/memory %d", table, len(got), len(want))
		}
		for k, v := range want {
			if gv, ok, err := b.Get(ctx, table, k); err != nil || !ok || string(gv) != v {
				return fmt.Errorf("Get(%s, %s) = %.12q ok=%v err=%v, want %.12q", table, k, gv, ok, err, v)
			}
		}
		gd, err := b.HashTree(ctx, table, 16)
		if err != nil {
			return err
		}
		wd, err := model.HashTree(ctx, table, 16)
		if err != nil {
			return err
		}
		if gd.Root != wd.Root {
			return fmt.Errorf("HashTree(%s) root %x, engine/memory %x", table, gd.Root, wd.Root)
		}
	}
	return nil
}

// TestSettleHonoursContext holds the worker's pass at each stage of its
// flush and of the tier merge after it, and calls CompactionStats and
// Compact beside it under a context that ends after 50 ms: both wait for the
// worker, and both must return the context's error promptly instead. Once
// the pass is released, Compact settles it: the run is merged into one
// table, and the stats count the files on disk.
func TestSettleHonoursContext(t *testing.T) {
	value := []byte(strings.Repeat("v", 1000))
	for _, stage := range []string{"flushing", "flushed", "captured", "written"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			b := openT(t, dir, Options{MemtableBytes: 64 << 10, MaxTables: tierWidth})
			defer b.Close()
			next := 0
			batch := func(n int) error {
				ents := tierBatch(next, n, value)
				next += n
				return b.BatchPut(context.Background(), "t", ents)
			}
			for i := 0; i < tierWidth-1; i++ {
				if err := batch(40); err != nil {
					t.Fatal(err)
				}
				flushT(t, b)
			}
			held, r := make(chan struct{}), make(chan struct{})
			release := sync.OnceFunc(func() { close(r) })
			defer release() // before Close, which waits for the worker
			var once sync.Once
			b.setPause(func(at string) {
				if at == stage {
					once.Do(func() {
						close(held)
						<-r
					})
				}
			})
			if err := batch(70); err != nil { // its swap sets off the flush, and the flush a merge
				t.Fatal(err)
			}
			select {
			case <-held:
			case <-time.After(10 * time.Second):
				t.Fatalf("the pass never reached %q", stage)
			}

			calls := []struct {
				name string
				call func(ctx context.Context) error
			}{
				{"CompactionStats", func(ctx context.Context) error { _, err := b.CompactionStats(ctx); return err }},
				{"Compact", func(ctx context.Context) error { _, err := b.Compact(ctx); return err }},
			}
			for _, c := range calls {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				ret := make(chan error, 1)
				go func() { ret <- c.call(ctx) }()
				select {
				case err := <-ret:
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Fatalf("%s beside the held pass: %v, want its context's error", c.name, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s outlived its context beside the held pass", c.name)
				}
				cancel()
			}

			release()
			st, err := b.Compact(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if files := runFiles(b, "t"); len(files) != 1 {
				t.Fatalf("the released pass left the run as %v, want one table", files)
			}
			if disk := diskBytes(t, dir); st.DiskBytes != disk {
				t.Fatalf("Compact reports %d disk bytes, the files hold %d", st.DiskBytes, disk)
			}
			checkRunInvariants(t, b)
		})
	}
}
