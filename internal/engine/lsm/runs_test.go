package lsm

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/types"
)

// flush freezes what the memtables hold and flushes it on its caller, with
// the frozen set an earlier swap left: everything written before the call
// is in SSTables when it returns. Unlike a write call's swap or a Compact, it
// sets off no tier loop.
func (b *Backend) flush() error {
	for {
		b.mu.Lock()
		var err error
		earlier := b.frozen // flushed first, and then the swap
		switch {
		case b.closed:
			err = types.ErrClosed
		case !earlier && b.buffered > 0:
			err = b.swapLocked()
		}
		b.mu.Unlock()
		if err == nil {
			err = b.flushFrozen()
		}
		if err != nil || !earlier {
			return err
		}
	}
}

// flushT forces the memtables out, as a full budget would, save that no
// tier loop follows.
func flushT(t *testing.T, b *Backend) {
	t.Helper()
	if err := b.flush(); err != nil {
		t.Fatal(err)
	}
}

// mergeRunT flushes, settles the worker and then merges table's whole run
// into one table, as no pass does unless the run is less than half live.
// Nothing beside it may kick the worker: with the worker idle, its merge is
// the only one.
func mergeRunT(t *testing.T, b *Backend, table string) {
	t.Helper()
	flushT(t, b)
	settleT(t, b)
	job, ok := b.captureMerge(table, func(tables []*sstable) []*sstable { return tables })
	if !ok {
		return
	}
	if err := b.merge(context.Background(), job); err != nil {
		t.Fatal(err)
	}
}

// settleT waits until the worker has done the flushes and merges the writes
// so far set off.
func settleT(t *testing.T, b *Backend) {
	t.Helper()
	if err := b.settle(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// runFiles lists the file names of table's run, oldest first.
func runFiles(b *Backend, table string) []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var names []string
	if r := b.runs[table]; r != nil {
		for _, t := range r.tables {
			names = append(names, filepath.Base(t.path))
		}
	}
	return names
}

// sstOnDisk lists the sst-*.sst files under dir.
func sstOnDisk(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = filepath.Base(p)
	}
	sort.Strings(names)
	return names
}

// filesOnDisk lists the files of b's directory, on b's file system, that
// match glob.
func filesOnDisk(t *testing.T, b *Backend, glob string) []string {
	t.Helper()
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		if ok, _ := filepath.Match(glob, name); ok {
			out = append(out, name)
		}
	}
	return out
}

func mustGet(t *testing.T, b engine.Backend, table, key string) (string, bool) {
	t.Helper()
	v, ok, err := b.Get(context.Background(), table, key)
	if err != nil {
		t.Fatalf("Get(%s, %s): %v", table, key, err)
	}
	return string(v), ok
}

// checkRunInvariants recounts, once the worker has settled, from the files
// and the memtables, what the engine keeps incrementally: each SSTable's
// liveEntries is the number of its value entries nothing newer shadows, no
// run starts with a dead table (retirement ran), a run's logLive is what its
// memtable entries take as log records, a run with memtable entries has a
// log of its own, no frozen memtable is left, the swap trigger's byte count
// is the sum of the memtables', and the directory holds exactly the mounted
// files and the open logs.
func checkRunInvariants(t *testing.T, b *Backend) {
	t.Helper()
	settleT(t, b)
	b.mu.RLock()
	defer b.mu.RUnlock()
	var mounted, logs []string
	var buffered int64
	for name, r := range b.runs {
		var logLive int64
		for it := r.mem.iter(); it.valid(); it.next() {
			logLive += logRecordLen(name, len(it.key()), len(it.value()))
		}
		if logLive != r.logLive || logLive > 0 && r.log == nil {
			t.Fatalf("run %q: logLive = %d, recount %d, log %v", name, r.logLive, logLive, r.log != nil)
		}
		if r.frozen != nil {
			t.Fatalf("run %q: a frozen memtable outlived the worker's pass", name)
		}
		buffered += r.mem.bytes
		if r.log != nil {
			logs = append(logs, filepath.Base(r.log.path))
		}
		for _, st := range r.tables {
			mounted = append(mounted, filepath.Base(st.path))
		}
		sources, err := r.sources(b.cache)
		if err != nil {
			t.Fatal(err)
		}
		liveEntries := make([]int64, len(r.tables))
		keys := 0
		err = mergeSources(sources, func(_, _ []byte, tomb bool, src int) error {
			if !tomb {
				keys++
				if src < len(r.tables) {
					liveEntries[src]++
				}
			}
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if keys != r.keys {
			t.Fatalf("run %q: keys = %d, recount %d", name, r.keys, keys)
		}
		for i, st := range r.tables {
			if st.liveEntries != liveEntries[i] {
				t.Fatalf("run %q table %d: liveEntries = %d, recount %d", name, i, st.liveEntries, liveEntries[i])
			}
		}
		if len(r.tables) > 0 && r.tables[0].liveEntries == 0 {
			t.Fatalf("run %q starts with a dead table: retirement did not run", name)
		}
	}
	if buffered != b.buffered || b.frozen {
		t.Fatalf("memtable bytes = %d, sum over the runs %d; frozen set %v", b.buffered, buffered, b.frozen)
	}
	sort.Strings(mounted)
	if onDisk := filesOnDisk(t, b, "sst-*.sst"); !reflect.DeepEqual(onDisk, mounted) && len(onDisk)+len(mounted) > 0 {
		t.Fatalf("directory holds %v, mounted %v", onDisk, mounted)
	}
	sort.Strings(logs)
	if onDisk := filesOnDisk(t, b, "wal-*.log"); !reflect.DeepEqual(onDisk, logs) && len(onDisk)+len(logs) > 0 {
		t.Fatalf("directory holds logs %v, open %v", onDisk, logs)
	}
}

// TestRunsModelCheck drives seeded random puts, overwrites, deletes,
// batches, reopens and Compacts over six user tables through a 1 KiB
// memtable — so every step flushes, tiers or retires something — and
// compares the whole observable state with engine/memory after every step.
func TestRunsModelCheck(t *testing.T) {
	ctx := context.Background()
	tables := []string{"a", "b", "c", "ab", "", "long-table-name"}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			opts := Options{MemtableBytes: 1 << 10, MaxTables: 6}
			b := openT(t, dir, opts)
			defer func() { b.Close() }()
			model := memory.New()
			key := func() string { return fmt.Sprintf("k%02d", rng.Intn(24)) }
			value := func() []byte { return []byte(strings.Repeat("v", 1+rng.Intn(200)) + fmt.Sprint(rng.Int())) }

			for step := 0; step < 400; step++ {
				// Tables differ in how they are used: the first two are
				// deleted from as often as they are written (churn), the
				// rest mostly written.
				ti := rng.Intn(len(tables))
				table := tables[ti]
				op := rng.Intn(100)
				delBelow := 10
				if ti < 2 {
					delBelow = 45
				}
				switch {
				case op < delBelow:
					k := key()
					if err := b.Delete(ctx, table, k); err != nil {
						t.Fatal(err)
					}
					if err := model.Delete(ctx, table, k); err != nil {
						t.Fatal(err)
					}
				case op < 80:
					k, v := key(), value()
					if err := b.Put(ctx, table, k, v); err != nil {
						t.Fatal(err)
					}
					if err := model.Put(ctx, table, k, v); err != nil {
						t.Fatal(err)
					}
				case op < 94:
					ents := make([]engine.Entry, 1+rng.Intn(6))
					for i := range ents {
						ents[i] = engine.Entry{Key: key(), Value: value()}
					}
					if err := b.BatchPut(ctx, table, ents); err != nil {
						t.Fatal(err)
					}
					if err := model.BatchPut(ctx, table, ents); err != nil {
						t.Fatal(err)
					}
				case op < 97:
					if _, err := b.Compact(ctx); err != nil {
						t.Fatal(err)
					}
				default:
					if rng.Intn(2) == 0 {
						b.Kill() // acknowledged or not, every write reached the WAL file
					} else if err := b.Close(); err != nil {
						t.Fatal(err)
					}
					b = openT(t, dir, opts)
				}

				checkRunInvariants(t, b)
				if got, want := b.BytesStored(), model.BytesStored(); got != want {
					t.Fatalf("step %d: BytesStored = %d, model %d", step, got, want)
				}
				gotTables, err := b.Tables(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wantTables, _ := model.Tables(ctx) // the model promises no order
				sort.Strings(wantTables)
				if !reflect.DeepEqual(gotTables, wantTables) {
					t.Fatalf("step %d: Tables = %q, model %q", step, gotTables, wantTables)
				}
				for _, table := range tables {
					var got, want []string
					collect := func(into *[]string) func(string, []byte) bool {
						return func(k string, v []byte) bool { *into = append(*into, k+"="+string(v)); return true }
					}
					if err := b.Scan(ctx, table, collect(&got)); err != nil {
						t.Fatal(err)
					}
					if err := model.Scan(ctx, table, collect(&want)); err != nil {
						t.Fatal(err)
					}
					if !sort.StringsAreSorted(got) {
						t.Fatalf("step %d: Scan(%q) out of key order: %q", step, table, got)
					}
					sort.Strings(want) // the model promises no order
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: Scan(%q) = %q, model %q", step, table, got, want)
					}
					for i := 0; i < 24; i++ {
						k := fmt.Sprintf("k%02d", i)
						gv, gok := mustGet(t, b, table, k)
						wv, wok := mustGet(t, model, table, k)
						if gv != wv || gok != wok {
							t.Fatalf("step %d: Get(%q, %s) = %q %v, model %q %v", step, table, k, gv, gok, wv, wok)
						}
					}
					gd, err := b.HashTree(ctx, table, 16)
					if err != nil {
						t.Fatal(err)
					}
					wd, err := model.HashTree(ctx, table, 16)
					if err != nil {
						t.Fatal(err)
					}
					if gd.Root != wd.Root {
						t.Fatalf("step %d: HashTree(%q) root %x, model %x", step, table, gd.Root, wd.Root)
					}
				}
			}
		})
	}
}

// TestChurnTableLeavesNothingBehind puts a write-once table beside one whose
// keys die a few batches after they are put. The dead entries must be
// reclaimed by unlinking whole files of the churn run — never by rewriting
// the write-once run, whose file names therefore only ever accumulate.
func TestChurnTableLeavesNothingBehind(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// MaxTables out of reach: no tier merge may excuse a rewrite.
	b := openT(t, dir, Options{MemtableBytes: 8 << 10, MaxTables: 1 << 20})
	defer b.Close()

	const lifetime = 4
	var keepFiles []string
	for batch := 0; batch < 60; batch++ {
		var keep, churn []engine.Entry
		for i := 0; i < 8; i++ {
			keep = append(keep, engine.Entry{Key: fmt.Sprintf("seg-%03d-%d", batch, i), Value: []byte(strings.Repeat("s", 300))})
			churn = append(churn, engine.Entry{Key: fmt.Sprintf("delta-%03d-%d", batch, i), Value: []byte(strings.Repeat("d", 120))})
		}
		if err := b.BatchPut(ctx, "keep", keep); err != nil {
			t.Fatal(err)
		}
		if err := b.BatchPut(ctx, "churn", churn); err != nil {
			t.Fatal(err)
		}
		if dead := batch - lifetime; dead >= 0 {
			for i := 0; i < 8; i++ {
				if err := b.Delete(ctx, "churn", fmt.Sprintf("delta-%03d-%d", dead, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		now := runFiles(b, "keep")
		for i, name := range keepFiles {
			if i >= len(now) || now[i] != name {
				t.Fatalf("batch %d: write-once run was rewritten: %v → %v", batch, keepFiles, now)
			}
		}
		keepFiles = now
		checkRunInvariants(t, b)
	}
	if len(keepFiles) < 5 {
		t.Fatalf("workload too small to prove anything: %d write-once tables", len(keepFiles))
	}
	// Kill what is left of the churn table: its run must vanish from disk.
	for batch := 60 - lifetime; batch < 60; batch++ {
		for i := 0; i < 8; i++ {
			if err := b.Delete(ctx, "churn", fmt.Sprintf("delta-%03d-%d", batch, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushT(t, b)
	if files := runFiles(b, "churn"); len(files) != 0 {
		t.Fatalf("churn run left SSTables behind: %v", files)
	}
	if onDisk, keepNow := sstOnDisk(t, dir), runFiles(b, "keep"); len(onDisk) != len(keepNow) {
		t.Fatalf("directory holds %v, write-once run is %v", onDisk, keepNow)
	}
	st, err := b.CompactionStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r := st.LiveRatio(); r < 0.97 {
		t.Fatalf("live ratio %.3f with nothing dead on disk", r)
	}
	if v, ok := mustGet(t, b, "keep", "seg-000-0"); !ok || len(v) != 300 {
		t.Fatalf("write-once value lost: %d bytes ok=%v", len(v), ok)
	}
}

// TestDeadTableAboveLiveNeighbourStays is the resurrection case: a table
// holding nothing but a tombstone is dead weight, yet the tombstone is all
// that hides the value in the older table beneath it. Only when that older
// table dies too may both go.
func TestDeadTableAboveLiveNeighbourStays(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openT(t, dir, Options{})
	defer func() { b.Close() }()
	for _, k := range []string{"gone", "stays"} {
		if err := b.Put(ctx, "t", k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	flushT(t, b) // T0: gone, stays
	if err := b.Delete(ctx, "t", "gone"); err != nil {
		t.Fatal(err)
	}
	flushT(t, b) // T1: tombstone(gone) — no live entry, but T0 is alive beneath it
	files := runFiles(b, "t")
	if len(files) != 2 {
		t.Fatalf("want the dead table kept above its live neighbour, run is %v", files)
	}
	// Any further write call runs the retirement pass; it must spare T1.
	if err := b.Put(ctx, "other", "x", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := runFiles(b, "t"); !reflect.DeepEqual(got, files) {
		t.Fatalf("run changed: %v → %v", files, got)
	}
	check := func(when string) {
		t.Helper()
		if v, ok := mustGet(t, b, "t", "gone"); ok {
			t.Fatalf("%s: deleted key resurrected as %q", when, v)
		}
		if v, ok := mustGet(t, b, "t", "stays"); !ok || v != "v-stays" {
			t.Fatalf("%s: stays = %q ok=%v", when, v, ok)
		}
	}
	check("after retirement pass")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = openT(t, dir, Options{})
	check("after reopen")
	if got := runFiles(b, "t"); !reflect.DeepEqual(got, files) {
		t.Fatalf("reopen changed the run: %v → %v", files, got)
	}

	// The last live entry of T0 dies: now the whole run is a dead prefix.
	if err := b.Delete(ctx, "t", "stays"); err != nil {
		t.Fatal(err)
	}
	if got := runFiles(b, "t"); len(got) != 0 {
		t.Fatalf("dead run not retired: %v", got)
	}
	if onDisk := sstOnDisk(t, dir); len(onDisk) != 0 {
		t.Fatalf("retired tables still on disk: %v", onDisk)
	}
	for _, k := range []string{"gone", "stays"} {
		if v, ok := mustGet(t, b, "t", k); ok {
			t.Fatalf("%s resurrected as %q", k, v)
		}
	}
	// The run is empty, so the pending tombstones shadow nothing: a flush
	// writes no file for them.
	flushT(t, b)
	if onDisk := sstOnDisk(t, dir); len(runFiles(b, "t")) != 0 || !reflect.DeepEqual(onDisk, runFiles(b, "other")) {
		t.Fatalf("tombstones of an empty run reached an SSTable: %v", onDisk)
	}
}

// TestCompactRacingRetirementAbandonsOutput: every merge — a whole-run merge
// (mergeRunT), and the tier merge a write call's flush triggers — reads its
// victims and writes its output with no lock held. Meanwhile the victims can be retired
// (their entries die, the run empties, and a flush drops the tombstones on
// the strength of that), before the merge reads them or after it has
// written its output. Mounting the output then would bring the values back:
// it must be removed, and the call that ran the merge has not failed. The
// block cache holds one block per shard, so the merge reads most victim
// blocks from files closed under it. The batches are shaped as tierBatch
// says, so that the tier merge happens at all.
func TestCompactRacingRetirementAbandonsOutput(t *testing.T) {
	ctx := context.Background()
	value := []byte(strings.Repeat("v", 1000))
	for _, merge := range []string{"compact", "tier"} {
		for _, stage := range []string{"captured", "written"} {
			t.Run(merge+"/retire/"+stage, func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{MemtableBytes: 64 << 10, MaxTables: tierWidth, Cache: NewBlockCache(1)}
				b := openT(t, dir, opts)
				defer func() { b.Close() }()
				if err := b.Put(ctx, "bystander", "x", []byte("y")); err != nil {
					t.Fatal(err)
				}
				var keys []string
				batch := func(n int) error {
					ents := tierBatch(len(keys), n, value)
					for _, e := range ents {
						keys = append(keys, e.Key)
					}
					return b.BatchPut(ctx, "t", ents)
				}
				// Forty 1 KB values are ten blocks a table, and no flush.
				for i := 0; i < tierWidth-1; i++ {
					if err := batch(40); err != nil {
						t.Fatal(err)
					}
					flushT(t, b)
				}

				raced := false
				// The tier merge's hook runs on the worker's goroutine: it
				// reports with t.Error.
				b.setPause(func(at string) {
					if at != stage || raced {
						return
					}
					raced = true
					for _, k := range keys {
						if err := b.Delete(ctx, "t", k); err != nil {
							t.Error(err)
							return
						}
					}
					if err := b.flush(); err != nil {
						t.Error(err)
					} else if got := runFiles(b, "t"); len(got) != 0 {
						t.Errorf("run not retired: %v", got)
					}
				})
				if merge == "compact" {
					mergeRunT(t, b, "t")
				} else if err := batch(70); err != nil { // the flush makes tierWidth tables
					t.Fatal(err)
				} else if err := b.settle(ctx); err != nil {
					t.Fatalf("tier beside the race: %v", err)
				}
				if !raced {
					t.Fatal("no merge reached the race")
				}

				for _, when := range []string{"after the race", "after reopen"} {
					if got := runFiles(b, "t"); len(got) != 0 {
						t.Fatalf("%s: abandoned merge output was mounted: %v", when, got)
					}
					if debris, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(debris) != 0 {
						t.Fatalf("%s: abandoned merge output left behind: %v", when, debris)
					}
					for _, k := range keys {
						if v, ok := mustGet(t, b, "t", k); ok {
							t.Fatalf("%s: %s resurrected as %q", when, k, v)
						}
					}
					if v, ok := mustGet(t, b, "bystander", "x"); !ok || v != "y" {
						t.Fatalf("%s: bystander = %q ok=%v", when, v, ok)
					}
					checkRunInvariants(t, b)
					if err := b.Close(); err != nil {
						t.Fatal(err)
					}
					b = openT(t, dir, opts)
				}
			})
		}
	}
}

// tierBatch is a batch of n distinct keys, the keys from+0 to from+n-1 of a
// sequence whose every batch's keys interleave with every other's: the
// tables its batches are flushed into overlap, so tiering merges them,
// where tables of disjoint key ranges would be left alone. Its keys descend,
// so a batch of them takes the log and is not ingested.
func tierBatch(from, n int, value []byte) []engine.Entry {
	ents := make([]engine.Entry, n)
	for i := range ents {
		ents[n-1-i] = engine.Entry{Key: fmt.Sprintf("k%04d-%04d", i, from), Value: value}
	}
	return ents
}

// TestReadsAndWritesBesideTierMerge holds the tier merge a write call set off
// between writing its output and installing it: the write call has
// returned, and a Get on the same backend and a Put to another table must
// not wait for the merge.
func TestReadsAndWritesBesideTierMerge(t *testing.T) {
	ctx := context.Background()
	b := openT(t, t.TempDir(), Options{MemtableBytes: 64 << 10, MaxTables: tierWidth})
	defer b.Close()
	value := []byte(strings.Repeat("v", 1000))
	next := 0
	batch := func(n int) error {
		ents := tierBatch(next, n, value)
		next += n
		return b.BatchPut(ctx, "t", ents)
	}
	for i := 0; i < tierWidth-1; i++ {
		if err := batch(40); err != nil {
			t.Fatal(err)
		}
		flushT(t, b)
	}

	held, release := make(chan struct{}), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	b.setPause(func(stage string) {
		if stage == "written" {
			close(held)
			<-release
		}
	})
	if err := batch(70); err != nil { // its flush makes tierWidth tables
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("no tier merge started")
	}
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
			t.Fatalf("%s waited for the merge", what)
		}
	}
	within("Get beside the merge", func() error {
		first := tierBatch(0, 1, value)[0].Key
		v, ok, err := b.Get(ctx, "t", first)
		if err == nil && (!ok || string(v) != string(value)) {
			err = fmt.Errorf("%s = %d bytes, ok=%v", first, len(v), ok)
		}
		return err
	})
	within("Put to another table beside the merge", func() error {
		return b.Put(ctx, "other", "x", []byte("y"))
	})
	unblock()
	settleT(t, b)
	if files := runFiles(b, "t"); len(files) != 1 {
		t.Fatalf("tier merge not installed: run is %v", files)
	}
	checkRunInvariants(t, b)
}

// TestManyTablesInOneFlush flushes the memtables of 200 user tables at once —
// far more than the handful the engine is built for — and reads everything
// back, before and after a reopen.
func TestManyTablesInOneFlush(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openT(t, dir, Options{})
	defer func() { b.Close() }()
	const nTables = 200
	name := func(i int) string { return fmt.Sprintf("table/%03d %s", i, strings.Repeat("n", i%7)) }
	for i := 0; i < nTables; i++ {
		for j := 0; j < 3; j++ {
			if err := b.Put(ctx, name(i), fmt.Sprintf("k%d", j), []byte(fmt.Sprintf("%d/%d", i, j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushT(t, b)
	if n := len(sstOnDisk(t, dir)); n != nTables {
		t.Fatalf("%d SSTables for %d user tables", n, nTables)
	}
	checkRunInvariants(t, b)
	for _, when := range []string{"after flush", "after reopen"} {
		tables, err := b.Tables(ctx)
		if err != nil || len(tables) != nTables {
			t.Fatalf("%s: %d tables (err %v)", when, len(tables), err)
		}
		for i := 0; i < nTables; i++ {
			for j := 0; j < 3; j++ {
				if v, ok := mustGet(t, b, name(i), fmt.Sprintf("k%d", j)); !ok || v != fmt.Sprintf("%d/%d", i, j) {
					t.Fatalf("%s: %s k%d = %q ok=%v", when, name(i), j, v, ok)
				}
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		b = openT(t, dir, Options{})
	}
}

// TestHashMemoIsPerTable: a write to one user table must leave the memoized
// digest of another a hit — an ingesting store's anti-entropy rounds re-hash
// the tables that changed, not all of them.
func TestHashMemoIsPerTable(t *testing.T) {
	ctx := context.Background()
	b := openT(t, t.TempDir(), Options{})
	defer b.Close()
	for _, table := range []string{"A", "B"} {
		if err := b.Put(ctx, table, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	first, err := b.HashTree(ctx, "B", 16)
	if err != nil || first.Bytes == 0 {
		t.Fatalf("first sweep hashed %d bytes (err %v)", first.Bytes, err)
	}
	if err := b.Put(ctx, "A", "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	flushT(t, b) // structural changes leave every memo alone
	again, err := b.HashTree(ctx, "B", 16)
	if err != nil {
		t.Fatal(err)
	}
	if again.Bytes != 0 || again.Root != first.Root {
		t.Fatalf("put to A invalidated B's digest: hashed %d bytes, root %x → %x", again.Bytes, first.Root, again.Root)
	}
	if d, err := b.HashTree(ctx, "A", 16); err != nil || d.Bytes == 0 {
		t.Fatalf("A changed but its sweep hashed %d bytes (err %v)", d.Bytes, err)
	}
	if err := b.Delete(ctx, "B", "k"); err != nil {
		t.Fatal(err)
	}
	if d, err := b.HashTree(ctx, "B", 16); err != nil || d.Root == first.Root {
		t.Fatalf("delete in B served the stale digest (err %v)", err)
	}
}
