package lsm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/enginetest"
)

func openT(t *testing.T, dir string, opts Options) *Backend {
	t.Helper()
	b, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// diskBytes sums every lsm data file (SSTables + WAL) under dir straight
// from the filesystem, cross-checking CompactionStats accounting.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, pat := range []string{"sst-*.sst", "wal-*.log"} {
		names, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			info, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
	}
	return total
}

// TestCompactCrashRecovery runs the shared crash-injection suite over every
// dangerous point of the flush/merge pipeline:
//
//   - mid-flush / mid-merge: the output SSTable is half-written with no
//     footer; recovery must delete the .tmp debris and serve from the WAL
//     and intact tables.
//   - flush-renamed / merge-renamed: the SSTable is complete and renamed
//     into place but the MANIFEST never committed it; recovery must drop the
//     unreferenced file (for a flush the WAL is still authoritative).
//   - merge-manifested: the MANIFEST committed the merge but the victim
//     tables were never deleted; recovery must remove them instead of
//     mounting them (which would double-count and resurrect tombstoned
//     keys dropped by the merge).
func TestCompactCrashRecovery(t *testing.T) {
	enginetest.CompactCrashRecovery(t, enginetest.Harness{
		Open: func(t *testing.T, dir string) enginetest.Crasher {
			return openT(t, dir, Options{MemtableBytes: 4 << 10})
		},
		Points:      []string{"mid-flush", "flush-renamed", "mid-merge", "merge-renamed", "merge-manifested"},
		CrashErr:    ErrCrashed,
		DebrisGlobs: []string{"*.tmp"},
		DiskBytes:   diskBytes,
		// Compact reaches the flush points only through a non-empty
		// memtable, and the workload's tail may have landed exactly on a
		// flush boundary — top the memtable up until it holds something.
		Prepare: func(t *testing.T, c enginetest.Crasher) map[string]string {
			b := c.(*Backend)
			ctx := context.Background()
			extra := map[string]string{}
			for i := 0; ; i++ {
				k := fmt.Sprintf("extra-%02d", i)
				v := k + " resident"
				if err := b.Put(ctx, "t", k, []byte(v)); err != nil {
					t.Fatal(err)
				}
				extra[k] = v
				b.mu.RLock()
				n := b.buffered
				b.mu.RUnlock()
				if n > 0 {
					return extra
				}
			}
		},
	})
}

// TestWALTornTailRecovery is lsm's half of the torn-tail contract disklog
// proves for its segments: a crash mid-append leaves garbage after the last
// acknowledged record; replay must truncate it, serve every acknowledged
// write, and leave the log appendable.
func TestWALTornTailRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openT(t, dir, Options{}) // default 4 MiB memtable: everything stays in the WAL
	want := map[string]string{}
	var ents []engine.Entry
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("w%03d", i)
		v := fmt.Sprintf("%s committed", k)
		ents = append(ents, engine.Entry{Key: k, Value: []byte(v)})
		want[k] = v
	}
	if err := b.BatchPut(ctx, "t", ents); err != nil { // fsynced on ack
		t.Fatal(err)
	}
	b.Kill()

	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("wal files %v (err %v)", logs, err)
	}
	f, err := os.OpenFile(logs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{})
	for k, wv := range want {
		v, ok, err := r.Get(ctx, "t", k)
		if err != nil || !ok || string(v) != wv {
			t.Fatalf("%s = %q (ok=%v err=%v), want %q", k, v, ok, err, wv)
		}
	}
	// The truncated log must accept new appends.
	if err := r.Put(ctx, "t", "after", []byte("crash")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openT(t, dir, Options{})
	defer r2.Close()
	if v, ok, _ := r2.Get(ctx, "t", "after"); !ok || string(v) != "crash" {
		t.Fatalf("post-recovery write lost: %q (ok=%v)", v, ok)
	}
}

// TestRunCrashRecovery covers the two crash windows per-table runs add,
// neither reachable through Compact:
//
//   - flush-part-renamed: a flush of several user tables' memtables
//     has renamed the first of its SSTables into place, the others are
//     still *.tmp, and the MANIFEST names none of them; recovery must drop
//     them all and serve from the WAL.
//   - retire-manifested: the MANIFEST committed a retirement but the dead
//     tables were never unlinked; recovery must remove them instead of
//     mounting them.
func TestRunCrashRecovery(t *testing.T) {
	ctx := context.Background()
	for _, point := range []string{"flush-part-renamed", "retire-manifested"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			b := openT(t, dir, Options{})
			want := map[[2]string]string{}
			put := func(table, key, value string) {
				t.Helper()
				// BatchPut is acknowledged only once fsynced.
				if err := b.BatchPut(ctx, table, []engine.Entry{{Key: key, Value: []byte(value)}}); err != nil {
					t.Fatal(err)
				}
				want[[2]string{table, key}] = value
			}
			for i := 0; i < 20; i++ {
				put("keep", fmt.Sprintf("k%02d", i), fmt.Sprintf("kept %d", i))
				put("churn", fmt.Sprintf("c%02d", i), fmt.Sprintf("doomed %d", i))
			}
			flushT(t, b) // one table per run
			put("keep", "k-late", "in the log only")
			put("third", "x", "so the flush has three files to rename")

			b.SetCrashPoint(point)
			var err error
			if point == "flush-part-renamed" {
				put("churn", "c-late", "acknowledged before the flush began")
				b.mu.Lock()
				err = b.flushLocked(ctx)
				b.mu.Unlock()
			} else {
				// Kill the churn table's every entry: the delete that takes
				// the last one retires the table and crashes on the way.
				for i := 0; i < 20 && err == nil; i++ {
					k := fmt.Sprintf("c%02d", i)
					delete(want, [2]string{"churn", k})
					err = b.Delete(ctx, "churn", k)
				}
			}
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("crash hook %q did not fire: %v", point, err)
			}
			b.Kill()

			for _, when := range []string{"recovery", "clean reopen"} {
				r := openT(t, dir, Options{})
				for k, wv := range want {
					if v, ok, err := r.Get(ctx, k[0], k[1]); err != nil || !ok || string(v) != wv {
						t.Fatalf("%s: %s/%s = %q (ok=%v err=%v), want %q", when, k[0], k[1], v, ok, err, wv)
					}
				}
				if point == "retire-manifested" {
					if v, ok, _ := r.Get(ctx, "churn", "c00"); ok {
						t.Fatalf("%s: deleted key resurrected as %q", when, v)
					}
					if files := runFiles(r, "churn"); len(files) != 0 {
						t.Fatalf("%s: retired tables mounted again: %v", when, files)
					}
				}
				if debris, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(debris) != 0 {
					t.Fatalf("%s: debris survived: %v", when, debris)
				}
				checkRunInvariants(t, r) // incl.: the directory holds exactly the mounted tables
				st, err := r.CompactionStats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got := diskBytes(t, dir); got != st.DiskBytes {
					t.Fatalf("%s: stats say %d disk bytes, filesystem says %d", when, st.DiskBytes, got)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// logBytes sums the write-ahead logs under dir straight from the filesystem.
func logBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestDeadLogsShrink: with a memtable that holds the whole workload, so no
// flush retires a log, a table's overwritten and deleted values still leave
// the disk — its log is replaced once it is mostly dead.
func TestDeadLogsShrink(t *testing.T) {
	const memtable = 8 << 20
	enginetest.DeadLogsShrink(t, enginetest.Harness{
		Open: func(t *testing.T, dir string) enginetest.Crasher {
			return openT(t, dir, Options{MemtableBytes: memtable})
		},
		DiskBytes: diskBytes,
		LogBytes:  logBytes,
		LogFloor:  memtable / 16,
	})
}

// TestLogCrashRecovery covers the crash windows of per-table logs:
//
//   - log-created: a table's first log exists, empty, and the write call
//     that created it never appended to it; recovery must remove it and
//     serve exactly the acknowledged writes.
//   - replace-written / replace-renamed: a batch that killed most of its
//     table's log was fsynced, and the replacement log is written and
//     fsynced under its temporary name (before the rename), or renamed over
//     the old log (before the directory fsync). The batch was durable before
//     the replacement began, so both sides must replay to the state the
//     call left — every acknowledged write and the batch — and the deletes
//     of keys an SSTable holds must still hide them.
func TestLogCrashRecovery(t *testing.T) {
	ctx := context.Background()
	for _, point := range []string{"log-created", "replace-written", "replace-renamed"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			b := openT(t, dir, Options{})
			want := map[[2]string]string{}
			batch := func(table string, keys []string, value func(i int) string) error {
				ents := make([]engine.Entry, len(keys))
				for i, k := range keys {
					ents[i] = engine.Entry{Key: k, Value: []byte(value(i))}
				}
				err := b.BatchPut(ctx, table, ents)
				if err == nil || point != "log-created" {
					for i, k := range keys {
						want[[2]string{table, k}] = value(i)
					}
				}
				return err
			}
			early := []string{"e0", "e1", "e2", "e3"}
			if err := batch("deltas", early, func(int) string { return "in an SSTable" }); err != nil {
				t.Fatal(err)
			}
			flushT(t, b)
			for _, k := range early[:2] {
				if err := b.Delete(ctx, "deltas", k); err != nil {
					t.Fatal(err)
				}
				delete(want, [2]string{"deltas", k})
			}
			var deltas []string
			for i := 0; i < 48; i++ {
				deltas = append(deltas, fmt.Sprintf("d%02d", i))
			}
			big := strings.Repeat("delta ", 2<<10)
			for i := 0; i < len(deltas); i += 16 {
				if err := batch("deltas", deltas[i:i+16], func(int) string { return big }); err != nil {
					t.Fatal(err)
				}
			}
			if err := batch("chunks", []string{"c0", "c1"}, func(i int) string { return fmt.Sprint("chunk ", i) }); err != nil {
				t.Fatal(err)
			}
			if err := b.Put(ctx, "deltas", "unsynced", []byte("put")); err != nil {
				t.Fatal(err)
			}
			want[[2]string{"deltas", "unsynced"}] = "put"

			b.SetCrashPoint(point)
			var err error
			if point == "log-created" {
				err = batch("fresh", []string{"f0"}, func(int) string { return "never acknowledged" })
			} else {
				// The drain: every delta overwritten with a tombstone-sized value.
				err = batch("deltas", deltas, func(int) string { return "tombstone" })
			}
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("crash hook %q did not fire: %v", point, err)
			}
			b.Kill()

			for _, when := range []string{"recovery", "clean reopen"} {
				r := openT(t, dir, Options{})
				for _, table := range []string{"deltas", "chunks", "fresh"} {
					got := map[string]string{}
					if err := r.Scan(ctx, table, func(k string, v []byte) bool { got[k] = string(v); return true }); err != nil {
						t.Fatal(err)
					}
					for k, v := range got {
						if want[[2]string{table, k}] != v {
							t.Fatalf("%s: %s/%s = %.20q, want %.20q", when, table, k, v, want[[2]string{table, k}])
						}
					}
					for k := range want {
						if _, ok := got[k[1]]; k[0] == table && !ok {
							t.Fatalf("%s: %s/%s lost", when, k[0], k[1])
						}
					}
				}
				if debris, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(debris) != 0 {
					t.Fatalf("%s: debris survived: %v", when, debris)
				}
				checkRunInvariants(t, r) // incl.: the directory holds exactly the open logs
				st, err := r.CompactionStats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got := diskBytes(t, dir); got != st.DiskBytes {
					t.Fatalf("%s: stats say %d disk bytes, filesystem says %d", when, st.DiskBytes, got)
				}
				// The table written next after recovery logs and syncs as before.
				if err := r.BatchPut(ctx, "deltas", []engine.Entry{{Key: "after-" + when, Value: []byte("x")}}); err != nil {
					t.Fatal(err)
				}
				want[[2]string{"deltas", "after-" + when}] = "x"
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
