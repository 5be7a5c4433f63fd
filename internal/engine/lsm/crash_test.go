package lsm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
				n := b.mem.count
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
//   - flush-part-renamed: a flush of a memtable holding several user tables
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
