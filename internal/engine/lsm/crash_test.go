package lsm

import (
	"context"
	"fmt"
	"os"
	"path"
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

// TestCompactCrashRecovery crashes lsm after every mutating file-system call
// of the shared workload (crashAnywhere) and asserts the workload reaches the
// flush/merge pipeline's crash points (compactPoints).
func TestCompactCrashRecovery(t *testing.T) { crashAnywhere(t, compactPoints) }

// TestRunCrashRecovery is TestCompactCrashRecovery for the per-table runs'
// crash points (runPoints).
func TestRunCrashRecovery(t *testing.T) { crashAnywhere(t, runPoints) }

// TestLogCrashRecovery is TestCompactCrashRecovery for the per-table logs'
// crash points (logPoints).
func TestLogCrashRecovery(t *testing.T) { crashAnywhere(t, logPoints) }

// TestIngestCrashRecovery is TestCompactCrashRecovery for the ingest's crash
// points (ingestPoints).
func TestIngestCrashRecovery(t *testing.T) { crashAnywhere(t, ingestPoints) }

// TestFlushCrashRecovery is TestCompactCrashRecovery for the crash points of
// the swap and the flush of a frozen set (flushPoints).
func TestFlushCrashRecovery(t *testing.T) { crashAnywhere(t, flushPoints) }

// crashAnywhere runs enginetest.CrashAnywhere over lsm, in both crash images,
// at a configuration small enough for the workload to flush, merge and
// replace logs often; points are the crash points it must reach. The
// harness crashes the engine after each file-system call on its own
// goroutine, so the backend runs without its worker (stepped).
func crashAnywhere(t *testing.T, points []enginetest.Point) {
	enginetest.CrashAnywhere(t, enginetest.Crash{
		Open: func(fsys *enginetest.MemFS, dir string) (enginetest.Engine, error) {
			b, err := openInline(fsys, dir, Options{MemtableBytes: 4 << 10, MaxTables: tierWidth})
			if err != nil {
				return nil, err
			}
			// A flush's, a merge's and an ingest's calls are labelled as such
			// from their first stage on.
			b.setPause(func(stage string) {
				label := " merge"
				if strings.HasPrefix(stage, "ingest") {
					label = " ingest"
				} else if strings.HasPrefix(stage, "flush") {
					label = " flush"
				}
				if p := fsys.Phase(); !strings.HasSuffix(p, label) {
					fsys.SetPhase(p + label)
				}
			})
			return stepped{b}, nil
		},
		DataGlobs:   []string{"sst-*.sst", "wal-*.log"},
		DebrisGlobs: []string{"*.tmp"},
		Check: func(t *testing.T, b enginetest.Engine) {
			checkRunInvariants(t, b.(stepped).Backend) // incl.: the directory holds exactly the mounted tables and the open logs
		},
		Points: points,
	})
}

// stepped drives a backend opened without its worker (openInline) the way
// the worker would, one call at a time: the pass that one write call sets
// off — the flush of the memtables its swap froze, the tier loop — runs at
// the end of the next write call, after that call's writes went to the
// fresh logs beside the frozen ones, or when a caller settles first
// (CompactionStats, Compact).
type stepped struct{ *Backend }

func (s stepped) Put(ctx context.Context, table, key string, value []byte) error {
	return s.step(ctx, func() error { return s.Backend.Put(ctx, table, key, value) })
}

func (s stepped) Delete(ctx context.Context, table, key string) error {
	return s.step(ctx, func() error { return s.Backend.Delete(ctx, table, key) })
}

func (s stepped) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	return s.step(ctx, func() error { return s.Backend.BatchPut(ctx, table, entries) })
}

// step runs op, and then the pass an earlier call left owed.
func (s stepped) step(ctx context.Context, op func() error) error {
	s.mu.RLock()
	owed := s.w.owed
	s.mu.RUnlock()
	if err := op(); err != nil || !owed {
		return err
	}
	return s.settle(ctx)
}

// The ten crash points lsm once named, each mapped to the mutating call
// after which it stood, and the ingest's two.
//
// compactPoints, the flush/merge pipeline:
//
//	mid-flush           a flush's write of an SSTable under its .tmp name, before its sync
//	flush-renamed       the directory sync after a flush's SSTable renames, before MANIFEST.tmp is created
//	mid-merge           a merge's write of its output under its .tmp name
//	merge-renamed       the directory sync after a merge's output is renamed into place
//	merge-manifested    the directory sync of a merge's MANIFEST, before its victims are removed
var compactPoints = []enginetest.Point{
	{Name: "mid-flush", At: func(c []enginetest.Call, i int) bool {
		return is(c, i, "write", "sst-*.sst.tmp") && flushing(c[i])
	}},
	{Name: "flush-renamed", At: func(c []enginetest.Call, i int) bool {
		return is(c, i-1, "rename", "sst-*.sst.tmp") && is(c, i, "syncdir", "*") && flushing(c[i]) && is(c, i+1, "create", "MANIFEST.tmp")
	}},
	{Name: "mid-merge", At: func(c []enginetest.Call, i int) bool {
		return is(c, i, "write", "sst-*.sst.tmp") && merging(c[i])
	}},
	{Name: "merge-renamed", At: func(c []enginetest.Call, i int) bool {
		return is(c, i-1, "rename", "sst-*.sst.tmp") && is(c, i, "syncdir", "*") && merging(c[i])
	}},
	{Name: "merge-manifested", At: func(c []enginetest.Call, i int) bool {
		return is(c, i-1, "rename", "MANIFEST.tmp") && is(c, i, "syncdir", "*") && merging(c[i]) && is(c, i+1, "remove", "sst-*.sst")
	}},
}

// runPoints, the per-table runs:
//
//	flush-part-renamed  a flush's rename of its first SSTable into place, another still to go
//	retire-manifested   the directory sync of a retirement's MANIFEST, before the dead tables are removed
var runPoints = []enginetest.Point{
	{Name: "flush-part-renamed", At: func(c []enginetest.Call, i int) bool {
		return is(c, i, "rename", "sst-*.sst.tmp") && flushing(c[i]) && is(c, i+1, "rename", "sst-*.sst.tmp")
	}},
	{Name: "retire-manifested", At: func(c []enginetest.Call, i int) bool {
		return is(c, i-1, "rename", "MANIFEST.tmp") && is(c, i, "syncdir", "*") && flushing(c[i]) &&
			is(c, i+1, "remove", "sst-*.sst")
	}},
}

// logPoints, the per-table logs:
//
//	log-created         the creation of a table's first log, before the write call appends to it
//	replace-written     the sync of a replacement log under its .tmp name, before its rename
//	replace-renamed     the rename of a replacement log over its table's log, before the directory sync
var logPoints = []enginetest.Point{
	{Name: "log-created", At: func(c []enginetest.Call, i int) bool {
		return is(c, i, "create", "wal-*.log") && is(c, i+1, "write", "wal-*.log") && c[i+1].Path == c[i].Path
	}},
	{Name: "replace-written", At: func(c []enginetest.Call, i int) bool {
		return is(c, i, "sync", "wal-*.log.tmp")
	}},
	{Name: "replace-renamed", At: func(c []enginetest.Call, i int) bool {
		return is(c, i, "rename", "wal-*.log.tmp") && is(c, i+1, "syncdir", "*")
	}},
}

// ingestPoints, the ingest (new with it, not once named):
//
//	ingest-synced       the sync of an ingested table under its .tmp name, before any MANIFEST names it
//	ingest-manifested   the directory sync of the MANIFEST that names an ingested table
var ingestPoints = []enginetest.Point{
	{Name: "ingest-synced", At: func(c []enginetest.Call, i int) bool {
		return is(c, i, "sync", "sst-*.sst.tmp") && ingesting(c[i])
	}},
	{Name: "ingest-manifested", At: func(c []enginetest.Call, i int) bool {
		return is(c, i-1, "rename", "MANIFEST.tmp") && is(c, i, "syncdir", "*") && ingesting(c[i])
	}},
}

// flushPoints, the swap and the flush of a frozen set:
//
//	fresh-log-written   a write to a table's fresh log while the log a swap froze beside it still awaits its flush
//	flush-mid-table     a flush's write of a frozen memtable's SSTable under its .tmp name
//	flush-table-renamed the rename of a flush's last SSTable into place, before the directory sync
//	flush-manifested    the directory sync of a flush's MANIFEST, before the frozen logs are unlinked
//	frozen-log-unlinked the unlink of one frozen log, another still to go
var flushPoints = []enginetest.Point{
	{Name: "fresh-log-written", At: func(c []enginetest.Call, i int) bool {
		if !is(c, i, "write", "wal-*.log") {
			return false
		}
		for j := i + 1; j < len(c); j++ {
			if is(c, j, "remove", "wal-*.log") {
				// Zero-padded sequence numbers: the name orders the logs.
				return flushed(c[j]) && path.Base(c[j].Path) < path.Base(c[i].Path)
			}
		}
		return false
	}},
	{Name: "flush-mid-table", At: func(c []enginetest.Call, i int) bool {
		return is(c, i, "write", "sst-*.sst.tmp") && flushed(c[i])
	}},
	{Name: "flush-table-renamed", At: func(c []enginetest.Call, i int) bool {
		return is(c, i, "rename", "sst-*.sst.tmp") && flushed(c[i]) && is(c, i+1, "syncdir", "*")
	}},
	{Name: "flush-manifested", At: func(c []enginetest.Call, i int) bool {
		return is(c, i-1, "rename", "MANIFEST.tmp") && is(c, i, "syncdir", "*") && flushed(c[i]) && is(c, i+1, "remove", "wal-*.log")
	}},
	{Name: "frozen-log-unlinked", At: func(c []enginetest.Call, i int) bool {
		return is(c, i, "remove", "wal-*.log") && flushed(c[i]) && is(c, i+1, "remove", "wal-*.log")
	}},
}

// is reports whether calls[i] exists and is op on a file matching glob.
func is(calls []enginetest.Call, i int, op, glob string) bool {
	if i < 0 || i >= len(calls) || calls[i].Op != op {
		return false
	}
	ok, _ := path.Match(glob, path.Base(calls[i].Path))
	return ok
}

// merging reports whether c was made by a merge.
func merging(c enginetest.Call) bool { return strings.HasSuffix(c.Phase, " merge") }

// ingesting reports whether c was made by an ingest.
func ingesting(c enginetest.Call) bool { return strings.HasSuffix(c.Phase, " ingest") }

// flushing reports whether c was made by neither a merge nor an ingest.
func flushing(c enginetest.Call) bool { return !merging(c) && !ingesting(c) }

// flushed reports whether c was made by the flush of a frozen set.
func flushed(c enginetest.Call) bool { return strings.HasSuffix(c.Phase, " flush") }

// TestWALTornTailRecovery is the torn-tail contract: a crash mid-append
// leaves garbage after the last acknowledged record; replay must truncate
// it, serve every acknowledged write, and leave the log appendable.
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
		Open: func(t *testing.T, dir string) enginetest.Engine {
			return openT(t, dir, Options{MemtableBytes: memtable})
		},
		DiskBytes: diskBytes,
		LogBytes:  logBytes,
		LogFloor:  memtable / 16,
	})
}
