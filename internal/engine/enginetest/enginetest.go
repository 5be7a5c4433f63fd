// Package enginetest is the shared crash-injection harness for the durable
// engine.Backend implementations (disklog, lsm). Each engine arms named
// crash points inside its compaction machinery (SetCrashPoint), simulates
// process death by dropping every descriptor unsynced (Kill), and must then
// recover from the directory with zero loss of acknowledged writes. The
// harness owns the workload, the per-point crash/reopen/verify cycle, and
// the debris sweep, so both engines prove the identical contract and a new
// durable engine gets the whole suite by implementing Crasher. An engine
// whose logs shed their dead records by themselves proves that too
// (DeadLogsShrink).
package enginetest

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"rstore/internal/engine"
)

// Crasher is the crash-injectable surface the durable engines share: a
// compacting backend plus the two test-only hooks.
type Crasher interface {
	engine.Backend
	engine.Compactor
	// SetCrashPoint arms a named injection point; the engine's compaction
	// path fails there with the harness's CrashErr, leaving the directory
	// exactly as a power failure would. Empty disarms.
	SetCrashPoint(point string)
	// Kill simulates process death: every descriptor and lock dropped with
	// no syncing and no cleanup. The backend is unusable afterwards.
	Kill()
}

// Harness describes one durable engine to CompactCrashRecovery.
type Harness struct {
	// Open opens (or reopens, after a crash) the engine rooted at dir,
	// configured so the workload spans several on-disk units (segments /
	// SSTables).
	Open func(t *testing.T, dir string) Crasher
	// Points lists every compaction crash-injection point the engine
	// recognizes; each becomes a subtest.
	Points []string
	// CrashErr is the sentinel an armed point fails with.
	CrashErr error
	// DebrisGlobs are dir-relative patterns of temporary/intermediate files
	// that must never survive a recovery Open.
	DebrisGlobs []string
	// Prepare, when set, runs after the workload and before each point is
	// armed. It must leave the engine in a state where the point is
	// reachable from Compact (e.g. a non-empty memtable for a flush
	// point) and returns any extra live keys it wrote, merged into the
	// expected state.
	Prepare func(t *testing.T, b Crasher) map[string]string
	// DiskBytes, when set, measures the engine's on-disk volume under dir
	// directly from the filesystem; the harness cross-checks it against the
	// CompactionStats of the post-recovery compaction.
	DiskBytes func(t *testing.T, dir string) int64
	// LogBytes measures, from the filesystem, the bytes of the logs an engine
	// replays at open; LogFloor is the dead weight its logs may keep.
	// DeadLogsShrink needs both.
	LogBytes func(t *testing.T, dir string) int64
	LogFloor int64
}

// OverwriteWorkload fills b with an overwrite-heavy, multi-unit history:
// nKeys keys written rounds+1 times each (latest revision wins), then the
// first nKeys/10 deleted. It returns the expected live state: key -> value
// for survivors; deleted keys are absent from the map.
func OverwriteWorkload(t *testing.T, b engine.Backend, nKeys, rounds int) map[string]string {
	t.Helper()
	ctx := context.Background()
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	for rev := 0; rev <= rounds; rev++ {
		for i := 0; i < nKeys; i++ {
			v := fmt.Sprintf("%s rev-%d %s", key(i), rev, strings.Repeat("x", 64))
			if err := b.Put(ctx, "t", key(i), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := make(map[string]string, nKeys)
	for i := 0; i < nKeys; i++ {
		want[key(i)] = fmt.Sprintf("%s rev-%d %s", key(i), rounds, strings.Repeat("x", 64))
	}
	for i := 0; i < nKeys/10; i++ {
		if err := b.Delete(ctx, "t", key(i)); err != nil {
			t.Fatal(err)
		}
		delete(want, key(i))
	}
	return want
}

// VerifyState checks that b serves exactly want: every surviving key at its
// last revision, every deleted key absent. Keys outside the k%04d workload
// space (Prepare extras) are checked for presence only.
func VerifyState(t *testing.T, b engine.Backend, nKeys int, want map[string]string) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("k%04d", i)
		v, ok, err := b.Get(ctx, "t", k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if wv, live := want[k]; live {
			if !ok || string(v) != wv {
				t.Fatalf("%s = %q (ok=%v), want %q", k, v, ok, wv)
			}
		} else if ok {
			t.Fatalf("deleted key %s resurrected as %q", k, v)
		}
	}
	for k, wv := range want {
		if strings.HasPrefix(k, "k") && len(k) == 5 {
			continue // workload key, already checked
		}
		v, ok, err := b.Get(ctx, "t", k)
		if err != nil || !ok || string(v) != wv {
			t.Fatalf("extra key %s = %q (ok=%v err=%v), want %q", k, v, ok, err, wv)
		}
	}
}

// CompactCrashRecovery injects a crash at each of the engine's dangerous
// compaction points and proves reopening the directory loses nothing: the
// workload reads back exactly, no intermediate debris survives recovery,
// and the recovered store compacts successfully and survives a further
// clean close/reopen.
func CompactCrashRecovery(t *testing.T, h Harness) {
	const nKeys = 200
	for _, point := range h.Points {
		t.Run(point, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			b := h.Open(t, dir)
			want := OverwriteWorkload(t, b, nKeys, 4)
			if h.Prepare != nil {
				for k, v := range h.Prepare(t, b) {
					want[k] = v
				}
			}

			b.SetCrashPoint(point)
			if _, err := b.Compact(ctx); !errors.Is(err, h.CrashErr) {
				t.Fatalf("crash hook %q did not fire: %v", point, err)
			}
			b.Kill()

			r := h.Open(t, dir)
			VerifyState(t, r, nKeys, want)

			// No intermediate files may survive recovery...
			for _, g := range h.DebrisGlobs {
				debris, err := filepath.Glob(filepath.Join(dir, g))
				if err != nil {
					t.Fatal(err)
				}
				if len(debris) != 0 {
					t.Fatalf("debris survived recovery: %v", debris)
				}
			}
			// ...and the recovered store must compact successfully.
			st, err := r.Compact(ctx)
			if err != nil {
				t.Fatalf("compact after %s recovery: %v", point, err)
			}
			if h.DiskBytes != nil {
				if got := h.DiskBytes(t, dir); got != st.DiskBytes {
					t.Fatalf("stats say %d disk bytes, filesystem says %d", st.DiskBytes, got)
				}
			}
			VerifyState(t, r, nKeys, want)
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r2 := h.Open(t, dir)
			defer r2.Close()
			VerifyState(t, r2, nKeys, want)
		})
	}
}

// DeadLogsShrink proves that what dies in an engine's logs leaves the disk
// without a compaction: a table whose every value is overwritten small or
// deleted is left with at most h.LogFloor log bytes beyond its survivors'
// records, and DiskBytes is what the filesystem holds. h.Open must leave
// room for the whole workload — 2 MiB of values, in fsynced batches — in
// the engine's logs, so that no other mechanism reclaims them.
func DeadLogsShrink(t *testing.T, h Harness) {
	ctx := context.Background()
	dir := t.TempDir()
	b := h.Open(t, dir)
	defer b.Close()
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	big := []byte(strings.Repeat("x", 8<<10))
	for i := 0; i < 256; i += 16 {
		batch := make([]engine.Entry, 16)
		for j := range batch {
			batch[j] = engine.Entry{Key: key(i + j), Value: big}
		}
		if err := b.BatchPut(ctx, "t", batch); err != nil {
			t.Fatal(err)
		}
	}
	// A record's framing and names take less than 32 bytes here.
	want, survivors := map[string]string{}, int64(0)
	for i := 0; i < 256; i++ {
		if i%2 == 0 {
			v := fmt.Sprintf("small %d", i)
			if err := b.Put(ctx, "t", key(i), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[key(i)] = v
			survivors += int64(32 + len(key(i)) + len(v))
		} else {
			if err := b.Delete(ctx, "t", key(i)); err != nil {
				t.Fatal(err)
			}
			survivors += int64(32 + len(key(i)))
		}
	}
	if got := h.LogBytes(t, dir); got > h.LogFloor+survivors {
		t.Fatalf("logs hold %d bytes once every 8 KiB value died; the bound is %d (floor) + %d (survivors)", got, h.LogFloor, survivors)
	}
	st, err := b.CompactionStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.DiskBytes(t, dir); got != st.DiskBytes {
		t.Fatalf("stats say %d disk bytes, filesystem says %d", st.DiskBytes, got)
	}
	VerifyState(t, b, 256, want)
}
