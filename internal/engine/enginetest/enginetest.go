// Package enginetest is the shared test harness of the durable
// engine.Backend implementations (disklog, lsm). Both write through
// reclog.FS, and MemFS is the one a test puts under them: an in-memory file
// system that knows what a crash keeps. CrashAnywhere runs one workload on
// it and, after every mutating call, recovers the engine from the
// process-death and the power-loss image and holds it to the contract —
// every acknowledged write kept, no debris, the engine's own invariants —
// so both engines prove the same contract and a new durable engine gets the
// whole suite by implementing Engine. An engine whose logs shed their dead
// records by themselves proves that too (DeadLogsShrink).
package enginetest

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rstore/internal/engine"
)

// Harness describes one durable engine, on the host's file system, to
// DeadLogsShrink.
type Harness struct {
	// Open opens the engine rooted at dir.
	Open func(t *testing.T, dir string) Engine
	// DiskBytes measures the engine's on-disk volume under dir directly from
	// the filesystem; the harness cross-checks it against CompactionStats.
	DiskBytes func(t *testing.T, dir string) int64
	// LogBytes measures, from the filesystem, the bytes of the logs an engine
	// replays at open; LogFloor is the dead weight its logs may keep.
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
// space are checked for presence only.
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
