package disklog

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rstore/internal/engine/enginetest"
)

// overwriteWorkload and verifyState delegate to the shared crash-injection
// harness helpers, so disklog and lsm prove the identical recovery contract
// on the identical workload.
func overwriteWorkload(t *testing.T, b *Backend, nKeys, rounds int) map[string]string {
	t.Helper()
	return enginetest.OverwriteWorkload(t, b, nKeys, rounds)
}

func verifyState(t *testing.T, b *Backend, nKeys int, want map[string]string) {
	t.Helper()
	enginetest.VerifyState(t, b, nKeys, want)
}

func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
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

// TestCompactReclaims is the headline contract: an overwrite-heavy history
// compacts to a fraction of its on-disk volume with identical reads, the
// stats account for the reclaim, and the compacted layout replays.
func TestCompactReclaims(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openT(t, dir, Options{SegmentBytes: 4 << 10})
	const nKeys = 200
	want := overwriteWorkload(t, b, nKeys, 4)

	before, err := b.CompactionStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.LiveRatio() > 0.5 {
		t.Fatalf("workload not dead-heavy enough: live ratio %.2f", before.LiveRatio())
	}
	st, err := b.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DiskBytes > before.DiskBytes/2 {
		t.Fatalf("compaction reclaimed too little: %d -> %d disk bytes", before.DiskBytes, st.DiskBytes)
	}
	if st.CompactedBytes != before.DiskBytes-st.DiskBytes {
		t.Fatalf("CompactedBytes = %d, want %d", st.CompactedBytes, before.DiskBytes-st.DiskBytes)
	}
	if got := diskBytes(t, dir); got != st.DiskBytes {
		t.Fatalf("stats say %d disk bytes, filesystem says %d", st.DiskBytes, got)
	}
	verifyState(t, b, nKeys, want)

	// Compacting again immediately must be a no-op: the segment the live
	// records were appended to is fully live, so re-selecting it as a
	// victim would rewrite all data to reclaim nothing. Stats alone cannot
	// tell a no-op from a useless full rewrite (both end with the same
	// byte counts), so check the segment file identity too.
	compactedSeg := filepath.Join(dir, fmt.Sprintf("seg-%06d.log", b.segs[0].id))
	infoBefore, err := os.Stat(compactedSeg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := b.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again != st {
		t.Fatalf("repeat compact was not a no-op: %+v -> %+v", st, again)
	}
	infoAfter, err := os.Stat(compactedSeg)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(infoBefore, infoAfter) {
		t.Fatal("repeat compact rewrote a fully-live segment")
	}

	// The compacted layout must replay byte-for-byte equivalent state.
	wantBytes := b.BytesStored()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, Options{SegmentBytes: 4 << 10})
	defer r.Close()
	verifyState(t, r, nKeys, want)
	if got := r.BytesStored(); got != wantBytes {
		t.Fatalf("BytesStored after reopen = %d, want %d", got, wantBytes)
	}
}

// TestCompactNothingToReclaim: a write-once history has no dead bytes, so
// Compact must be a no-op — same files, no rewrite output.
func TestCompactNothingToReclaim(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openT(t, dir, Options{SegmentBytes: 4 << 10})
	defer b.Close()
	for i := 0; i < 100; i++ {
		if err := b.Put(ctx, "t", fmt.Sprintf("k%03d", i), []byte(strings.Repeat("v", 64))); err != nil {
			t.Fatal(err)
		}
	}
	before, err := b.CompactionStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st != before {
		t.Fatalf("no-op compact changed stats: %+v -> %+v", before, st)
	}
	if st.CompactedBytes != 0 {
		t.Fatalf("no-op compact claims %d bytes reclaimed", st.CompactedBytes)
	}
}

// TestCompactThenWrite: the log keeps accepting (and replaying) writes after
// a compaction — the rewritten segment and the survivors form a consistent
// id sequence.
func TestCompactThenWrite(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openT(t, dir, Options{SegmentBytes: 4 << 10})
	const nKeys = 100
	want := overwriteWorkload(t, b, nKeys, 3)
	if _, err := b.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("post%03d", i)
		if err := b.Put(ctx, "t", k, []byte("after-compact")); err != nil {
			t.Fatal(err)
		}
	}
	// A second compaction over the mixed (compacted + fresh) layout.
	if _, err := b.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	verifyState(t, b, nKeys, want)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, Options{SegmentBytes: 4 << 10})
	defer r.Close()
	verifyState(t, r, nKeys, want)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("post%03d", i)
		if v, ok, _ := r.Get(ctx, "t", k); !ok || string(v) != "after-compact" {
			t.Fatalf("%s = %q (ok=%v) after reopen", k, v, ok)
		}
	}
}

// TestCrashAnywhere crashes the engine after every mutating file-system
// call of the shared workload, in both images (enginetest.CrashAnywhere).
// The workload must reach the three moments Compact once named for crash
// injection, each after the mutating call where it stood:
//
//	mid-reappend  a write of re-appended live records, another still to go
//	appended      the sync of the active segment after the re-append, before the first unlink
//	mid-unlink    the unlink of a victim segment, another still to go
func TestCrashAnywhere(t *testing.T) {
	compacting := func(c []enginetest.Call, i int, op string) bool {
		return i < len(c) && c[i].Op == op && c[i].Phase == "compact"
	}
	enginetest.CrashAnywhere(t, enginetest.Crash{
		Open: func(fsys *enginetest.MemFS, dir string) (enginetest.Engine, error) {
			b, err := open(fsys, dir, Options{SegmentBytes: 1 << 10})
			if err != nil {
				return nil, err
			}
			return b, nil
		},
		DataGlobs:   []string{"seg-*.log"},
		DebrisGlobs: []string{"*.cmp", "*.tmp"},
		Points: []enginetest.Point{
			{Name: "mid-reappend", At: func(c []enginetest.Call, i int) bool {
				if !compacting(c, i, "write") {
					return false
				}
				for i++; i < len(c) && c[i].Phase == "compact" && c[i].Op != "remove"; i++ {
					if c[i].Op == "write" {
						return true
					}
				}
				return false
			}},
			{Name: "appended", At: func(c []enginetest.Call, i int) bool {
				return compacting(c, i, "sync") && compacting(c, i+1, "remove")
			}},
			{Name: "mid-unlink", At: func(c []enginetest.Call, i int) bool {
				return compacting(c, i, "remove") && compacting(c, i+1, "remove")
			}},
		},
	})
}

// betweenBatches is a context whose third Err call — Compact asks once on
// entry and once before each batch, outside every lock — runs do: between
// the first batch and the second.
type betweenBatches struct {
	context.Context
	calls int
	do    func()
}

func (c *betweenBatches) Err() error {
	if c.calls++; c.calls == 3 {
		c.do()
	}
	return nil
}

// TestCompactAbandonedAcrossReset: a Reset between two batches of a
// compaction unlinks its victims; the compaction stops without an error and
// without appending a wiped record, and the directory reopens empty.
func TestCompactAbandonedAcrossReset(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{SegmentBytes: 4 << 10})
	overwriteWorkload(t, b, 200, 4)
	ctx := &betweenBatches{Context: context.Background()}
	ctx.do = func() {
		if err := b.Reset(context.Background()); err != nil {
			t.Error(err)
		}
	}
	st, err := b.Compact(ctx)
	if err != nil || ctx.calls < 3 {
		t.Fatalf("compaction across a Reset: %v after %d context checks", err, ctx.calls)
	}
	if st.LiveBytes != 0 || st.Segments != 1 || b.BytesStored() != 0 {
		t.Fatalf("after the Reset: %+v, %d bytes stored", st, b.BytesStored())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, Options{SegmentBytes: 4 << 10})
	defer r.Close()
	if tables, err := r.Tables(context.Background()); err != nil || len(tables) != 0 {
		t.Fatalf("tables after Reset and reopen: %v (%v)", tables, err)
	}
}

// TestCompactSkipsWhatChangedMeanwhile: keys overwritten or deleted after
// the victims were listed and before their batch lands are squeezed out of
// the batch, wherever in it they sit; the newer write stands, live and after
// a reopen.
func TestCompactSkipsWhatChangedMeanwhile(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{SegmentBytes: 4 << 10})
	const nKeys = 200
	want := overwriteWorkload(t, b, nKeys, 4)
	ctx := &betweenBatches{Context: context.Background()}
	ctx.do = func() {
		for i := nKeys / 10; i < nKeys; i++ { // the first tenth is deleted already
			k := fmt.Sprintf("k%04d", i)
			switch i % 4 { // 2 and 3 stay: kept records follow squeezed ones, and each other
			case 0:
				want[k] = k + " newer"
				if err := b.Put(context.Background(), "t", k, []byte(want[k])); err != nil {
					t.Error(err)
				}
			case 1:
				delete(want, k)
				if err := b.Delete(context.Background(), "t", k); err != nil {
					t.Error(err)
				}
			}
		}
	}
	st, err := b.Compact(ctx)
	if err != nil || ctx.calls < 4 {
		t.Fatalf("compaction: %v after %d context checks", err, ctx.calls)
	}
	if got := diskBytes(t, dir); got != st.DiskBytes {
		t.Fatalf("stats say %d disk bytes, filesystem says %d", st.DiskBytes, got)
	}
	verifyState(t, b, nKeys, want)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, Options{SegmentBytes: 4 << 10})
	defer r.Close()
	verifyState(t, r, nKeys, want)
}

// TestCompactConcurrentWrites: writes racing a compaction land in the active
// segment and are never lost or regressed by the index swap.
func TestCompactConcurrentWrites(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := openT(t, dir, Options{SegmentBytes: 4 << 10})
	defer b.Close()
	const nKeys = 200
	overwriteWorkload(t, b, nKeys, 4)

	done := make(chan error, 1)
	go func() {
		// Overwrite a slice of the keyspace while the compaction runs; the
		// swap's ref equality check must keep these newer values.
		var err error
		for rev := 0; rev < 20 && err == nil; rev++ {
			for i := 50; i < 100 && err == nil; i++ {
				k := fmt.Sprintf("k%04d", i)
				err = b.Put(ctx, "t", k, []byte(fmt.Sprintf("%s racing-%d", k, rev)))
			}
		}
		done <- err
	}()
	if _, err := b.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 100; i++ {
		k := fmt.Sprintf("k%04d", i)
		v, ok, err := b.Get(ctx, "t", k)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = ok=%v err=%v", k, ok, err)
		}
		if want := fmt.Sprintf("%s racing-19", k); string(v) != want {
			t.Fatalf("%s = %q, want %q", k, v, want)
		}
	}
}

// TestTornCompactHeaderDoesNotSupersede: a freshly rotated segment whose
// first record is torn holds nothing — whatever its kind byte reads — and
// every older segment replays as it was. The scanner hands replay no record
// that fails its CRC.
func TestTornCompactHeaderDoesNotSupersede(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{SegmentBytes: 4 << 10})
	const nKeys = 100
	want := overwriteWorkload(t, b, nKeys, 2)
	if len(b.segs) < 2 {
		t.Fatal("test needs multiple segments")
	}
	lastID := b.segs[len(b.segs)-1].id
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-first-write of a freshly rotated segment: frame
	// length 3, bogus CRC, body {3, 0, 0}.
	torn := []byte{3, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 3, 0, 0}
	tornPath := filepath.Join(dir, fmt.Sprintf("seg-%06d.log", lastID+1))
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{SegmentBytes: 4 << 10})
	defer r.Close()
	verifyState(t, r, nKeys, want)
}
