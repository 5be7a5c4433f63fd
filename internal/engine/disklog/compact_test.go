package disklog

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// TestCompactCrashRecovery injects a crash at each of Compact's dangerous
// points (via the shared enginetest harness) and proves reopening the
// directory reads exactly the pre-compaction contents, deleted keys still
// deleted:
//
//   - mid-reappend: half of the victims' live records are in the active
//     segment a second time, unsynced; every victim is intact.
//   - appended: all of them are, fsynced; no victim is unlinked.
//   - mid-unlink: the older half of the victims is gone; replay reads a
//     suffix of the log.
//
// No point leaves a file that is not a segment (the .cmp side file of
// earlier builds is never created).
func TestCompactCrashRecovery(t *testing.T) {
	enginetest.CompactCrashRecovery(t, enginetest.Harness{
		Open: func(t *testing.T, dir string) enginetest.Crasher {
			return openT(t, dir, Options{SegmentBytes: 4 << 10})
		},
		Points:      []string{"mid-reappend", "appended", "mid-unlink"},
		CrashErr:    ErrCrashed,
		DebrisGlobs: []string{"seg-*.log.cmp", "*.tmp"},
		DiskBytes:   diskBytes,
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

// TestTornCompactHeaderDoesNotSupersede: deciding that a segment was
// compacted into by an earlier build forgets and unlinks every
// lower-numbered segment, so that decision must never be made from a torn
// or corrupt first record — even one whose kind byte happens to read
// recCompactBegin. A genuine one always passes its CRC (that build fsynced
// the file before the committing rename), and the scanner hands replay
// nothing that does not.
func TestTornCompactHeaderDoesNotSupersede(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{SegmentBytes: 4 << 10})
	const nKeys = 100
	want := overwriteWorkload(t, b, nKeys, 2)
	if b.Segments() < 2 {
		t.Fatal("test needs multiple segments")
	}
	lastID := b.segs[len(b.segs)-1].id
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-first-write of a freshly rotated segment whose
	// garbage kind byte reads recCompactBegin: frame length 3, bogus CRC,
	// body {recCompactBegin, 0, 0}.
	torn := []byte{3, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, recCompactBegin, 0, 0}
	tornPath := filepath.Join(dir, fmt.Sprintf("seg-%06d.log", lastID+1))
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{SegmentBytes: 4 << 10})
	defer r.Close()
	verifyState(t, r, nKeys, want)
}

// The segments of a directory as a build before the re-append protocol left
// it, byte for byte (frame = length, crc32, body; body = kind, table "t",
// key, value). Segment 0 and 1 are sealed, 2 is active; legacyRewrite is
// what that build's Compact made of 0 and 1 — their live records between a
// recCompactBegin and a recCompactEnd, the tombstone of "a" dropped — first
// as seg-000001.log.cmp, then renamed over seg-000001.log.
const (
	legacySeg0 = "0700000058ed835701017401616130" + "07000000c200e87e01017401626230" + legacyPutC // put a=a0, b=b0, c=c0
	legacySeg1 = "050000001b6308740201740161" + legacyPutB1                                       // delete a, put b=b1
	legacySeg2 = "07000000f6db3f2c01017401646430"                                                 // put d=d0

	legacyBegin   = "030000004b6707fd030000"
	legacyEnd     = "03000000ce7148f8040000"
	legacyPutC    = "07000000b45b316601017401636330"
	legacyPutB1   = "070000005430ef0901017401626231"
	legacyRewrite = legacyBegin + legacyPutC + legacyPutB1 + legacyEnd
)

// TestLegacyCompactionStates: one fixture per state an interrupted (or
// finished) compaction of an earlier build can have left, built from
// literal bytes. Each opens to the contents that build would have
// recovered — "a" stays deleted — leaves only segments behind, compacts,
// and reopens to the same.
func TestLegacyCompactionStates(t *testing.T) {
	want := map[string]string{"b": "b1", "c": "c0", "d": "d0"}
	for _, tc := range []struct {
		name  string
		files map[string]string
		gone  []string // files the first Open must remove
	}{
		{"unsealed-cmp", map[string]string{
			"seg-000000.log": legacySeg0, "seg-000001.log": legacySeg1, "seg-000002.log": legacySeg2,
			"seg-000001.log.cmp": legacyBegin + legacyPutC + legacyPutB1[:12],
		}, []string{"seg-000001.log.cmp"}},
		{"sealed-cmp", map[string]string{
			"seg-000000.log": legacySeg0, "seg-000001.log": legacySeg1, "seg-000002.log": legacySeg2,
			"seg-000001.log.cmp": legacyRewrite,
		}, []string{"seg-000001.log.cmp", "seg-000000.log"}},
		// That build's recovery unlinked the victims before it renamed the
		// sealed file; dying in between, it left records only the file holds.
		{"sealed-cmp-victims-partly-gone", map[string]string{
			"seg-000001.log": legacySeg1, "seg-000002.log": legacySeg2,
			"seg-000001.log.cmp": legacyRewrite,
		}, []string{"seg-000001.log.cmp"}},
		{"sealed-cmp-victims-gone", map[string]string{
			"seg-000002.log":     legacySeg2,
			"seg-000001.log.cmp": legacyRewrite,
		}, []string{"seg-000001.log.cmp"}},
		// Plain replay of this one would bring "a" back: its tombstone went
		// with the rewrite, its put is still in the leftover.
		{"marker-led-above-leftover", map[string]string{
			"seg-000000.log": legacySeg0, "seg-000001.log": legacyRewrite, "seg-000002.log": legacySeg2,
		}, []string{"seg-000000.log"}},
		{"finished", map[string]string{
			"seg-000001.log": legacyRewrite, "seg-000002.log": legacySeg2,
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			for name, hexBytes := range tc.files {
				raw, err := hex.DecodeString(hexBytes)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			check := func(b *Backend) {
				t.Helper()
				got := map[string]string{}
				if err := b.Scan(ctx, "t", func(k string, v []byte) bool { got[k] = string(v); return true }); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("contents %v, want %v", got, want)
				}
			}
			b := openT(t, dir, Options{})
			check(b)
			for _, name := range tc.gone {
				if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
					t.Fatalf("%s survived Open (%v)", name, err)
				}
			}
			if tc.name == "finished" {
				// The markers are live bytes: nothing here is reclaimable.
				if st, err := b.CompactionStats(ctx); err != nil || st.LiveBytes != st.DiskBytes {
					t.Fatalf("stats of a finished legacy compaction: %+v (%v)", st, err)
				}
			}
			if err := b.Put(ctx, "t", "d", []byte("d0")); err != nil { // a dead byte for Compact to find
				t.Fatal(err)
			}
			if _, err := b.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			check(b)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			r := openT(t, dir, Options{})
			defer r.Close()
			check(r)
		})
	}
}
