package lsm

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/reclog"
)

// goldenWAL is the log the encoder before the single-buffer path (PR 19:
// encodeWAL* into Backend.walBuf, re-copied behind a header by
// wal.appendRecord) wrote for the three operations of
// TestWALRecordBytesUnchanged.
const goldenWAL = "0d0000004291009e010374626c04736f6c6f6f6e65" + // put tbl/solo = one
	"1d00000010e298f4030374626c03026b310776616c75652d31026b3200026b3304000102ff" + // batch of three
	"0a000000c4f4334e020374626c04736f6c6f" // delete tbl/solo

// TestWALRecordBytesUnchanged: a put, a batch and a delete framed in the
// WAL's one buffer are byte for byte the records the two-buffer encoder
// wrote, and a log of those bytes replays to the same contents.
func TestWALRecordBytesUnchanged(t *testing.T) {
	ctx := context.Background()
	batch := []engine.Entry{{Key: "k1", Value: []byte("value-1")}, {Key: "k2"}, {Key: "k3", Value: []byte{0, 1, 2, 0xff}}}
	dir := t.TempDir()
	b := openT(t, dir, Options{})
	if err := b.Put(ctx, "tbl", "solo", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := b.BatchPut(ctx, "tbl", batch); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(ctx, "tbl", "solo"); err != nil {
		t.Fatal(err)
	}
	b.Kill()
	golden, err := hex.DecodeString(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "wal-000001.log")
	if got, err := os.ReadFile(log); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("wal bytes (err %v):\n got %x\nwant %x", err, got, golden)
	}

	// The other direction: the old encoder's bytes, replayed.
	if err := os.WriteFile(log, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, Options{})
	defer r.Close()
	for _, e := range batch {
		if v, ok, err := r.Get(ctx, "tbl", e.Key); err != nil || !ok || !bytes.Equal(v, e.Value) {
			t.Fatalf("replayed %s = %x (ok=%v err=%v), want %x", e.Key, v, ok, err, e.Value)
		}
	}
	if _, ok, err := r.Get(ctx, "tbl", "solo"); err != nil || ok {
		t.Fatalf("replayed delete: solo present=%v err=%v", ok, err)
	}
}

// TestWALRefusesOversizeBody: a record body above reclog.MaxBody would be
// written, fsynced and acknowledged, and then dropped by replay as a torn
// tail together with everything after it. It is refused up front with a hard
// error — checked through frame and the size functions it is fed from, not a
// gigabyte of values.
func TestWALRefusesOversizeBody(t *testing.T) {
	w := &wal{}
	if _, err := w.frame(reclog.MaxBody + 1); err == nil || errors.Is(err, engine.ErrUnavailable) || w.buf != nil {
		t.Fatalf("frame(MaxBody+1): %v with a buffer of %d bytes, want a hard error and none", err, cap(w.buf))
	}
	if rec, err := w.frame(64); err != nil || len(rec) != reclog.FrameSize || cap(rec) < reclog.FrameSize+64 {
		t.Fatalf("frame(64): %v, len %d cap %d", err, len(rec), cap(rec))
	}

	// The guard is only as good as the length it is given (reclog tests
	// BodyLen, the length of a put and a delete).
	entries := []engine.Entry{{Key: "k", Value: make([]byte, 300)}, {Key: "", Value: nil}, {Key: "long-key", Value: []byte("v")}}
	if got, want := walBatchLen("tbl", entries), len(encodeWALBatch(nil, "tbl", entries)); got != want {
		t.Fatalf("walBatchLen = %d, encoded body is %d bytes", got, want)
	}
}

// allocated reports the bytes fn allocates (tests of one package run one at
// a time, so the process-wide counter is fn's).
func allocated(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestBatchPutCopiesOnce counts the copies instead of guessing them: the
// first BatchPut of n MiB on a fresh backend keeps n MiB (the memtable's
// copy) and may allocate 1.1 × n MiB on top — the frame buffer, sized once.
// The two-buffer encoder grew walBuf by append and re-copied it: 4.9 × n in
// all on this batch.
func TestBatchPutCopiesOnce(t *testing.T) {
	const n = 4 << 20
	entries := make([]engine.Entry, 4)
	for i := range entries {
		entries[i] = engine.Entry{Key: string(rune('a' + i)), Value: make([]byte, n/len(entries))}
	}
	b := openT(t, t.TempDir(), Options{MemtableBytes: 1 << 30}) // no flush inside the measurement
	defer b.Close()
	got := allocated(func() {
		if err := b.BatchPut(context.Background(), "t", entries); err != nil {
			t.Fatal(err)
		}
	})
	if limit := int64(n + n*11/10); got > limit {
		t.Fatalf("BatchPut of %d bytes allocated %d, want at most %d (the memtable's copy + 1.1 × the batch)", n, got, limit)
	}
}

// TestWALBufferNotPinned: a batch far above engine.ScratchLimit does not
// leave the log holding a frame buffer of its size.
func TestWALBufferNotPinned(t *testing.T) {
	b := openT(t, t.TempDir(), Options{MemtableBytes: 1 << 30}) // the same log before and after
	defer b.Close()
	entries := make([]engine.Entry, 32)
	for i := range entries {
		entries[i] = engine.Entry{Key: string(rune('a' + i)), Value: make([]byte, 1<<20)}
	}
	if err := b.BatchPut(context.Background(), "t", entries); err != nil {
		t.Fatal(err)
	}
	if got := cap(b.runs["t"].log.buf); got > engine.ScratchLimit {
		t.Fatalf("the WAL kept a %d-byte frame buffer after a 32 MiB batch; the bound is %d", got, engine.ScratchLimit)
	}
}
