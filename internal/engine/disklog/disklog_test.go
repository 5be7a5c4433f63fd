package disklog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

func openT(t *testing.T, dir string, opts Options) *Backend {
	t.Helper()
	b, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReopenRecovers is the crash-recovery contract: everything committed —
// puts, batches, overwrites, deletes — must come back identically after
// Close + Open, including the BytesStored accounting.
func TestReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{})

	var entries []engine.Entry
	for i := 0; i < 100; i++ {
		entries = append(entries, engine.Entry{
			Key:   fmt.Sprintf("k%03d", i),
			Value: []byte(fmt.Sprintf("value-%03d", i)),
		})
	}
	if err := b.BatchPut(context.Background(), "chunks", entries); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(context.Background(), "meta", "manifest", []byte("m1")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(context.Background(), "meta", "manifest", []byte("manifest-2")); err != nil { // overwrite
		t.Fatal(err)
	}
	if err := b.Delete(context.Background(), "chunks", "k050"); err != nil {
		t.Fatal(err)
	}
	wantBytes := b.BytesStored()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{})
	defer r.Close()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		v, ok, err := r.Get(context.Background(), "chunks", k)
		if err != nil {
			t.Fatal(err)
		}
		if i == 50 {
			if ok {
				t.Fatalf("deleted key %s resurrected as %q", k, v)
			}
			continue
		}
		if want := fmt.Sprintf("value-%03d", i); !ok || string(v) != want {
			t.Fatalf("%s = %q (ok=%v), want %q", k, v, ok, want)
		}
	}
	if v, ok, _ := r.Get(context.Background(), "meta", "manifest"); !ok || string(v) != "manifest-2" {
		t.Fatalf("manifest = %q (ok=%v)", v, ok)
	}
	if got := r.BytesStored(); got != wantBytes {
		t.Fatalf("BytesStored after reopen = %d, want %d", got, wantBytes)
	}
}

func TestSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 60; i++ {
		if err := b.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(b.segs); n < 2 {
		t.Fatalf("no rotation happened: %d segments", n)
	}
	// Overwrites land in later segments and must shadow earlier ones.
	if err := b.Put(context.Background(), "t", "k00", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{SegmentBytes: 256})
	defer r.Close()
	if len(r.segs) < 2 {
		t.Fatalf("reopen lost segments: %d", len(r.segs))
	}
	if v, ok, _ := r.Get(context.Background(), "t", "k00"); !ok || string(v) != "new" {
		t.Fatalf("k00 = %q (ok=%v), want new", v, ok)
	}
	for i := 1; i < 60; i++ {
		k := fmt.Sprintf("k%02d", i)
		if v, ok, _ := r.Get(context.Background(), "t", k); !ok || string(v) != fmt.Sprintf("value-%02d", i) {
			t.Fatalf("%s = %q (ok=%v)", k, v, ok)
		}
	}
}

// TestTornTailTruncated simulates a crash mid-append: garbage after the last
// whole record must be discarded on replay without losing committed data.
func TestTornTailTruncated(t *testing.T) {
	for _, tail := range map[string][]byte{
		"garbage":        []byte("\xde\xad\xbe\xef"),
		"partial-header": {0xff, 0x00, 0x00},
		"giant-length":   {0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8},
	} {
		b := openT(t, t.TempDir(), Options{})
		dir := b.dir
		if err := b.Put(context.Background(), "t", "committed", []byte("safe")); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, "seg-000000.log"), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		r := openT(t, dir, Options{})
		if v, ok, _ := r.Get(context.Background(), "t", "committed"); !ok || string(v) != "safe" {
			t.Fatalf("committed record lost to torn tail: %q (ok=%v)", v, ok)
		}
		// The tail was truncated away, so appends resume cleanly.
		if err := r.Put(context.Background(), "t", "after", []byte("crash")); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r2 := openT(t, dir, Options{})
		if v, ok, _ := r2.Get(context.Background(), "t", "after"); !ok || string(v) != "crash" {
			t.Fatalf("post-truncation append lost: %q (ok=%v)", v, ok)
		}
		r2.Close()
	}
}

// TestCorruptionInOlderSegmentIsFatal: only the tail of the LAST segment may
// be torn; a flipped byte in an older segment is real corruption and must
// refuse to open rather than silently drop data.
func TestCorruptionInOlderSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 30; i++ {
		if err := b.Put(context.Background(), "t", fmt.Sprintf("k%02d", i), []byte("vvvvvvvvvvvvvvvv")); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.segs) < 2 {
		t.Fatal("test needs multiple segments")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "seg-000000.log"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 20); err != nil { // inside the first record's body
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{}); !errors.Is(err, types.ErrCorrupt) {
		t.Fatalf("corrupt older segment opened: %v", err)
	}
}

func TestDeleteMissingWritesNothing(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{})
	if err := b.Delete(context.Background(), "t", "never-existed"); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, "seg-000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("no-op delete appended %d bytes", info.Size())
	}
}

// TestDirectoryLocked: two live backends on one directory would append with
// independent offsets and shred committed records; the second open must be
// refused until the first closes.
func TestDirectoryLocked(t *testing.T) {
	dir := t.TempDir()
	b := openT(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second open of a locked directory succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := openT(t, dir, Options{})
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStraySegmentFileRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-zzz.log"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("stray segment file accepted")
	}
}

// TestRefusesOversizeRecord: a record body above reclog.MaxBody would be
// written, fsynced and acknowledged, and then end replay as a torn tail.
// recordLen refuses it with a hard error before anything is written —
// checked through the size function, not a gigabyte value — and otherwise
// reports exactly what appendRecord writes, which is what sizes BatchPut's
// buffer.
func TestRefusesOversizeRecord(t *testing.T) {
	fixed := 1 + 1 + len("tbl") + 1 + len("key") // the body besides the value: kind, two prefixed strings
	if n, err := recordLen("tbl", "key", reclog.MaxBody-fixed); err != nil || n != reclog.FrameSize+reclog.MaxBody {
		t.Fatalf("a body of exactly MaxBody: length %d, %v", n, err)
	}
	_, err := recordLen("tbl", "key", reclog.MaxBody-fixed+1)
	if err == nil || errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("a body of MaxBody+1: %v, want a hard error", err)
	}
	value := make([]byte, 300)
	rec := appendRecord(nil, reclog.KindPut, "tbl", "key", value)
	if n, err := recordLen("tbl", "key", len(value)); err != nil || n != len(rec) {
		t.Fatalf("recordLen = %d (%v), appendRecord wrote %d bytes", n, err, len(rec))
	}
}
