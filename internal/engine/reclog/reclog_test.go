package reclog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rstore/internal/types"
)

// record frames one put or delete the way lsm does.
func record(kind byte, table, key string, value []byte) []byte {
	rec := AppendBody(make([]byte, FrameSize), kind, table, key, value)
	PutHeader(rec, rec[FrameSize:])
	return rec
}

// boundedReader fails the test when a read reaches past the file: the buffer
// Scan reads into is the allocation it sized, so this is the allocbound
// check — no allocation from a length that was not first held against the
// file's size.
type boundedReader struct {
	t    *testing.T
	data []byte
}

func (r boundedReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(r.data)) {
		r.t.Fatalf("read of %d bytes at %d in a file of %d", len(p), off, len(r.data))
	}
	return copy(p, r.data[off:]), nil
}

func scanAll(t *testing.T, data []byte) (end int64, bodies [][]byte) {
	t.Helper()
	end, err := Scan(boundedReader{t, data}, int64(len(data)), func(body []byte, off int64) error {
		if len(body) == 0 || !bytes.Equal(body, data[off:off+int64(len(body))]) {
			t.Fatalf("body of %d bytes at %d is not the file's", len(body), off)
		}
		bodies = append(bodies, append([]byte(nil), body...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return end, bodies
}

func TestScanStopsAtTheFirstBrokenFrame(t *testing.T) {
	a, b, c := record(KindPut, "t", "a", []byte("one")), record(KindDel, "t", "a", nil), record(KindPut, "t", "b", nil)
	whole := bytes.Join([][]byte{a, b, c}, nil)
	huge := binary.LittleEndian.AppendUint32(nil, MaxBody+1)
	badCRC := append([]byte(nil), whole...)
	badCRC[len(a)+FrameSize] ^= 0xff // the delete's kind byte
	for name, tc := range map[string]struct {
		data   []byte
		end    int
		frames int
	}{
		"whole":        {whole, len(whole), 3},
		"empty":        {nil, 0, 0},
		"torn-header":  {append(append([]byte(nil), whole...), 9, 0, 0), len(whole), 3},
		"torn-body":    {whole[:len(whole)-1], len(a) + len(b), 2},
		"bad-crc":      {badCRC, len(a), 1},
		"huge-length":  {append(append(append([]byte(nil), a...), huge...), 1, 2, 3, 4, 5), len(a), 1},
		"zeroed-tail":  {append(append([]byte(nil), a...), make([]byte, 64)...), len(a), 1},
		"only-garbage": {[]byte("\xde\xad\xbe\xef\x00\x01\x02\x03\x04"), 0, 0},
	} {
		end, bodies := scanAll(t, tc.data)
		if end != int64(tc.end) || len(bodies) != tc.frames {
			t.Errorf("%s: %d frames ending at %d, want %d ending at %d", name, len(bodies), end, tc.frames, tc.end)
		}
	}

	// The visitor's error stops the scan where it stands.
	stop := errors.New("stop")
	end, err := Scan(bytes.NewReader(whole), int64(len(whole)), func([]byte, int64) error { return stop })
	if !errors.Is(err, stop) || end != 0 {
		t.Fatalf("visitor error: end %d, %v", end, err)
	}
}

// FuzzScanFrames: over arbitrary bytes Scan does not panic, reads nothing it
// did not first bound by the file's size (boundedReader), and reports a
// prefix that scans again to the same frames and no tail.
func FuzzScanFrames(f *testing.F) {
	a, b := record(KindPut, "tbl", "key", []byte("value")), record(KindDel, "tbl", "key", nil)
	whole := append(append([]byte(nil), a...), b...)
	badCRC := append(append([]byte(nil), whole...), a...)
	badCRC[len(a)+FrameSize+2] ^= 1
	f.Add(whole)
	f.Add(append(append([]byte(nil), whole...), 5, 0, 0))                   // torn header
	f.Add(whole[:len(whole)-2])                                             // torn body
	f.Add(badCRC)                                                           // bad CRC mid-file
	f.Add(append(binary.LittleEndian.AppendUint32(a, MaxBody+1), whole...)) // a MaxBody+1 length
	f.Fuzz(func(t *testing.T, data []byte) {
		end, bodies := scanAll(t, data)
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("prefix ends at %d of %d", end, len(data))
		}
		again, same := scanAll(t, data[:end])
		if again != end || len(same) != len(bodies) {
			t.Fatalf("prefix of %d bytes and %d frames re-scans to %d bytes and %d frames", end, len(bodies), again, len(same))
		}
		for _, body := range bodies {
			if _, _, _, _, err := ParseBody(body); err != nil && !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("ParseBody: %v is not a corruption error", err)
			}
		}
	})
}

func TestBodyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		kind       byte
		table, key string
		value      []byte
	}{
		{KindPut, "tbl", "key", make([]byte, 300)},
		{KindPut, "", "", nil},
		{KindDel, "tbl", "a-longer-key", nil},
	} {
		body := AppendBody(nil, tc.kind, tc.table, tc.key, tc.value)
		if got := BodyLen(tc.table, tc.key, len(tc.value)); got != len(body) {
			t.Fatalf("BodyLen = %d, AppendBody wrote %d bytes", got, len(body))
		}
		kind, table, key, value, err := ParseBody(body)
		if err != nil || kind != tc.kind || table != tc.table || key != tc.key || !bytes.Equal(value, tc.value) {
			t.Fatalf("ParseBody(%x) = %d %q %q %x, %v", body, kind, table, key, value, err)
		}
	}
	for name, body := range map[string][]byte{
		"empty":             nil,
		"batch-kind":        {3, 0, 0},
		"short-table":       {KindPut, 5, 't'},
		"no-key":            {KindPut, 1, 't'},
		"delete-with-value": AppendBody(nil, KindDel, "t", "k", []byte("v")),
	} {
		if _, _, _, _, err := ParseBody(body); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("%s: %v, want corruption", name, err)
		}
	}
	if err := CheckBody(MaxBody); err != nil {
		t.Fatalf("a body of exactly MaxBody: %v", err)
	}
	if err := CheckBody(MaxBody + 1); err == nil {
		t.Fatal("a body of MaxBody+1 was accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "FILE")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	read := func() string {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(got)
	}
	if err := WriteFileAtomic(OS, path, write("one")); err != nil || read() != "one" {
		t.Fatalf("first write: %v, %q", err, read())
	}
	// A writer that fails half-way leaves the previous file and no .tmp.
	failed := errors.New("disk full")
	err := WriteFileAtomic(OS, path, func(w io.Writer) error {
		io.WriteString(w, "tw")
		return failed
	})
	if !errors.Is(err, failed) || read() != "one" {
		t.Fatalf("failed write: %v, file now %q", err, read())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the failed write left its .tmp: %v", err)
	}
	// A .tmp a crash left behind is overwritten, not appended to.
	if err := os.WriteFile(path+".tmp", []byte("stale and longer"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(OS, path, write("two")); err != nil || read() != "two" {
		t.Fatalf("write over a stale .tmp: %v, %q", err, read())
	}
}

func TestLockExcludes(t *testing.T) {
	dir := t.TempDir()
	l, err := OS.Lock(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OS.Lock(dir); err == nil {
		t.Fatal("second lock of a held directory succeeded")
	}
	l.Close()
	l2, err := OS.Lock(dir)
	if err != nil {
		t.Fatalf("lock after release: %v", err)
	}
	l2.Close()
}

func TestDropTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	rec := record(KindPut, "t", "k", []byte("v"))
	if err := os.WriteFile(path, append(append([]byte(nil), rec...), 1, 2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	end, err := Scan(f, int64(len(rec)+3), func([]byte, int64) error { return nil })
	if err != nil || end != int64(len(rec)) {
		t.Fatalf("Scan: end %d, %v", end, err)
	}
	if err := DropTail(f, end); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, rec) {
		t.Fatalf("file after DropTail: %x, want %x", got, rec)
	}
}
