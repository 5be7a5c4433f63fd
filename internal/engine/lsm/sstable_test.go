package lsm

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rstore/internal/codec"
	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

// reseal returns data with every checksum right that its footer and index
// locate — the blocks', the index's, the bloom filter's and the footer's own
// — and the magic in place, so what a decoder meets behind the checksums is
// exactly what the rest of data says. Handles out of the file are left be.
func reseal(data []byte) []byte {
	data = slices.Clone(data)
	size := uint64(len(data))
	if size < sstFooterSize {
		return data
	}
	footer := data[size-sstFooterSize:]
	handle := func(i int) (off, n uint64) {
		return binary.LittleEndian.Uint64(footer[16*i:]), binary.LittleEndian.Uint64(footer[16*i+8:])
	}
	body := func(off, n uint64) []byte {
		if n < 4 || off > size || n > size-off {
			return nil
		}
		return data[off : off+n-4]
	}
	seal := func(off, n uint64) {
		if b := body(off, n); b != nil {
			binary.LittleEndian.PutUint32(data[off+n-4:], crc32.ChecksumIEEE(b))
		}
	}
	// The blocks first: one's checksum may land in the index, whose own
	// checksum then covers it.
	for rest := body(handle(0)); len(rest) > 0; {
		var off, n uint64
		var err error
		if _, rest, err = codec.Bytes(rest); err == nil {
			if off, rest, err = codec.Uvarint(rest); err == nil {
				n, rest, err = codec.Uvarint(rest)
			}
		}
		if err != nil {
			break
		}
		seal(off, n)
	}
	seal(handle(0))
	seal(handle(1))
	binary.LittleEndian.PutUint32(footer[32:], crc32.ChecksumIEEE(footer[:32]))
	binary.LittleEndian.PutUint32(footer[36:], sstMagic)
	return data
}

// layTable lays data blocks (bodies, without checksums) out as a table file
// behind the given index entries, with an empty bloom filter, which excludes
// nothing; its checksums are reseal's to fill in.
func layTable(blocks [][]byte, index []byte) []byte {
	var file []byte
	for _, b := range blocks {
		file = append(file, b...)
		file = append(file, 0, 0, 0, 0)
	}
	indexOff := uint64(len(file))
	file = append(append(file, index...), 0, 0, 0, 0)
	bloomOff := uint64(len(file))
	file = append(file, 0, 0, 0, 0)
	for _, u := range []uint64{indexOff, bloomOff - indexOff, bloomOff, 4} {
		file = binary.LittleEndian.AppendUint64(file, u)
	}
	return reseal(append(file, make([]byte, 8)...))
}

// oneEntryBlock is a data block body holding one entry with the given
// header fields, followed by tail (kind, key suffix and value).
func oneEntryBlock(shared, unshared, vlen uint64, tail string) []byte {
	b := codec.PutUvarint(nil, shared)
	b = codec.PutUvarint(b, unshared)
	b = codec.PutUvarint(b, vlen)
	b = append(b, tail...)
	b = binary.LittleEndian.AppendUint32(b, 0) // restart at offset 0
	return binary.LittleEndian.AppendUint32(b, 1)
}

// indexEntryBytes is one index entry for the block at (off, n).
func indexEntryBytes(lastKey string, off, n uint64) []byte {
	return codec.PutUvarint(codec.PutUvarint(codec.PutString(nil, lastKey), off), n)
}

// corruptTables are tables with every checksum right whose numbers — a
// footer handle, an index handle, an entry's key or value length — are out
// of bounds only once a sum wraps or a conversion goes negative.
func corruptTables() []struct {
	name string
	data []byte
} {
	good := oneEntryBlock(0, 1, 1, "\x01kv")
	wrapped := layTable([][]byte{good}, indexEntryBytes("k", 0, uint64(len(good))+4))
	footer := wrapped[len(wrapped)-sstFooterSize:]
	for i := 0; i < 2; i++ {
		binary.LittleEndian.PutUint64(footer[8*i:], 1<<62) // the index handle: off + len = 2^63
	}
	sharedBlock := oneEntryBlock(1<<63, 1, 0, "\x01k")
	sumBlock := oneEntryBlock(0, 1, 1<<64-1, "\x01k")
	return []struct {
		name string
		data []byte
	}{
		{"footer handle sum wraps", reseal(wrapped)},
		{"index handle length 2^63", layTable(nil, indexEntryBytes("k", 0, 1<<63))},
		{"entry shares 2^63 bytes", layTable([][]byte{sharedBlock}, indexEntryBytes("k", 0, uint64(len(sharedBlock))+4))},
		{"entry lengths sum wraps", layTable([][]byte{sumBlock}, indexEntryBytes("k", 0, uint64(len(sumBlock))+4))},
	}
}

// readTable opens data as a table, walks it, and looks up every key the walk
// saw, returning the first error.
func readTable(t *testing.T, data []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sst-000001.sst")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := openSSTable(reclog.OS, path, 1)
	if err != nil {
		return err
	}
	defer st.close()
	var keys [][]byte
	it, err := st.iter(nil)
	for err == nil && it.valid() {
		keys = append(keys, slices.Clone(it.key()))
		err = it.next()
	}
	for _, k := range keys {
		if err == nil {
			_, _, _, err = st.get(k, nil)
		}
	}
	return err
}

// TestSSTableDecodeBounds: numbers a table's checksums vouch for are still
// bounds-checked without wrapping, and a table whose numbers point outside
// it is refused as corrupt.
func TestSSTableDecodeBounds(t *testing.T) {
	for _, c := range corruptTables() {
		t.Run(c.name, func(t *testing.T) {
			if err := readTable(t, c.data); !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("read gives %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzOpenSSTable: a table file whose checksums are all right, whatever its
// numbers say, opens, walks and answers point reads or is refused as
// corrupt — it never panics.
func FuzzOpenSSTable(f *testing.F) {
	path := filepath.Join(f.TempDir(), "sst-000001.sst")
	sw, err := newSSTWriter(reclog.OS, path)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := sw.add([]byte{'k', byte('a' + i/26), byte('a' + i%26)}, []byte("value"), i%7 == 3); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.finish(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, c := range corruptTables() {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := readTable(t, reseal(data)); err != nil && !errors.Is(err, types.ErrCorrupt) {
			t.Fatalf("refused with %v, want ErrCorrupt", err)
		}
	})
}

// TestOpenSSTableClosesOnError: a table refused as corrupt — truncated, or
// with a checksum that fails — leaves no file open, and one opened holds
// one until it is closed.
func TestOpenSSTableClosesOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sst-000001.sst")
	sw, err := newSSTWriter(reclog.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := sw.add([]byte{'k', byte('a' + i/26), byte('a' + i%26)}, []byte("value"), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.finish(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	indexOff := binary.LittleEndian.Uint64(good[len(good)-sstFooterSize:])
	flip := func(at int) []byte {
		data := slices.Clone(good)
		data[at] ^= 0xff
		return data
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"shorter than a footer", good[:sstFooterSize-1]},
		{"truncated", good[:len(good)/2]},
		{"first block checksum", flip(0)},
		{"index checksum", flip(int(indexOff))},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			fsys := &countingFS{FS: reclog.OS}
			if _, err := openSSTable(fsys, path, 1); !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("open gives %v, want ErrCorrupt", err)
			}
			if n := fsys.open.Load(); n != 0 {
				t.Fatalf("%d files left open", n)
			}
		})
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := &countingFS{FS: reclog.OS}
	st, err := openSSTable(fsys, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := fsys.open.Load(); n != 1 {
		t.Fatalf("an open table holds %d files", n)
	}
	if err := st.close(); err != nil || fsys.open.Load() != 0 {
		t.Fatalf("closed: %v, %d files open", err, fsys.open.Load())
	}
}
