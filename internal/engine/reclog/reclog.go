// Package reclog owns lsm's durable files below the engine itself: the
// checksummed record frame of an lsm write-ahead log (the remote wire's
// frame too), one scanner over a file of such frames, the put/delete body
// lsm writes, and the file-system seam it writes through (FS, with OS the
// host's) with its directory discipline — the lock, the directory fsync,
// the durable creation of a directory, and the atomic replacement of a small
// file. Normative byte layouts are in docs/FORMATS.md.
//
//	frame := length(uint32 LE, of body) crc32(uint32 LE, IEEE, of body) body
//	body  := kind(1 byte) table(uvarint-len string) key(uvarint-len string) value
//	kind  := 1 (put: value is the rest of the body) | 2 (delete: no value)
//
// Every other kind belongs to the engine that writes it.
package reclog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"rstore/internal/codec"
	"rstore/internal/types"
)

const (
	// FrameSize is the fixed record prefix: body length + body checksum.
	FrameSize = 8
	// MaxBody bounds a record body (1 GiB). Scan takes a larger length for
	// a torn tail, so CheckBody refuses such a body before it is written.
	MaxBody = 1 << 30

	KindPut byte = 1
	KindDel byte = 2
)

// CheckBody refuses a body of n bytes above MaxBody: written, fsynced and
// acknowledged, it would end Scan and be dropped with every record behind
// it. A hard error — no retry and no other replica can help.
func CheckBody(n int) error {
	if n > MaxBody {
		return fmt.Errorf("reclog: record body of %d bytes exceeds the %d-byte limit", n, MaxBody)
	}
	return nil
}

// PutHeader writes the frame header of body — its length and checksum — into
// hdr[:FrameSize]: the hole in front of the body, or (the wire protocol,
// which frames its messages the same way) a buffer of its own.
func PutHeader(hdr, body []byte) { PutHeaderOf(hdr, len(body), crc32.ChecksumIEEE(body)) }

// PutHeaderOf writes the frame header of a body of n bytes whose checksum is
// sum: crc32.ChecksumIEEE of the body, or crc32.Update over its pieces in
// turn where the body is written as pieces (the wire's requests).
func PutHeaderOf(hdr []byte, n int, sum uint32) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], sum)
}

// Intact reports whether body is what hdr was written for.
func Intact(hdr, body []byte) bool {
	return uint32(len(body)) == binary.LittleEndian.Uint32(hdr[0:4]) &&
		crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(hdr[4:8])
}

// BodyLen is the length AppendBody gives a put (with no value, a delete).
func BodyLen(table, key string, valueLen int) int {
	return 1 + codec.BytesLen(len(table)) + codec.BytesLen(len(key)) + valueLen
}

// AppendBody appends a put or delete body to dst; the value is its tail.
func AppendBody(dst []byte, kind byte, table, key string, value []byte) []byte {
	dst = append(dst, kind)
	dst = codec.PutString(dst, table)
	dst = codec.PutString(dst, key)
	return append(dst, value...)
}

// ParseBody decodes what AppendBody wrote; value aliases body. Any other
// kind, and a delete that carries a value, is corruption.
func ParseBody(body []byte) (kind byte, table, key string, value []byte, err error) {
	if len(body) == 0 || (body[0] != KindPut && body[0] != KindDel) {
		return 0, "", "", nil, fmt.Errorf("%w: record kind", types.ErrCorrupt)
	}
	kind = body[0]
	table, rest, terr := codec.String(body[1:])
	key, value, kerr := codec.String(rest)
	if terr != nil || kerr != nil {
		return 0, "", "", nil, fmt.Errorf("%w: record table or key", types.ErrCorrupt)
	}
	if kind == KindDel && len(value) != 0 {
		return 0, "", "", nil, fmt.Errorf("%w: delete record with a value", types.ErrCorrupt)
	}
	return kind, table, key, value, nil
}

// Scan visits the intact frames at the front of the size-byte file r: visit
// gets each body (never empty; valid until it returns) and the body's offset
// in the file. It returns where the intact prefix ends — size, or the offset
// of the first frame that is cut short, fails its checksum, or states a
// length of zero or above MaxBody. What that means is the caller's verdict:
// a torn tail to drop (DropTail) or corruption. A body is allocated only
// once its stated length is known to fit in the file.
func Scan(r io.ReaderAt, size int64, visit func(body []byte, off int64) error) (end int64, err error) {
	var hdr [FrameSize]byte
	var body []byte
	for end+FrameSize <= size {
		if _, err := r.ReadAt(hdr[:], end); err != nil {
			return end, err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if n < 1 || n > MaxBody || end+FrameSize+n > size {
			break
		}
		if int64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := r.ReadAt(body, end+FrameSize); err != nil {
			return end, err
		}
		if !Intact(hdr[:], body) {
			break
		}
		if err := visit(body, end+FrameSize); err != nil {
			return end, err
		}
		end += FrameSize + n
	}
	return end, nil
}

// DropTail cuts f back to the end Scan reported and fsyncs, so the next
// append starts on a clean frame and the cut itself survives a crash.
func DropTail(f File, end int64) error {
	if err := f.Truncate(end); err != nil {
		return err
	}
	return f.Sync()
}

// FS is the one file-system seam of the disk engine: lsm and
// WriteFileAtomic make every file operation through it, so that a test can
// put a disk that knows what is synced under them (enginetest.MemFS) and
// crash them after any call. OS is the host's.
type FS interface {
	// OpenFile opens or creates name with os.OpenFile's flags.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// ReadDir lists the names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Mkdir creates one directory: fs.ErrExist if it exists, fs.ErrNotExist
	// if its parent does not. Callers create through MkdirAll.
	Mkdir(dir string) error
	// SyncDir fsyncs a directory, making its entries — files created,
	// renamed or unlinked in it — durable.
	SyncDir(dir string) error
	// Lock takes an exclusive, non-blocking lock on dir: one process per
	// data directory. Closing releases it, and it dies with the process, so
	// a crash never wedges the directory.
	Lock(dir string) (io.Closer, error)
}

// File is an open file of an FS. Its methods are declared here, not
// embedded, so that the analyzers can tell a write or sync through the
// seam from any other io.Writer's.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// MkdirAll creates dir and every missing parent, and syncs the parent of
// each directory it creates: a data directory a power loss can take takes
// every acknowledged write with it.
func MkdirAll(fsys FS, dir string) error {
	err := fsys.Mkdir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		if err = MkdirAll(fsys, filepath.Dir(dir)); err == nil {
			err = fsys.Mkdir(dir)
		}
	}
	if errors.Is(err, fs.ErrExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(dir))
}

// ReadFile returns the contents of the file at path.
func ReadFile(fsys FS, path string) ([]byte, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(io.NewSectionReader(f, 0, math.MaxInt64))
}

// WriteFileAtomic replaces the file at path with what write produces: the
// bytes go to path+".tmp", are fsynced, renamed over path, and the directory
// is fsynced. A crash or a failed write leaves the previous file (or none)
// and at most a stale .tmp, which the next call truncates.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err == nil {
		err = fsys.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
