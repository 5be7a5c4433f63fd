package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"rstore/internal/codec"
	"rstore/internal/engine"
	"rstore/internal/types"
)

// The write-ahead log makes the memtable durable: every mutation is framed,
// checksummed, and appended to wal-<seq>.log before it touches the skiplist.
// The framing is the same as disklog's record format — length(u32 LE),
// crc32(u32 LE), body — so a torn write from a crash can only affect the
// un-acknowledged tail, which replay detects by checksum and truncates.
// A flush retires the whole log at once: once the memtable's contents are
// committed to an SSTable via the MANIFEST, the old log is deleted and a
// fresh empty one takes its place.

const (
	// walFrameSize is the fixed record prefix: body length + body checksum.
	walFrameSize = 8

	// walMaxBody bounds a single record body (1 GiB); larger lengths during
	// replay are treated as torn/corrupt tails, not allocations.
	walMaxBody = 1 << 30

	// walPut/walDel are record kinds: body = kind(1) table(str) key(str)
	// value(rest). A delete carries no value. walBatch frames a whole
	// BatchPut as ONE record — body = kind(1) table(str) count(uvarint)
	// then per entry key(str) value(bytes) — so the single crc32 makes the
	// batch atomic under torn writes: it replays whole or not at all.
	walPut   byte = 1
	walDel   byte = 2
	walBatch byte = 3
)

// wal is an open write-ahead log file positioned at its append offset.
type wal struct {
	f    *os.File
	seq  int64
	size int64
	// synced is the size at the last fsync; sync is free while nothing was
	// appended since (a replayed log starts unsynced: its tail may be in the
	// page cache only).
	synced int64
	buf    []byte // the one frame buffer: header and body of the record being appended
}

func createWAL(path string, seq int64) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	return &wal{f: f, seq: seq}, nil
}

// frame returns the frame buffer, sized once for a body of n bytes and
// emptied behind the header's 8-byte hole; an encodeWAL* function appends
// the body to it and appendFrame writes the result. A body above walMaxBody
// is refused here, before it is written and acknowledged: replayWAL takes
// such a length for a torn tail and drops the record and every one after it.
// A hard error — no retry and no other replica can help.
func (w *wal) frame(n int) ([]byte, error) {
	if n > walMaxBody {
		return nil, fmt.Errorf("lsm: record body of %d bytes exceeds the %d-byte limit", n, walMaxBody)
	}
	if cap(w.buf) < walFrameSize+n {
		w.buf = make([]byte, 0, walFrameSize+n)
	}
	return w.buf[:walFrameSize], nil
}

// appendFrame fills in the header of rec — frame's buffer with a body behind
// the hole — and appends it with one write. Durability is the caller's call:
// sync() after acked batches, nothing after single puts (matching the
// fsync-on-batch contract of engine.Backend).
func (w *wal) appendFrame(rec []byte) error {
	body := rec[walFrameSize:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(body))
	w.buf = engine.TrimScratch(rec)
	if _, err := w.f.WriteAt(rec, w.size); err != nil {
		return fmt.Errorf("lsm: wal append: %w", err)
	}
	w.size += int64(len(rec))
	return nil
}

// walRecordLen is the body length of a put (or, with no value, a delete).
func walRecordLen(table, key string, valueLen int) int {
	return 1 + codec.BytesLen(len(table)) + codec.BytesLen(len(key)) + valueLen
}

// encodeWALPut appends a put record body to dst: walPut table key value.
func encodeWALPut(dst []byte, table, key string, value []byte) []byte {
	dst = append(dst, walPut)
	dst = codec.PutString(dst, table)
	dst = codec.PutString(dst, key)
	return append(dst, value...)
}

// encodeWALDel appends a delete record body to dst: walDel table key.
func encodeWALDel(dst []byte, table, key string) []byte {
	dst = append(dst, walDel)
	dst = codec.PutString(dst, table)
	return codec.PutString(dst, key)
}

// walBatchLen is the body length encodeWALBatch produces.
func walBatchLen(table string, entries []engine.Entry) int {
	n := 1 + codec.BytesLen(len(table)) + codec.UvarintLen(uint64(len(entries)))
	for _, e := range entries {
		n += codec.BytesLen(len(e.Key)) + codec.BytesLen(len(e.Value))
	}
	return n
}

// encodeWALBatch appends a batch record body to dst.
func encodeWALBatch(dst []byte, table string, entries []engine.Entry) []byte {
	dst = append(dst, walBatch)
	dst = codec.PutString(dst, table)
	dst = codec.PutUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = codec.PutString(dst, e.Key)
		dst = codec.PutBytes(dst, e.Value)
	}
	return dst
}

func (w *wal) sync() error {
	if w.synced == w.size {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("lsm: wal sync: %w", err)
	}
	w.synced = w.size
	return nil
}

func (w *wal) close() error { return w.f.Close() }

// replayWAL reads every intact record of the log at path, calling apply for
// each, and truncates a torn tail in place (a crash mid-append leaves a
// short or checksum-failing record, never a valid one). Corruption before
// the tail — an intact frame followed by a broken one followed by more
// intact data — cannot be distinguished from a torn tail and is handled the
// same way: everything from the first broken record on is discarded.
func replayWAL(path string, seq int64, apply func(kind byte, table, key string, value []byte) error) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: %w", err)
	}
	size := st.Size()
	var off int64
	var hdr [walFrameSize]byte
	var body []byte
	for off < size {
		if size-off < walFrameSize {
			break // torn frame header
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			f.Close()
			return nil, fmt.Errorf("lsm: wal read: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if n < 1 || n > walMaxBody || off+walFrameSize+n > size {
			break // torn length or truncated body
		}
		if int64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := f.ReadAt(body, off+walFrameSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("lsm: wal read: %w", err)
		}
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:8]) {
			break // torn body
		}
		kind, rest := body[0], body[1:]
		table, rest, terr := codec.String(rest)
		if terr != nil {
			f.Close()
			return nil, fmt.Errorf("%w: lsm wal record table", types.ErrCorrupt)
		}
		switch kind {
		case walPut, walDel:
			key, rest2, kerr := codec.String(rest)
			if kerr != nil {
				err = fmt.Errorf("%w: lsm wal record key", types.ErrCorrupt)
				break
			}
			if kind == walDel {
				if len(rest2) != 0 {
					err = fmt.Errorf("%w: lsm wal delete with value", types.ErrCorrupt)
					break
				}
				rest2 = nil
			}
			err = apply(kind, table, key, rest2)
		case walBatch:
			count, rest2, cerr := codec.Uvarint(rest)
			if cerr != nil {
				err = fmt.Errorf("%w: lsm wal batch count", types.ErrCorrupt)
				break
			}
			for i := uint64(0); i < count && err == nil; i++ {
				var key string
				var val []byte
				if key, rest2, err = codec.String(rest2); err != nil {
					err = fmt.Errorf("%w: lsm wal batch key", types.ErrCorrupt)
					break
				}
				if val, rest2, err = codec.Bytes(rest2); err != nil {
					err = fmt.Errorf("%w: lsm wal batch value", types.ErrCorrupt)
					break
				}
				err = apply(walPut, table, key, val)
			}
			if err == nil && len(rest2) != 0 {
				err = fmt.Errorf("%w: lsm wal batch trailing bytes", types.ErrCorrupt)
			}
		default:
			err = fmt.Errorf("%w: lsm wal record kind %d", types.ErrCorrupt, kind)
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		off += walFrameSize + n
	}
	if off < size {
		// Drop the torn tail so the next append starts on a clean frame.
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, fmt.Errorf("lsm: wal truncate: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("lsm: wal sync: %w", err)
		}
	}
	return &wal{f: f, seq: seq, size: off}, nil
}
