package lsm

import (
	"fmt"
	"os"
	"path/filepath"

	"rstore/internal/codec"
	"rstore/internal/engine"
	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

// The write-ahead logs make the memtables durable: every mutation is framed,
// checksummed, and appended to its user table's wal-<seq>.log before it
// touches the table's skiplist. Frame, put and delete records are reclog's,
// so a torn write from a crash can only affect the un-acknowledged tail,
// which replay detects by checksum and truncates.
// A log dies two ways. A flush retires every log at once: once the
// memtables' contents are committed to SSTables via the MANIFEST, the old
// logs are deleted and each table that had something logged gets a fresh
// empty one. And a write call that leaves its table's log mostly dead
// replaces the log with one holding only the table's memtable entries
// (Backend.replaceLogLocked).

// walBatch is the record kind lsm adds to reclog's put and delete: it frames
// a whole BatchPut as ONE record — body = kind(1) table(str) count(uvarint)
// then per entry key(str) value(bytes) — so the single crc32 makes the batch
// atomic under torn writes: it replays whole or not at all.
const walBatch byte = 3

// wal is an open write-ahead log file positioned at its append offset.
type wal struct {
	fs   reclog.FS
	f    reclog.File
	path string
	seq  int64
	size int64
	// synced is the size at the last fsync; sync is free while nothing was
	// appended since (a replayed log starts unsynced: its tail may be in the
	// page cache only).
	synced int64
	// dirSynced says the directory entry naming the file is durable; the
	// first sync of a log created without a directory fsync makes it so.
	dirSynced bool
	buf       []byte // the one frame buffer: header and body of the record being appended
}

// createWAL creates log seq.
func (b *Backend) createWAL(seq int64) (*wal, error) {
	path := b.walPath(seq)
	f, err := b.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	return &wal{fs: b.fs, f: f, path: path, seq: seq}, nil
}

// frame returns the frame buffer, sized once for a body of n bytes and
// emptied behind the header's hole; the caller appends the body to it and
// appendFrame writes the result. A body replay would take for a torn tail is
// refused here, before it is written and acknowledged (reclog.CheckBody).
func (w *wal) frame(n int) ([]byte, error) {
	if err := reclog.CheckBody(n); err != nil {
		return nil, err
	}
	if cap(w.buf) < reclog.FrameSize+n {
		w.buf = make([]byte, 0, reclog.FrameSize+n)
	}
	return w.buf[:reclog.FrameSize], nil
}

// appendFrame fills in the header of rec — frame's buffer with a body behind
// the hole — and appends it with one write. Durability is the caller's call:
// sync() after acked batches, nothing after single puts (matching the
// fsync-on-batch contract of engine.Backend).
func (w *wal) appendFrame(rec []byte) error {
	reclog.PutHeader(rec, rec[reclog.FrameSize:])
	w.buf = engine.TrimScratch(rec)
	if _, err := w.f.WriteAt(rec, w.size); err != nil {
		return fmt.Errorf("lsm: wal append: %w", err)
	}
	w.size += int64(len(rec))
	return nil
}

// appendRecord frames and appends one put or delete.
func (w *wal) appendRecord(kind byte, table, key string, value []byte) error {
	rec, err := w.frame(reclog.BodyLen(table, key, len(value)))
	if err != nil {
		return err
	}
	return w.appendFrame(reclog.AppendBody(rec, kind, table, key, value))
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
	if w.synced != w.size {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("lsm: wal sync: %w", err)
		}
		w.synced = w.size
	}
	if !w.dirSynced {
		if err := w.fs.SyncDir(filepath.Dir(w.path)); err != nil {
			return fmt.Errorf("lsm: wal sync: %w", err)
		}
		w.dirSynced = true
	}
	return nil
}

func (w *wal) close() error { return w.f.Close() }

// replayWAL reads every intact record of the log at path, calling apply for
// each put and delete (a batch is its puts), and truncates a torn tail in
// place (a crash mid-append leaves a short or checksum-failing record, never
// a valid one). Corruption before the tail — an intact frame followed by a
// broken one followed by more intact data — cannot be distinguished from a
// torn tail and is handled the same way: everything from the first broken
// record on is discarded.
func replayWAL(fsys reclog.FS, path string, seq int64, apply func(kind byte, table, key string, value []byte) error) (*wal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	var end int64
	st, err := f.Stat()
	if err == nil {
		end, err = reclog.Scan(f, st.Size(), func(body []byte, _ int64) error {
			if body[0] == walBatch {
				return replayBatch(body[1:], apply)
			}
			kind, table, key, value, err := reclog.ParseBody(body)
			if err != nil {
				return err
			}
			return apply(kind, table, key, value)
		})
	}
	if err == nil && end < st.Size() {
		err = reclog.DropTail(f, end)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("lsm: wal %d: %w", seq, err)
	}
	return &wal{fs: fsys, f: f, path: path, seq: seq, size: end}, nil
}

// replayBatch applies the entries of a walBatch body (behind its kind byte)
// as puts, in order.
func replayBatch(rest []byte, apply func(kind byte, table, key string, value []byte) error) error {
	table, rest, err := codec.String(rest)
	if err != nil {
		return fmt.Errorf("%w: wal batch table", types.ErrCorrupt)
	}
	count, rest, err := codec.Uvarint(rest)
	if err != nil {
		return fmt.Errorf("%w: wal batch count", types.ErrCorrupt)
	}
	for i := uint64(0); i < count; i++ {
		var key string
		var val []byte
		if key, rest, err = codec.String(rest); err != nil {
			return fmt.Errorf("%w: wal batch key", types.ErrCorrupt)
		}
		if val, rest, err = codec.Bytes(rest); err != nil {
			return fmt.Errorf("%w: wal batch value", types.ErrCorrupt)
		}
		if err := apply(reclog.KindPut, table, key, val); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: wal batch trailing bytes", types.ErrCorrupt)
	}
	return nil
}
