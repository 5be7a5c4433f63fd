// Package disklog implements engine.Backend as a log-structured disk store:
// writes append length-prefixed, checksummed records to segment files, an
// in-memory index maps each live (table, key) to the position of its value
// on disk, and opening a directory replays the segments to rebuild the index
// (LSM-style recovery).
//
// No binary and no engine name selects it: lsm is the product's durable
// engine. disklog is the second durable implementation of engine.Backend,
// against which the conformance suite (internal/engine/conformance_test.go,
// enginetest.CrashAnywhere) holds the contract, and the benchmark's
// --backend disklog. Like lsm it makes every file operation through a
// reclog.FS, reclog.OS under Open.
//
// Durability contract: BatchPut fsyncs before acknowledging (fsync-on-batch,
// the unit RStore's flush path commits in), Close fsyncs, and single Put /
// Delete are durable no later than the next batch or Close. A torn write
// from a crash can therefore only affect the un-acknowledged tail of the
// last segment; replay detects it by checksum/length and truncates it.
//
// The backend expects one logical writer: the directory is exclusively
// flock-ed (LOCK), so two processes can never interleave appends, and the
// layers above additionally assume one cluster client drives each backend
// (see the package comment of internal/engine).
//
// # Compaction
//
// Overwritten values and tombstones are dead bytes that only a merge gives
// back to the filesystem. The backend tracks live bytes per segment and
// implements engine.Compactor: Compact seals the active segment when it
// holds dead bytes, appends the still-live records of the dead-holding
// prefix of sealed segments to the active segment again — ordinary put
// records through the ordinary write path — fsyncs, and unlinks that prefix
// oldest-first. Victims are always a prefix of the log (oldest sealed
// segments first): every record of a key whose latest record lies in the
// prefix also lies in the prefix, so dropping it takes tombstones and stale
// versions away without an older surviving segment resurrecting them.
//
// Crash safety needs no protocol of its own. A re-appended record says what
// the index already said, so until the unlinks start the log only holds
// duplicates; and once they start, what survives a crash is a suffix of the
// log, in which a put can be missing before the tombstone that shadows it
// but never the reverse. Plain replay reads every such directory to the
// same contents. Reset relies on the same rule: it logs a tombstone for
// every live key, fsynced, before it unlinks anything.
//
// # On-disk format
//
// Per segment file (seg-NNNNNN.log; normative spec in docs/FORMATS.md), a
// sequence of reclog frames holding reclog put and delete bodies.
package disklog

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"rstore/internal/engine"
	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

const (
	// DefaultSegmentBytes is the segment rotation threshold.
	DefaultSegmentBytes = 64 << 20

	// compactBatchBytes bounds what Compact re-appends per hold of the store
	// lock (a segment's worth, when segments are smaller).
	compactBatchBytes = 1 << 20
)

// Options tunes a disklog backend. The zero value gives defaults.
type Options struct {
	// SegmentBytes is the rotation threshold: a batch that would grow the
	// active segment past it opens a new segment first. A single batch
	// larger than the threshold still lands in one segment. Default 64 MiB.
	SegmentBytes int64
}

// ref locates one live value on disk.
type ref struct {
	seg  int   // id of the owning segment
	off  int64 // byte offset of the value within the segment file
	len  int   // value length in bytes
	size int64 // full record length (frame + body), for live accounting
}

// segment is one append-only log file.
type segment struct {
	id   int
	f    reclog.File
	size int64 // append offset
	live int64 // bytes of records the index still references (incl. framing)
}

// Backend is a log-structured disk engine.Backend (and engine.Compactor).
type Backend struct {
	mu      sync.RWMutex
	fs      reclog.FS
	dir     string
	opts    Options
	lock    io.Closer        // the directory lock; released on Close
	segs    []*segment       // ordered by id; the last one is the active writer
	segByID map[int]*segment // same segments, addressed by id (refs hold ids)
	index   map[string]map[string]ref
	bytes   int64 // live value bytes (BytesStored)
	closed  bool

	// compactMu serializes compactions; data operations are not blocked by
	// it (they take mu, which compaction holds one batch at a time).
	compactMu sync.Mutex
	compacted int64 // cumulative bytes reclaimed by compaction
	// epoch counts Resets. Compact snapshots it at phase 1 and stops when a
	// Reset intervened: its victims are gone, and re-appending what it read
	// from them would resurrect wiped data.
	epoch int64
}

var (
	_ engine.Backend    = (*Backend)(nil)
	_ engine.Compactor  = (*Backend)(nil)
	_ engine.Resetter   = (*Backend)(nil)
	_ engine.HashRanger = (*Backend)(nil)
)

// Open opens (creating if needed) a disklog backend rooted at dir, replaying
// existing segments to rebuild the key index. The directory is exclusively
// flock-ed for the lifetime of the backend: two processes appending to the
// same segments with independent offsets would corrupt committed records.
func Open(dir string, opts Options) (*Backend, error) {
	return open(reclog.OS, dir, opts)
}

// open is Open on any file system.
func open(fsys reclog.FS, dir string, opts Options) (*Backend, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := reclog.MkdirAll(fsys, dir); err != nil {
		return nil, fmt.Errorf("disklog: %w", err)
	}
	lock, err := fsys.Lock(dir)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		fs: fsys, dir: dir, opts: opts, lock: lock,
		segByID: make(map[int]*segment),
		index:   make(map[string]map[string]ref),
	}
	if err := b.recover(); err != nil {
		for _, s := range b.segs {
			s.f.Close()
		}
		lock.Close()
		return nil, err
	}
	return b, nil
}

// recover replays the directory's segments in id order.
func (b *Backend) recover() error {
	ids, err := b.listSegmentIDs()
	if err != nil {
		return err
	}
	for i, id := range ids {
		f, err := b.fs.OpenFile(b.segPath(id), os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("disklog: %w", err)
		}
		seg := &segment{id: id, f: f}
		b.segs = append(b.segs, seg)
		b.segByID[id] = seg
		if err := b.replay(seg, i == len(ids)-1); err != nil {
			return err
		}
	}
	if len(b.segs) == 0 {
		return b.addSegment(0)
	}
	return nil
}

// listSegmentIDs lists the directory's segment files and returns their ids
// in ascending order. Any seg-*.log name that does not parse is a stray
// file and errors — it would otherwise be silently ignored by replay and
// then corrupt the id sequence when a legitimate segment reuses its name.
func (b *Backend) listSegmentIDs() ([]int, error) {
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("disklog: %w", err)
	}
	var ids []int
	for _, name := range names {
		if ok, _ := filepath.Match("seg-*.log", name); !ok {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(name, "seg-%06d.log", &id); err != nil {
			return nil, fmt.Errorf("disklog: stray segment file %q", filepath.Join(b.dir, name))
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

func (b *Backend) segPath(id int) string {
	return filepath.Join(b.dir, fmt.Sprintf("seg-%06d.log", id))
}

// addSegment creates and activates a fresh segment file, fsyncing the
// directory so the new entry itself survives a power failure.
func (b *Backend) addSegment(id int) error {
	f, err := b.fs.OpenFile(b.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("disklog: %w", err)
	}
	if err := b.fs.SyncDir(b.dir); err != nil {
		f.Close()
		return err
	}
	seg := &segment{id: id, f: f}
	b.segs = append(b.segs, seg)
	b.segByID[id] = seg
	return nil
}

// retire closes and unlinks the n oldest segments, oldest first, and fsyncs
// the directory; callers hold b.mu and have left no index entry pointing
// into them. The order keeps a crash part-way sound: what replay then finds
// is a suffix of the log, where a put can have vanished before the tombstone
// that shadows it, never the reverse — deleted keys stay deleted.
func (b *Backend) retire(n int) error {
	old := b.segs[:n]
	b.segs = b.segs[n:]
	var firstErr error
	for _, s := range old {
		delete(b.segByID, s.id)
		s.f.Close()
		if err := b.fs.Remove(b.segPath(s.id)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("disklog: %w", err)
		}
	}
	if err := b.fs.SyncDir(b.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// replay scans one segment, applying its records to the index. Corruption at
// the tail of the last segment is a torn write: the segment is truncated to
// the last whole record. Corruption anywhere else is fatal.
func (b *Backend) replay(seg *segment, last bool) error {
	info, err := seg.f.Stat()
	if err != nil {
		return fmt.Errorf("disklog: %w", err)
	}
	end, err := reclog.Scan(seg.f, info.Size(), func(body []byte, off int64) error {
		return b.applyRecord(seg, body, off)
	})
	if err != nil {
		return fmt.Errorf("disklog: segment %d: %w", seg.id, err)
	}
	if end < info.Size() {
		if !last {
			return fmt.Errorf("%w: disklog segment %d corrupt at offset %d", types.ErrCorrupt, seg.id, end)
		}
		// Torn tail from a crash mid-append: drop it.
		if err := reclog.DropTail(seg.f, end); err != nil {
			return err
		}
	}
	seg.size = end
	return nil
}

// applyRecord replays one record body found at offset off of seg.
func (b *Backend) applyRecord(seg *segment, body []byte, off int64) error {
	size := reclog.FrameSize + int64(len(body))
	kind, table, key, value, err := reclog.ParseBody(body)
	if err != nil {
		return err
	}
	if kind == reclog.KindDel {
		b.indexDelete(table, key)
		return nil
	}
	b.indexPut(table, key, ref{seg: seg.id, off: off + int64(len(body)-len(value)), len: len(value), size: size})
	return nil
}

// indexPut installs a ref, maintaining the live-bytes counts (global and
// per-segment).
func (b *Backend) indexPut(table, key string, r ref) {
	t, ok := b.index[table]
	if !ok {
		t = make(map[string]ref)
		b.index[table] = t
	}
	if old, ok := t[key]; ok {
		b.bytes -= int64(old.len)
		b.segByID[old.seg].live -= old.size
	}
	t[key] = r
	b.bytes += int64(r.len)
	b.segByID[r.seg].live += r.size
}

// indexDelete removes a key, maintaining the live-bytes counts.
func (b *Backend) indexDelete(table, key string) {
	if old, ok := b.index[table][key]; ok {
		b.bytes -= int64(old.len)
		b.segByID[old.seg].live -= old.size
		delete(b.index[table], key)
	}
}

// recordLen is the framed length appendRecord gives a record; a body Scan
// would take for a torn tail is refused before it is written and
// acknowledged (reclog.CheckBody).
func recordLen(table, key string, valueLen int) (int, error) {
	body := reclog.BodyLen(table, key, valueLen)
	if err := reclog.CheckBody(body); err != nil {
		return 0, err
	}
	return reclog.FrameSize + body, nil
}

// appendRecord appends one framed put or delete to buf; a put's value is the
// tail of the result.
func appendRecord(buf []byte, kind byte, table, key string, value []byte) []byte {
	frameAt := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = reclog.AppendBody(buf, kind, table, key, value)
	reclog.PutHeader(buf[frameAt:], buf[frameAt+reclog.FrameSize:])
	return buf
}

// rotate seals the active segment — fsynced, never written again — and opens
// the next. Callers hold b.mu.
func (b *Backend) rotate() error {
	active := b.segs[len(b.segs)-1]
	if err := active.f.Sync(); err != nil {
		return fmt.Errorf("disklog: %w", err)
	}
	return b.addSegment(active.id + 1)
}

// write appends buf to the active segment (rotating first if the batch would
// overflow it) and returns the segment written to and the absolute offset
// buf was written at. Callers hold b.mu.
func (b *Backend) write(buf []byte) (seg *segment, base int64, err error) {
	seg = b.segs[len(b.segs)-1]
	if seg.size > 0 && seg.size+int64(len(buf)) > b.opts.SegmentBytes {
		if err := b.rotate(); err != nil {
			return nil, 0, err
		}
		seg = b.segs[len(b.segs)-1]
	}
	base = seg.size
	if _, err := seg.f.WriteAt(buf, base); err != nil {
		return nil, 0, fmt.Errorf("disklog: %w", err)
	}
	seg.size += int64(len(buf))
	return seg, base, nil
}

// Put appends one record. It is durable no later than the next BatchPut or
// Close.
func (b *Backend) Put(ctx context.Context, table, key string, value []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return types.ErrClosed
	}
	n, err := recordLen(table, key, len(value))
	if err != nil {
		return err
	}
	buf := appendRecord(make([]byte, 0, n), reclog.KindPut, table, key, value)
	seg, base, err := b.write(buf)
	if err != nil {
		return err
	}
	b.indexPut(table, key, ref{seg: seg.id, off: base + int64(len(buf)-len(value)), len: len(value), size: int64(len(buf))})
	return nil
}

// BatchPut appends all entries as consecutive records in one write and
// fsyncs before acknowledging.
func (b *Backend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return types.ErrClosed
	}
	// The write buffer is sized before it is encoded: grown by append, a
	// batch of megabyte values is copied several times over on its way.
	total := 0
	for _, e := range entries {
		n, err := recordLen(table, e.Key, len(e.Value))
		if err != nil {
			return err
		}
		total += n
	}
	buf := make([]byte, 0, total)
	ends := make([]int, len(entries)) // where each entry's record, and so its value, ends in buf
	for i, e := range entries {
		buf = appendRecord(buf, reclog.KindPut, table, e.Key, e.Value)
		ends[i] = len(buf)
	}
	seg, base, err := b.write(buf)
	if err != nil {
		return err
	}
	if err := seg.f.Sync(); err != nil {
		return fmt.Errorf("disklog: %w", err)
	}
	start := 0
	for i, e := range entries {
		b.indexPut(table, e.Key, ref{seg: seg.id, off: base + int64(ends[i]-len(e.Value)), len: len(e.Value), size: int64(ends[i] - start)})
		start = ends[i]
	}
	return nil
}

// Get reads the value under (table, key) from disk.
func (b *Backend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, false, types.ErrClosed
	}
	r, ok := b.index[table][key]
	if !ok {
		return nil, false, nil
	}
	v, err := b.readRef(r)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// readRef fetches one value from disk; callers hold b.mu (any mode).
func (b *Backend) readRef(r ref) ([]byte, error) {
	v := make([]byte, r.len)
	if _, err := b.segByID[r.seg].f.ReadAt(v, r.off); err != nil {
		return nil, fmt.Errorf("disklog: %w", err)
	}
	return v, nil
}

// Delete appends a tombstone; deleting a missing key writes nothing. The
// tombstone record itself is dead weight from birth — compaction reclaims
// it once its segment seals.
func (b *Backend) Delete(ctx context.Context, table, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return types.ErrClosed
	}
	if _, ok := b.index[table][key]; !ok {
		return nil
	}
	if _, _, err := b.write(appendRecord(nil, reclog.KindDel, table, key, nil)); err != nil {
		return err
	}
	b.indexDelete(table, key)
	return nil
}

// Scan visits every live key of a table, reading each value from disk. The
// context is checked per entry: every iteration pays a disk read, so a
// cancelled caller stops the sweep at the next key.
func (b *Backend) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	return b.scan(ctx, table, nil, fn)
}

// scan is Scan over the keys want admits (nil: all of them); only their
// values are read from disk.
func (b *Backend) scan(ctx context.Context, table string, want func(key string) bool, fn func(key string, value []byte) bool) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return types.ErrClosed
	}
	for k, r := range b.index[table] {
		if err := ctx.Err(); err != nil {
			return err
		}
		if want != nil && !want(k) {
			continue
		}
		v, err := b.readRef(r)
		if err != nil {
			return err
		}
		if !fn(k, v) {
			break
		}
	}
	return nil
}

// HashTree digests a table into a fanout-bucket hash tree
// (engine.HashRanger). Every live value is read from disk — the digest
// covers the stored bytes, not the index — so the call costs one sweep of
// the table, like Scan; the context is checked per entry.
func (b *Backend) HashTree(ctx context.Context, table string, fanout int) (engine.TreeDigest, error) {
	if err := engine.CheckHashFanout(fanout); err != nil {
		return engine.TreeDigest{}, err
	}
	th := engine.NewTreeHasher(fanout)
	if err := b.scan(ctx, table, nil, func(k string, v []byte) bool { th.Add(k, v); return true }); err != nil {
		return engine.TreeDigest{}, err
	}
	return th.Digest(), nil
}

// HashRange lists one bucket's keys with their entry hashes, ascending by
// key (engine.HashRanger). Only the bucket's own values are read from
// disk; the rest of the table costs one in-memory bucket computation per
// key.
func (b *Backend) HashRange(ctx context.Context, table string, fanout, bucket int) ([]engine.KeyHash, error) {
	if err := engine.CheckHashBucket(fanout, bucket); err != nil {
		return nil, err
	}
	var out []engine.KeyHash
	err := b.scan(ctx, table, func(k string) bool { return engine.BucketOf(k, fanout) == bucket }, func(k string, v []byte) bool {
		out = append(out, engine.KeyHash{Key: k, Hash: engine.EntryHash(k, v)})
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Tables lists tables that hold at least one live key.
func (b *Backend) Tables(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, types.ErrClosed
	}
	out := make([]string, 0, len(b.index))
	for t, kv := range b.index {
		if len(kv) > 0 {
			out = append(out, t)
		}
	}
	return out, nil
}

// BytesStored reports the summed length of all live values (excluding
// framing, dead versions, and tombstones).
func (b *Backend) BytesStored() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.bytes
}

// Reset drops every table and key (engine.Resetter). Disklog has no
// manifest, so the wipe commits through the log: a tombstone for every live
// key is appended and fsynced — from then on every suffix of the log replays
// empty — and only then is a fresh segment activated and every previous one
// unlinked, oldest first (retire). The epoch bump makes an in-flight
// compaction stop instead of re-appending what it read from a freed segment.
func (b *Backend) Reset(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return types.ErrClosed
	}
	var buf []byte
	for table, kv := range b.index {
		for key := range kv {
			buf = appendRecord(buf, reclog.KindDel, table, key, nil)
		}
	}
	if len(buf) > 0 {
		seg, _, err := b.write(buf)
		if err != nil {
			return err
		}
		b.index, b.bytes = make(map[string]map[string]ref), 0
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("disklog: %w", err)
		}
	}
	// Ids keep counting upward so the new active segment replays after any
	// old segment a crash leaves behind.
	if err := b.addSegment(b.segs[len(b.segs)-1].id + 1); err != nil {
		return err
	}
	b.epoch++
	return b.retire(len(b.segs) - 1)
}

// statsLocked snapshots the reclaim state; callers hold b.mu (any mode).
func (b *Backend) statsLocked() engine.CompactionStats {
	st := engine.CompactionStats{CompactedBytes: b.compacted, Segments: len(b.segs)}
	for _, s := range b.segs {
		st.DiskBytes += s.size
		st.LiveBytes += s.live
	}
	return st
}

// CompactionStats reports disk/live/reclaimed byte counts without
// compacting (engine.Compactor).
func (b *Backend) CompactionStats(ctx context.Context) (engine.CompactionStats, error) {
	if err := ctx.Err(); err != nil {
		return engine.CompactionStats{}, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return engine.CompactionStats{}, types.ErrClosed
	}
	return b.statsLocked(), nil
}

// moved is one live record on its way out of a victim segment: its identity,
// where the victim holds it, the victim's file (read without the store
// lock), and where its re-encoded record ends in the batch buffer.
type moved struct {
	table, key string
	old        ref
	src        reclog.File
	end        int
}

// Compact reclaims dead storage (engine.Compactor): it seals the active
// segment if it holds dead bytes, appends the live records of every sealed
// segment up to and including the last one holding dead bytes to the active
// segment again, fsyncs, and unlinks those segments. Reads and writes
// proceed concurrently — values are read from sealed (immutable) segments
// without the store lock, which is held one bounded batch at a time, and a
// record overwritten or deleted before its batch lands is simply not
// appended. A no-op when nothing is reclaimable.
func (b *Backend) Compact(ctx context.Context) (engine.CompactionStats, error) {
	if err := ctx.Err(); err != nil {
		return engine.CompactionStats{}, err
	}
	b.compactMu.Lock()
	defer b.compactMu.Unlock()

	// Phase 1 (locked): seal a dirty active segment, pick the victims —
	// the prefix of sealed segments covering every sealed segment with
	// dead bytes — and snapshot the live refs pointing into them.
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return engine.CompactionStats{}, types.ErrClosed
	}
	if active := b.segs[len(b.segs)-1]; active.size > active.live {
		if err := b.rotate(); err != nil {
			b.mu.Unlock()
			return engine.CompactionStats{}, err
		}
	}
	nVictims := 0
	for i, s := range b.segs[:len(b.segs)-1] {
		if s.size > s.live {
			nVictims = i + 1
		}
	}
	if nVictims == 0 {
		defer b.mu.Unlock()
		return b.statsLocked(), nil
	}
	var items []moved
	for table, kv := range b.index {
		for key, r := range kv {
			if r.seg <= b.segs[nVictims-1].id { // ids ascend: in the victim prefix
				items = append(items, moved{table: table, key: key, old: r, src: b.segByID[r.seg].f})
			}
		}
	}
	epoch := b.epoch
	b.mu.Unlock()

	// Reading the victims in log order turns the rewrite into sequential
	// I/O instead of a random walk.
	sort.Slice(items, func(i, j int) bool {
		if items[i].old.seg != items[j].old.seg {
			return items[i].old.seg < items[j].old.seg
		}
		return items[i].old.off < items[j].old.off
	})

	// Phase 2: re-append, a batch at a time. Outside the lock the batch's
	// values are read from the victims and framed as ordinary put records;
	// under it the records whose key the index still maps to the victim's
	// copy go through the write path and the index moves to them. They are
	// duplicates of what the victims hold, so a crash at any point of this
	// phase replays to the same contents.
	batchBytes := int(min(b.opts.SegmentBytes, compactBatchBytes))
	var buf, val []byte
	var appended int64
	for rest := items; len(rest) > 0; {
		if err := ctx.Err(); err != nil {
			return engine.CompactionStats{}, err
		}
		buf = buf[:0]
		n := 0
		var readErr error
		for ; n < len(rest) && readErr == nil && (n == 0 || len(buf) < batchBytes); n++ {
			it := &rest[n]
			if cap(val) < it.old.len {
				val = make([]byte, it.old.len)
			}
			_, readErr = it.src.ReadAt(val[:it.old.len], it.old.off)
			buf = appendRecord(buf, reclog.KindPut, it.table, it.key, val[:it.old.len])
			it.end = len(buf)
		}
		batch := rest[:n]
		rest = rest[n:]

		b.mu.Lock()
		st, stop, err := b.compactStopped(epoch, readErr)
		if stop {
			b.mu.Unlock()
			return st, err
		}
		// Squeeze the records that lost their key out of the buffer.
		kept, w, start := batch[:0], 0, 0
		for _, it := range batch {
			end := it.end
			if cur, ok := b.index[it.table][it.key]; ok && cur == it.old {
				if w != start {
					copy(buf[w:], buf[start:end])
				}
				w += end - start
				it.end = w
				kept = append(kept, it)
			}
			start = end
		}
		if w > 0 {
			seg, base, err := b.write(buf[:w])
			if err != nil {
				b.mu.Unlock()
				return engine.CompactionStats{}, err
			}
			start = 0
			for _, it := range kept {
				b.indexPut(it.table, it.key, ref{seg: seg.id, off: base + int64(it.end-it.old.len), len: it.old.len, size: int64(it.end - start)})
				start = it.end
			}
			appended += int64(w)
		}
		b.mu.Unlock()
	}

	// Phase 3 (locked): the appended records become durable — write fsynced
	// every segment it rotated out of — and only then do the victims, the
	// other copy, go. They were a prefix of b.segs when snapshotted, and
	// rotations only append, so they still are.
	b.mu.Lock()
	defer b.mu.Unlock()
	if st, stop, err := b.compactStopped(epoch, nil); stop {
		return st, err
	}
	if err := b.segs[len(b.segs)-1].f.Sync(); err != nil {
		return engine.CompactionStats{}, fmt.Errorf("disklog: %w", err)
	}
	reclaimed := -appended
	for _, v := range b.segs[:nVictims] {
		reclaimed += v.size
	}
	if err := b.retire(nVictims); err != nil {
		return engine.CompactionStats{}, err
	}
	b.compacted += reclaimed
	return b.statsLocked(), nil
}

// compactStopped reports, under b.mu, whether a compaction begun at epoch
// must stop, and with what: the backend closed, a Reset unlinked the victims
// (nothing is left to do: not an error), or a victim could not be read —
// checked last, because the first two close the files it reads.
func (b *Backend) compactStopped(epoch int64, readErr error) (st engine.CompactionStats, stop bool, err error) {
	switch {
	case b.closed:
		return st, true, types.ErrClosed
	case b.epoch != epoch:
		return b.statsLocked(), true, nil
	case readErr != nil:
		return st, true, fmt.Errorf("disklog: %w", readErr)
	}
	return st, false, nil
}

// Close fsyncs the active segment, closes all files, and releases the
// directory lock.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	err := b.segs[len(b.segs)-1].f.Sync()
	for _, s := range b.segs {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := b.lock.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("disklog: %w", err)
	}
	return nil
}
