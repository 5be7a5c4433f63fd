// Package disklog implements engine.Backend as a log-structured disk store:
// writes append length-prefixed, checksummed records to segment files, an
// in-memory index maps each live (table, key) to the position of its value
// on disk, and opening a directory replays the segments to rebuild the index
// (LSM-style recovery).
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
// holds dead bytes, rewrites only-live records from the dead-holding prefix
// of sealed segments into one new segment, atomically swaps the in-memory
// index to the rewritten locations, and unlinks the originals. Victims are
// always a prefix of the log (oldest sealed segments first): every record
// of a key whose latest record lies in the prefix also lies in the prefix,
// so the rewrite can drop tombstones and stale versions without an older
// surviving segment resurrecting them on replay.
//
// Crash safety: the rewrite lands in seg-NNNNNN.log.cmp (N = the highest
// victim id), framed by a recCompactBegin header record and sealed by a
// recCompactEnd trailer, fsynced before the swap. The commit point on disk
// is the atomic rename of the .cmp file over seg-NNNNNN.log. Open discards
// or completes whatever a crash left behind: an unsealed .cmp is debris
// from an interrupted rewrite (deleted; victims intact), a sealed .cmp is
// a completed rewrite whose swap never happened (adopted: victims deleted,
// file renamed into place), and a segment whose first record is
// recCompactBegin supersedes every lower-numbered segment (leftovers of an
// interrupted unlink phase are deleted).
//
// # On-disk format
//
// Per segment file (seg-NNNNNN.log; normative spec in docs/FORMATS.md):
//
//	record  := length(uint32 LE) crc32(uint32 LE, of body) body
//	body    := kind(1 byte) table(uvarint-len string) key(uvarint-len string) value
//	kind    := 1 (put: value is the rest of the body)
//	         | 2 (delete: empty value)
//	         | 3 (compacted-segment header: empty table/key/value)
//	         | 4 (compacted-segment seal: empty table/key/value)
package disklog

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"rstore/internal/codec"
	"rstore/internal/engine"
	"rstore/internal/types"
)

const (
	recPut = 1
	recDel = 2
	// recCompactBegin is the mandatory first record of a compacted segment.
	// Its presence marks the segment as superseding every segment with a
	// lower id (replay deletes them as interrupted-compaction leftovers).
	recCompactBegin = 3
	// recCompactEnd is the mandatory last record of a compacted segment
	// while it still carries the .cmp suffix: it proves the rewrite ran to
	// completion, so replay can adopt the file instead of discarding it.
	recCompactEnd = 4

	// frameSize is the fixed record prefix: body length + body checksum.
	frameSize = 8

	// maxBody bounds a single record body (1 GiB); larger lengths during
	// replay are treated as corruption rather than allocated.
	maxBody = 1 << 30

	// DefaultSegmentBytes is the segment rotation threshold.
	DefaultSegmentBytes = 64 << 20

	// cmpSuffix marks an in-progress compaction output file.
	cmpSuffix = ".cmp"
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
	f    *os.File
	size int64 // append offset
	live int64 // bytes of records the index still references (incl. framing)
}

// Backend is a log-structured disk engine.Backend (and engine.Compactor).
type Backend struct {
	mu      sync.RWMutex
	dir     string
	opts    Options
	lock    *os.File         // flock-held LOCK file; released on Close
	segs    []*segment       // ordered by id; the last one is the active writer
	segByID map[int]*segment // same segments, addressed by id (refs hold ids)
	index   map[string]map[string]ref
	bytes   int64 // live value bytes (BytesStored)
	closed  bool

	// compactMu serializes compactions; data operations are not blocked by
	// it (they take mu, which compaction only holds briefly at its edges).
	compactMu sync.Mutex
	compacted int64 // cumulative bytes reclaimed by compaction
	// epoch counts Resets. Compact snapshots it at phase 1 and abandons its
	// output if a Reset intervened: the victim segments it rewrote no longer
	// exist, and renaming the rewrite into place would resurrect wiped data.
	epoch int64

	// compactCrash names the active crash-injection point (SetCrashPoint;
	// "" in production): Compact aborts there with ErrCrashed, leaving the
	// directory exactly as a power failure would.
	compactCrash string
}

var (
	_ engine.Backend    = (*Backend)(nil)
	_ engine.Compactor  = (*Backend)(nil)
	_ engine.Resetter   = (*Backend)(nil)
	_ engine.HashRanger = (*Backend)(nil)
)

// ErrCrashed reports that a crash-injection point armed by SetCrashPoint
// fired (tests only): Compact was aborted at the named step, leaving the
// directory exactly as a power failure there would.
var ErrCrashed = errors.New("disklog: injected crash")

// Open opens (creating if needed) a disklog backend rooted at dir, replaying
// existing segments to rebuild the key index. The directory is exclusively
// flock-ed for the lifetime of the backend: two processes appending to the
// same segments with independent offsets would corrupt committed records.
// Debris of an interrupted compaction is discarded or completed first (see
// the package comment).
func Open(dir string, opts Options) (*Backend, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disklog: %w", err)
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		dir: dir, opts: opts, lock: lock,
		segByID: make(map[int]*segment),
		index:   make(map[string]map[string]ref),
	}

	ids, err := b.resolveCompaction()
	if err != nil {
		b.closeFiles()
		return nil, err
	}

	for i, id := range ids {
		f, err := os.OpenFile(b.segPath(id), os.O_RDWR, 0)
		if err != nil {
			b.closeFiles()
			return nil, fmt.Errorf("disklog: %w", err)
		}
		seg := &segment{id: id, f: f}
		b.segs = append(b.segs, seg)
		b.segByID[id] = seg
		if err := b.replay(seg, i == len(ids)-1); err != nil {
			b.closeFiles()
			return nil, err
		}
	}
	if len(b.segs) == 0 {
		if err := b.addSegment(0); err != nil {
			b.closeFiles()
			return nil, err
		}
	}
	return b, nil
}

// resolveCompaction brings the directory to a consistent pre-replay state:
// it adopts or discards any .cmp file a crash left behind, deletes segments
// superseded by a completed compaction whose unlink phase was interrupted,
// and returns the surviving segment ids in replay order.
func (b *Backend) resolveCompaction() ([]int, error) {
	cmps, err := filepath.Glob(filepath.Join(b.dir, "seg-*.log"+cmpSuffix))
	if err != nil {
		return nil, fmt.Errorf("disklog: %w", err)
	}
	for _, name := range cmps {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%06d.log"+cmpSuffix, &id); err != nil {
			return nil, fmt.Errorf("disklog: stray compaction file %q", name)
		}
		sealed, err := compactionSealed(name)
		if err != nil {
			return nil, err
		}
		if !sealed {
			// The rewrite never completed: the victims are intact and
			// authoritative, the half-written output is debris.
			if err := os.Remove(name); err != nil {
				return nil, fmt.Errorf("disklog: %w", err)
			}
			continue
		}
		// The rewrite completed but the swap did not: finish it. Delete
		// every victim (all segments with id <= the output's id — victims
		// are always a prefix of the log), then commit with the rename.
		if err := b.removeSegmentsBelow(id + 1); err != nil {
			return nil, err
		}
		//lint:rstore-vet fsyncrename: recovery replay — the .cmp file was sealed (written+synced) by the crashed process's compact phase 2
		if err := os.Rename(name, b.segPath(id)); err != nil {
			return nil, fmt.Errorf("disklog: %w", err)
		}
	}
	if len(cmps) > 0 {
		if err := syncDir(b.dir); err != nil {
			return nil, err
		}
	}

	ids, err := b.listSegmentIDs()
	if err != nil {
		return nil, err
	}

	// A segment opening with recCompactBegin is a completed compaction that
	// supersedes every lower id; lower-numbered survivors are leftovers of
	// an interrupted unlink phase. Their live data is duplicated in the
	// compacted segment, and replaying them would resurrect keys whose
	// tombstones the rewrite dropped — delete, don't replay.
	super := -1
	for _, id := range ids {
		compacted, err := isCompactedSegment(b.segPath(id))
		if err != nil {
			return nil, err
		}
		if compacted && id > super {
			super = id
		}
	}
	if super >= 0 {
		if err := b.removeSegmentsBelow(super); err != nil {
			return nil, err
		}
		kept := ids[:0]
		for _, id := range ids {
			if id >= super {
				kept = append(kept, id)
			}
		}
		ids = kept
		if err := syncDir(b.dir); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// listSegmentIDs globs the directory's segment files and returns their ids
// in ascending order. Any seg-*.log name that does not parse is a stray
// file and errors — it would otherwise be silently ignored by replay and
// then corrupt the id sequence when a legitimate segment reuses its name.
func (b *Backend) listSegmentIDs() ([]int, error) {
	names, err := filepath.Glob(filepath.Join(b.dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("disklog: %w", err)
	}
	ids := make([]int, 0, len(names))
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%06d.log", &id); err != nil {
			return nil, fmt.Errorf("disklog: stray segment file %q", name)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// removeSegmentsBelow deletes every seg-N.log with N < bound.
func (b *Backend) removeSegmentsBelow(bound int) error {
	ids, err := b.listSegmentIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if id < bound {
			if err := os.Remove(b.segPath(id)); err != nil {
				return fmt.Errorf("disklog: %w", err)
			}
		}
	}
	return nil
}

// compactionSealed reports whether a .cmp file is a complete compaction
// output: every frame checks out, the first record is recCompactBegin, and
// the last is recCompactEnd. Anything else — torn tail, missing seal, bad
// checksum — means the rewrite was interrupted.
func compactionSealed(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("disklog: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("disklog: %w", err)
	}
	size := info.Size()
	var off int64
	var hdr [frameSize]byte
	var body []byte
	first := true
	var lastKind byte
	for off < size {
		if size-off < frameSize {
			return false, nil
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return false, fmt.Errorf("disklog: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if n < 1 || n > maxBody || off+frameSize+n > size {
			return false, nil
		}
		if int64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := f.ReadAt(body, off+frameSize); err != nil {
			return false, fmt.Errorf("disklog: %w", err)
		}
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return false, nil
		}
		if first && body[0] != recCompactBegin {
			return false, nil
		}
		first = false
		lastKind = body[0]
		off += frameSize + n
	}
	return !first && lastKind == recCompactEnd, nil
}

// isCompactedSegment reports whether a segment file opens with a whole,
// checksum-valid recCompactBegin record. The full validation matters: a
// positive answer triggers deletion of every lower-numbered segment, and a
// genuine compacted segment's header is always intact (the file was fsynced
// before the committing rename), so a first record that is torn or fails
// its CRC — however its kind byte reads — must never count.
func isCompactedSegment(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("disklog: %w", err)
	}
	defer f.Close()
	var hdr [frameSize]byte
	if n, err := f.ReadAt(hdr[:], 0); n < len(hdr) {
		if err != nil && !errors.Is(err, io.EOF) {
			return false, fmt.Errorf("disklog: %w", err)
		}
		return false, nil // shorter than one record: not a compacted segment
	}
	// A genuine recCompactBegin body is 3 bytes (kind + two empty strings);
	// anything larger is some other record or garbage, so the tiny bound
	// doubles as protection against allocating a torn length prefix.
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if n < 1 || n > 64 {
		return false, nil
	}
	body := make([]byte, n)
	if rn, err := f.ReadAt(body, frameSize); rn < len(body) {
		if err != nil && !errors.Is(err, io.EOF) {
			return false, fmt.Errorf("disklog: %w", err)
		}
		return false, nil // torn first record
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return false, nil
	}
	return body[0] == recCompactBegin, nil
}

// acquireLock takes an exclusive, non-blocking flock on dir/LOCK. The lock
// dies with the process, so a crash never wedges the directory.
func acquireLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disklog: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("disklog: %s is in use by another process: %w", dir, err)
	}
	return f, nil
}

func (b *Backend) segPath(id int) string {
	return filepath.Join(b.dir, fmt.Sprintf("seg-%06d.log", id))
}

// addSegment creates and activates a fresh segment file, fsyncing the
// directory so the new entry itself survives a power failure.
func (b *Backend) addSegment(id int) error {
	f, err := os.OpenFile(b.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("disklog: %w", err)
	}
	if err := syncDir(b.dir); err != nil {
		f.Close()
		return err
	}
	seg := &segment{id: id, f: f}
	b.segs = append(b.segs, seg)
	b.segByID[id] = seg
	return nil
}

// syncDir fsyncs a directory, making its entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("disklog: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("disklog: %w", err)
	}
	return nil
}

func (b *Backend) closeFiles() {
	for _, s := range b.segs {
		s.f.Close()
	}
	if b.lock != nil {
		b.lock.Close() // releases the flock
	}
}

// replay scans one segment, applying its records to the index. Corruption at
// the tail of the last segment is a torn write: the segment is truncated to
// the last whole record. Corruption anywhere else is fatal.
func (b *Backend) replay(seg *segment, last bool) error {
	info, err := seg.f.Stat()
	if err != nil {
		return fmt.Errorf("disklog: %w", err)
	}
	size := info.Size()
	var off int64
	var hdr [frameSize]byte
	body := make([]byte, 0, 4096)
	for off < size {
		good := false
		if size-off >= frameSize {
			if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
				return fmt.Errorf("disklog: %w", err)
			}
			n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
			sum := binary.LittleEndian.Uint32(hdr[4:8])
			if n <= maxBody && off+frameSize+n <= size {
				if int64(cap(body)) < n {
					body = make([]byte, n)
				}
				body = body[:n]
				if _, err := seg.f.ReadAt(body, off+frameSize); err != nil {
					return fmt.Errorf("disklog: %w", err)
				}
				if crc32.ChecksumIEEE(body) == sum {
					if err := b.applyRecord(body, seg.id, off+frameSize); err != nil {
						return err
					}
					off += frameSize + n
					good = true
				}
			}
		}
		if !good {
			if !last {
				return fmt.Errorf("%w: disklog segment %d corrupt at offset %d", types.ErrCorrupt, seg.id, off)
			}
			// Torn tail from a crash mid-append: drop it.
			if err := seg.f.Truncate(off); err != nil {
				return fmt.Errorf("disklog: %w", err)
			}
			size = off
			break
		}
	}
	seg.size = size
	return nil
}

// applyRecord replays one record body located at absolute offset bodyOff in
// segment si (a segment id).
func (b *Backend) applyRecord(body []byte, si int, bodyOff int64) error {
	if len(body) < 1 {
		return fmt.Errorf("%w: disklog empty record body", types.ErrCorrupt)
	}
	kind := body[0]
	if kind == recCompactBegin || kind == recCompactEnd {
		// Compaction markers carry no data but count as live bytes: they
		// are not reclaimable (rewriting the segment would just emit fresh
		// markers), and counting them dead would make every freshly
		// compacted segment a perpetual compaction victim.
		b.segByID[si].live += frameSize + int64(len(body))
		return nil
	}
	table, rest, err := codec.String(body[1:])
	if err != nil {
		return fmt.Errorf("%w: disklog record table", types.ErrCorrupt)
	}
	key, rest, err := codec.String(rest)
	if err != nil {
		return fmt.Errorf("%w: disklog record key", types.ErrCorrupt)
	}
	switch kind {
	case recPut:
		valOff := bodyOff + int64(len(body)-len(rest))
		b.indexPut(table, key, ref{seg: si, off: valOff, len: len(rest), size: frameSize + int64(len(body))})
	case recDel:
		b.indexDelete(table, key)
	default:
		return fmt.Errorf("%w: disklog record kind %d", types.ErrCorrupt, kind)
	}
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

// recordLen is the framed length appendRecord gives a record. A body above
// maxBody ends replay as a torn tail, so it is refused (a hard error) before
// it is written and acknowledged.
func recordLen(table, key string, valueLen int) (int, error) {
	body := 1 + codec.BytesLen(len(table)) + codec.BytesLen(len(key)) + valueLen
	if body > maxBody {
		return 0, fmt.Errorf("disklog: record body of %d bytes exceeds the %d-byte limit", body, maxBody)
	}
	return frameSize + body, nil
}

// appendRecord appends one framed record for (kind, table, key, value) to
// buf and returns the extended buffer plus the offset of the value bytes
// relative to the start of buf.
func appendRecord(buf []byte, kind byte, table, key string, value []byte) (out []byte, valRel int) {
	frameAt := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	bodyAt := len(buf)
	buf = append(buf, kind)
	buf = codec.PutString(buf, table)
	buf = codec.PutString(buf, key)
	valRel = len(buf)
	buf = append(buf, value...)
	body := buf[bodyAt:]
	binary.LittleEndian.PutUint32(buf[frameAt:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[frameAt+4:], crc32.ChecksumIEEE(body))
	return buf, valRel
}

// write appends buf to the active segment (rotating first if the batch would
// overflow it) and returns the segment written to and the absolute offset
// buf was written at. Callers hold b.mu.
func (b *Backend) write(buf []byte) (seg *segment, base int64, err error) {
	seg = b.segs[len(b.segs)-1]
	if seg.size > 0 && seg.size+int64(len(buf)) > b.opts.SegmentBytes {
		if err := seg.f.Sync(); err != nil {
			return nil, 0, fmt.Errorf("disklog: %w", err)
		}
		if err := b.addSegment(seg.id + 1); err != nil {
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
	buf, valRel := appendRecord(make([]byte, 0, n), recPut, table, key, value)
	seg, base, err := b.write(buf)
	if err != nil {
		return err
	}
	b.indexPut(table, key, ref{seg: seg.id, off: base + int64(valRel), len: len(value), size: int64(len(buf))})
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
	rels := make([]int, len(entries))
	sizes := make([]int64, len(entries))
	total := 0
	for i, e := range entries {
		n, err := recordLen(table, e.Key, len(e.Value))
		if err != nil {
			return err
		}
		sizes[i] = int64(n)
		total += n
	}
	buf := make([]byte, 0, total)
	for i, e := range entries {
		buf, rels[i] = appendRecord(buf, recPut, table, e.Key, e.Value)
	}
	seg, base, err := b.write(buf)
	if err != nil {
		return err
	}
	if err := seg.f.Sync(); err != nil {
		return fmt.Errorf("disklog: %w", err)
	}
	for i, e := range entries {
		b.indexPut(table, e.Key, ref{seg: seg.id, off: base + int64(rels[i]), len: len(e.Value), size: sizes[i]})
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
	buf, _ := appendRecord(nil, recDel, table, key, nil)
	if _, _, err := b.write(buf); err != nil {
		return err
	}
	b.indexDelete(table, key)
	return nil
}

// Scan visits every live key of a table, reading each value from disk. The
// context is checked per entry: every iteration pays a disk read, so a
// cancelled caller stops the sweep at the next key.
func (b *Backend) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return types.ErrClosed
	}
	for k, r := range b.index[table] {
		if err := ctx.Err(); err != nil {
			return err
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
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return engine.TreeDigest{}, types.ErrClosed
	}
	th := engine.NewTreeHasher(fanout)
	for k, r := range b.index[table] {
		if err := ctx.Err(); err != nil {
			return engine.TreeDigest{}, err
		}
		v, err := b.readRef(r)
		if err != nil {
			return engine.TreeDigest{}, err
		}
		th.Add(k, v)
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
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, types.ErrClosed
	}
	var out []engine.KeyHash
	for k, r := range b.index[table] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if engine.BucketOf(k, fanout) != bucket {
			continue
		}
		v, err := b.readRef(r)
		if err != nil {
			return nil, err
		}
		out = append(out, engine.KeyHash{Key: k, Hash: engine.EntryHash(k, v)})
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

// Segments reports how many segment files back the log, for rotation tests
// and ops introspection.
func (b *Backend) Segments() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.segs)
}

// Reset drops every table and key (engine.Resetter): it activates a fresh
// segment, empties the index, and unlinks every previous segment file.
// Disklog has no manifest, so the wipe commits segment by segment rather
// than atomically: a crash mid-reset replays whichever suffix of segments
// survived — somewhere between the old contents and empty. Unlinking
// oldest-first keeps even that partial state sound: a put can vanish before
// the tombstone that shadows it, never the reverse, so deleted keys stay
// deleted. The epoch bump makes an in-flight compaction abandon its output
// instead of renaming it over a freed segment id.
func (b *Backend) Reset(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return types.ErrClosed
	}
	old := b.segs
	// Ids keep counting upward so the new active segment replays after any
	// old segment a crash leaves behind, and never collides with a .cmp
	// file an abandoned compaction is still holding.
	if err := b.addSegment(old[len(old)-1].id + 1); err != nil {
		return err
	}
	b.epoch++
	b.segs = b.segs[len(b.segs)-1:]
	b.segByID = map[int]*segment{b.segs[0].id: b.segs[0]}
	b.index = make(map[string]map[string]ref)
	b.bytes = 0
	var firstErr error
	for _, s := range old {
		if err := s.f.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("disklog: %w", err)
		}
		if err := os.Remove(b.segPath(s.id)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("disklog: %w", err)
		}
	}
	if err := syncDir(b.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// SetCrashPoint arms a crash-injection point (tests only): Compact aborts
// with ErrCrashed at the named step, leaving the directory exactly as a
// power failure there would. Recognized points: "mid-rewrite" (the .cmp
// output half-written and unsealed), "sealed" (the .cmp complete and
// fsynced but never swapped in), "renamed" (the rename committed but the
// victim unlink interrupted). Empty disarms.
func (b *Backend) SetCrashPoint(point string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.compactCrash = point
}

// Kill simulates process death (tests only): every descriptor and the
// directory flock are dropped with no syncing and no cleanup, leaving the
// on-disk state exactly as the crash left it. The backend is unusable
// afterwards; reopen the directory with Open.
func (b *Backend) Kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.closeFiles()
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

// rewriteItem is one live record carried through a compaction: its identity,
// where it lives in the victim segments, and where the rewrite placed it.
type rewriteItem struct {
	table, key string
	old, new   ref
}

// Compact reclaims dead storage (engine.Compactor): it seals the active
// segment if it holds dead bytes, rewrites the live records of every sealed
// segment up to and including the last one holding dead bytes into a single
// new segment, swaps the index to the rewritten locations, and deletes the
// originals. Reads and writes proceed concurrently — the rewrite works on
// sealed (immutable) segments without the store lock, and a record
// overwritten or deleted mid-rewrite simply stays dead in the new segment
// until the next compaction. A no-op when nothing is reclaimable.
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
	active := b.segs[len(b.segs)-1]
	if active.size > active.live {
		if err := active.f.Sync(); err != nil {
			b.mu.Unlock()
			return engine.CompactionStats{}, fmt.Errorf("disklog: %w", err)
		}
		if err := b.addSegment(active.id + 1); err != nil {
			b.mu.Unlock()
			return engine.CompactionStats{}, err
		}
	}
	sealed := b.segs[:len(b.segs)-1]
	nVictims := 0
	var deadBytes int64
	for i, s := range sealed {
		if s.size > s.live {
			nVictims = i + 1
		}
		deadBytes += s.size - s.live
	}
	// The rewrite output carries two marker records; reclaiming less than
	// their framing would GROW the log (and report a negative reclaim), so
	// that little dead weight is cheaper left in place.
	const markerOverhead = 2 * (frameSize + 3) // recCompactBegin + recCompactEnd
	if nVictims == 0 || deadBytes <= markerOverhead {
		st := b.statsLocked()
		b.mu.Unlock()
		return st, nil
	}
	victims := append([]*segment(nil), sealed[:nVictims]...)
	victimIDs := make(map[int]bool, nVictims)
	for _, v := range victims {
		victimIDs[v.id] = true
	}
	newID := victims[nVictims-1].id
	epoch := b.epoch
	var items []rewriteItem
	for table, kv := range b.index {
		for key, r := range kv {
			if victimIDs[r.seg] {
				items = append(items, rewriteItem{table: table, key: key, old: r})
			}
		}
	}
	b.mu.Unlock()

	// Reading the victims in log order turns the rewrite into sequential
	// I/O instead of a random walk.
	sort.Slice(items, func(i, j int) bool {
		if items[i].old.seg != items[j].old.seg {
			return items[i].old.seg < items[j].old.seg
		}
		return items[i].old.off < items[j].old.off
	})

	// Phase 2 (unlocked): rewrite the live records into seg-<newID>.log.cmp,
	// framed by the compaction marker records, and fsync it. Victim
	// segments are sealed and therefore immutable; concurrent writers only
	// touch the active segment.
	cmpPath := b.segPath(newID) + cmpSuffix
	f, err := os.OpenFile(cmpPath, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return engine.CompactionStats{}, fmt.Errorf("disklog: %w", err)
	}
	abort := func(err error) (engine.CompactionStats, error) {
		f.Close()
		os.Remove(cmpPath)
		return engine.CompactionStats{}, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var off int64
	writeRec := func(buf []byte) error {
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("disklog: %w", err)
		}
		off += int64(len(buf))
		return nil
	}
	hdr, _ := appendRecord(nil, recCompactBegin, "", "", nil)
	if err := writeRec(hdr); err != nil {
		return abort(err)
	}
	var recBuf []byte
	val := make([]byte, 0, 4096)
	for i := range items {
		it := &items[i]
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		if b.compactCrash == "mid-rewrite" && i == len(items)/2 {
			w.Flush()
			f.Close()
			return engine.CompactionStats{}, ErrCrashed
		}
		if cap(val) < it.old.len {
			val = make([]byte, it.old.len)
		}
		v := val[:it.old.len]
		b.mu.RLock()
		if b.closed {
			b.mu.RUnlock()
			return abort(types.ErrClosed)
		}
		if b.epoch != epoch {
			// A Reset unlinked the victims mid-rewrite; the output is moot.
			st := b.statsLocked()
			b.mu.RUnlock()
			f.Close()
			os.Remove(cmpPath)
			return st, nil
		}
		_, rerr := b.segByID[it.old.seg].f.ReadAt(v, it.old.off)
		b.mu.RUnlock()
		if rerr != nil && it.old.len > 0 {
			return abort(fmt.Errorf("disklog: %w", rerr))
		}
		var valRel int
		recBuf, valRel = appendRecord(recBuf[:0], recPut, it.table, it.key, v)
		it.new = ref{seg: newID, off: off + int64(valRel), len: it.old.len, size: int64(len(recBuf))}
		if err := writeRec(recBuf); err != nil {
			return abort(err)
		}
	}
	seal, _ := appendRecord(nil, recCompactEnd, "", "", nil)
	if err := writeRec(seal); err != nil {
		return abort(err)
	}
	if err := w.Flush(); err != nil {
		return abort(fmt.Errorf("disklog: %w", err))
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("disklog: %w", err))
	}
	if err := syncDir(b.dir); err != nil {
		return abort(err)
	}
	if b.compactCrash == "sealed" {
		f.Close()
		return engine.CompactionStats{}, ErrCrashed
	}

	// Phase 3 (locked): commit. The rename over seg-<newID>.log is the
	// on-disk commit point; the index swap is the in-memory one. Records
	// overwritten or deleted while the rewrite ran lose the swap check and
	// stay dead in the new segment.
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		f.Close()
		os.Remove(cmpPath)
		return engine.CompactionStats{}, types.ErrClosed
	}
	if b.epoch != epoch {
		// A Reset intervened after the rewrite was sealed; renaming it into
		// place would resurrect wiped data, so drop it instead.
		f.Close()
		os.Remove(cmpPath)
		return b.statsLocked(), nil
	}
	if err := os.Rename(cmpPath, b.segPath(newID)); err != nil {
		f.Close()
		os.Remove(cmpPath)
		return engine.CompactionStats{}, fmt.Errorf("disklog: %w", err)
	}
	if b.compactCrash == "renamed" {
		f.Close()
		return engine.CompactionStats{}, ErrCrashed
	}
	// The marker records count as live, mirroring replay: a compacted
	// segment whose every data record is still referenced has nothing to
	// reclaim and must not become the next compaction's victim.
	newSeg := &segment{id: newID, f: f, size: off, live: int64(len(hdr)) + int64(len(seal))}
	for i := range items {
		it := &items[i]
		cur, ok := b.index[it.table][it.key]
		if !ok || cur != it.old {
			continue
		}
		b.index[it.table][it.key] = it.new
		newSeg.live += it.new.size
	}
	reclaimed := -newSeg.size
	for _, v := range victims {
		reclaimed += v.size
		v.f.Close()
		delete(b.segByID, v.id)
	}
	// Victims were a prefix of b.segs when snapshotted, and rotations only
	// append, so the prefix is unchanged.
	b.segs = append([]*segment{newSeg}, b.segs[nVictims:]...)
	b.segByID[newID] = newSeg
	b.compacted += reclaimed
	for _, v := range victims[:nVictims-1] {
		if err := os.Remove(b.segPath(v.id)); err != nil {
			return engine.CompactionStats{}, fmt.Errorf("disklog: %w", err)
		}
	}
	if err := syncDir(b.dir); err != nil {
		return engine.CompactionStats{}, err
	}
	return b.statsLocked(), nil
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
