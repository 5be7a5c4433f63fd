// Package lsm is the log-structured merge-tree storage engine, the one
// durable engine the binaries and the library's engine names select. It
// suits read-heavy, version-dense workloads (the RStore premise — many
// overlapping versions under heavy read traffic).
//
// Writes land in a sorted in-memory memtable (a skiplist) after being made
// durable in a checksummed write-ahead log of their user table's own; a
// write call that leaves its table's log mostly dead replaces it with one
// holding only the table's memtable entries (replaceLogLocked), so a drained
// table's dead records leave the disk without waiting for the next flush. A
// full memtable is flushed into
// immutable sorted-string tables (SSTables) with a per-block restart-point
// format, a block index, and a bloom filter — one file per user table the
// memtable holds, because the keys of one user table tend to live and die
// together and the keys of two do not. Each user table so has its own
// age-ordered run of SSTables. Point reads probe the memtable, then the
// SSTables of the key's run from newest to oldest — the bloom filter skips
// tables that cannot hold the key, and a shared LRU block cache (the one
// cache on the read path: blocks are immutable, so it needs no
// invalidation) serves hot blocks without touching disk. Within a run,
// size-tiered compaction merges windows of adjacent tables, dropping
// shadowed versions; a full merge (the Compactor interface) merges each run
// into one table — both the same way, reading and writing SSTables while
// reads and writes go on (mergeJob); and a table whose every entry is
// shadowed is unlinked without being read (retireLocked). The MANIFEST
// names the live files; its atomic rename is the commit point for every
// structural change, which is what makes flush, compaction, retirement and
// reset crash-safe.
//
// Directory layout: MANIFEST, LOCK (flock), wal-<seq>.log (at most one per
// user table), sst-<seq>.sst (run and age per the MANIFEST). The directory is
// flock-ed for the lifetime of the backend: one logical writer per data
// directory. See docs/FORMATS.md for the normative byte
// formats.
package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"rstore/internal/codec"
	"rstore/internal/engine"
	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

// Options tune a Backend; the zero value selects production defaults.
type Options struct {
	// MemtableBytes is the approximate resident size at which the memtable
	// is flushed to an SSTable (default 4 MiB). Tests set it small to force
	// flushes.
	MemtableBytes int64

	// MaxTables is the SSTable count of one user table's run that triggers
	// size-tiered compaction after a flush (default 8).
	MaxTables int

	// Cache is the block cache serving reads. Passing one instance to every
	// backend of a cluster shares its capacity across nodes; nil gives the
	// backend a private default cache.
	Cache *BlockCache
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxTables <= 0 {
		o.MaxTables = 8
	}
	if o.Cache == nil {
		o.Cache = NewBlockCache(0)
	}
	return o
}

// ErrCrashed reports that a crash-injection point fired (tests only): the
// backend stopped mid-operation exactly as a power failure would, and must
// be Kill-ed and reopened.
var ErrCrashed = errors.New("lsm: injected crash")

var (
	_ engine.Backend    = (*Backend)(nil)
	_ engine.Compactor  = (*Backend)(nil)
	_ engine.Resetter   = (*Backend)(nil)
	_ engine.HashRanger = (*Backend)(nil)
)

// Backend is the LSM engine for one node's data directory. It implements
// engine.Backend, engine.Compactor, engine.Resetter, and engine.HashRanger.
type Backend struct {
	dir   string
	opts  Options
	cache *BlockCache
	lock  *os.File // flock-held LOCK file; released on Close

	// mu guards all mutable state below. The write path (Put/Delete/
	// BatchPut/flush) holds it exclusively; reads share it.
	mu     sync.RWMutex
	closed bool
	// epoch counts Resets; a compaction validates it before committing so a
	// concurrent wipe can never resurrect merged data.
	epoch   int64
	mem     *memtable
	nextSeq int64
	// runs holds the state of every user table written since Open or Reset
	// (and of every one with an SSTable): the engine is built for the
	// handful of tables its callers use, so an emptied run is kept, not
	// collected.
	runs map[string]*run
	// bytes is Σ len(value) over live keys — the BytesStored contract.
	bytes int64
	// compacted accumulates bytes reclaimed by merges and retirements
	// (CompactionStats).
	compacted int64
	// rewritten accumulates the bytes merges wrote: what reclaiming cost
	// (BenchmarkChurn reports it per byte put).
	rewritten int64
	// retirable is set when some SSTable's last unshadowed entry died; the
	// write call that did it ends in retireLocked.
	retirable bool

	// compactMu serializes merges (explicit Compact and post-flush
	// size-tiered compaction) so two merges can never race over the same
	// victim tables. It is taken before mu, never under it.
	compactMu sync.Mutex

	// crash names the active crash-injection point ("" in production).
	crash string
	// mergePause, when set (tests only), is called by every merge at its
	// stages; see setMergePause.
	mergePause func(stage string)
}

// run is one user table's share of the tree. Memtable and internal-key
// format are shared across runs; everything on disk is not.
type run struct {
	// log is this user table's write-ahead log, nil until the table's first
	// write since Open, Reset or a flush that found its log empty.
	log *wal
	// logLive is what a log holding only this table's memtable entries would
	// take, one put or delete record each (replaceLogLocked writes exactly
	// that); log.size - logLive is the log's dead weight.
	logLive int64
	// tables are this user table's SSTables in age order: oldest first,
	// newest last. None holds a key of another user table.
	tables []*sstable
	// keys counts the live keys, backing Tables().
	keys int
	// gen counts logical-content changes (every applied put/delete); flush,
	// merge and retirement leave it alone because they do not change
	// contents. memo caches the last HashTree digest per fanout at the gen
	// it was computed, so repeated anti-entropy sweeps over an unchanged
	// table skip the merged scan entirely, whatever is written to the
	// tables beside it (see hashtree.go).
	gen  int64
	memo map[int]hashMemoEntry
}

// runLocked returns table's run, creating it on first use; callers hold
// b.mu exclusively.
func (b *Backend) runLocked(table string) *run {
	r := b.runs[table]
	if r == nil {
		r = &run{}
		b.runs[table] = r
	}
	return r
}

// runNames lists the runs in name order, the order every multi-run step
// (MANIFEST lines, tiering, Compact) walks them in; callers hold b.mu.
func (b *Backend) runNames() []string {
	names := make([]string, 0, len(b.runs))
	for name := range b.runs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// allTables lists every mounted SSTable; callers hold b.mu.
func (b *Backend) allTables() []*sstable {
	var all []*sstable
	for _, r := range b.runs {
		all = append(all, r.tables...)
	}
	return all
}

// Open mounts (creating if needed) the LSM store in dir and recovers it:
// debris from crashes is deleted, the MANIFEST's tables are mounted and
// scanned to rebuild accounting, and every table's log is replayed into a
// fresh memtable (truncating a torn tail).
func Open(dir string, opts Options) (*Backend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	lock, err := reclog.Lock(dir)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		dir:  dir,
		opts: opts.withDefaults(),
		lock: lock,
		mem:  newMemtable(),
		runs: map[string]*run{},
	}
	b.cache = b.opts.Cache
	if err := b.recover(); err != nil {
		b.closeFiles()
		return nil, err
	}
	return b, nil
}

// recover mounts what the MANIFEST names and replays the logs. A log the
// MANIFEST does not name is live if its sequence number is at or past the
// MANIFEST's next: every commit names every log there is, so such a log was
// created after the last one, as some table's first, and the table it
// belongs to is the one its records name. Table key spaces are disjoint, so
// the logs replay in any order.
func (b *Backend) recover() error {
	m, exists, err := readManifest(b.dir)
	if err != nil {
		return err
	}
	if !exists {
		// Never initialized (or crashed before the first commit): any lsm
		// files present are uncommitted debris from that first attempt.
		if _, err := b.removeDebris(nil, math.MaxInt64); err != nil {
			return err
		}
		b.nextSeq = 1
		return writeManifest(b.dir, manifest{nextSeq: b.nextSeq})
	}
	b.nextSeq = m.nextSeq
	referenced := map[string]bool{}
	for _, f := range m.wals {
		referenced[filepath.Base(b.walPath(f.seq))] = true
	}
	for _, f := range m.ssts {
		referenced[filepath.Base(b.sstPath(f.seq))] = true
	}
	unnamed, err := b.removeDebris(referenced, m.nextSeq)
	if err != nil {
		return err
	}
	for _, mt := range m.ssts {
		t, err := openSSTable(b.sstPath(mt.seq), mt.seq)
		if err != nil {
			return err
		}
		r := b.runLocked(mt.table)
		r.tables = append(r.tables, t)
	}
	for _, r := range b.runs {
		if err := b.rebuildAccounting(r); err != nil {
			return err
		}
	}
	// Replay each log through the normal apply path so memtable state and
	// accounting (including decrements against just-mounted tables) are
	// rebuilt exactly as the original writes built them.
	for _, f := range m.wals {
		if err := b.replayLog(f.seq, f.table, true); err != nil {
			return err
		}
	}
	for _, seq := range unnamed {
		b.nextSeq = max(b.nextSeq, seq+1)
		if err := b.replayLog(seq, "", false); err != nil {
			return err
		}
	}
	// A crash between a write and the retirement it earned left the dead
	// tables mounted; the replay has just killed them again.
	b.retirable = true
	return b.retireLocked()
}

// replayLog replays log seq into the memtable and makes it table's log. An
// unnamed log belongs to the table its first record names; one with no
// intact record is a crash's leftover from right after its creation, and
// is removed. A log holding keys of two tables, or a second log of one
// table, is corruption.
func (b *Backend) replayLog(seq int64, table string, named bool) error {
	known := named
	w, err := replayWAL(b.walPath(seq), seq, func(kind byte, t, key string, value []byte) error {
		if !known {
			table, known = t, true
		}
		if t != table {
			return fmt.Errorf("%w: lsm log %d holds keys of tables %q and %q", types.ErrCorrupt, seq, table, t)
		}
		ik := ikey(t, key)
		if kind == reclog.KindDel {
			return b.applyDelLocked(t, ik)
		}
		return b.applyPutLocked(t, ik, append([]byte(nil), value...))
	})
	if err != nil {
		return err
	}
	if !known {
		w.close()
		return os.Remove(w.path)
	}
	w.dirSynced = named // a named log's entry was fsynced before the MANIFEST named it
	r := b.runLocked(table)
	if r.log != nil {
		w.close()
		return fmt.Errorf("%w: lsm logs %d and %d both hold table %q", types.ErrCorrupt, r.log.seq, seq, table)
	}
	r.log = w
	return nil
}

// removeDebris deletes every lsm-owned file (sst-*.sst, wal-*.log, *.tmp)
// not in referenced, except the logs numbered firstUnnamed or later, whose
// sequence numbers it returns. Foreign files (GEOMETRY and friends) are
// left alone.
func (b *Backend) removeDebris(referenced map[string]bool, firstUnnamed int64) (unnamed []int64, err error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	removed := false
	for _, e := range entries {
		name := e.Name()
		if referenced[name] {
			continue
		}
		var seq int64
		if n, _ := fmt.Sscanf(name, "wal-%d.log", &seq); n == 1 && name == filepath.Base(b.walPath(seq)) && seq >= firstUnnamed {
			unnamed = append(unnamed, seq)
			continue
		}
		ours := strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "sst-") && strings.HasSuffix(name, ".sst")) ||
			(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"))
		if !ours {
			continue
		}
		if err := os.Remove(filepath.Join(b.dir, name)); err != nil {
			return nil, fmt.Errorf("lsm: %w", err)
		}
		removed = true
	}
	if removed {
		return unnamed, reclog.SyncDir(b.dir)
	}
	return unnamed, nil
}

// rebuildAccounting replays a merged scan of r's mounted tables (no
// memtable yet) to reconstruct live bytes, the run's key count, and each
// table's live counters.
func (b *Backend) rebuildAccounting(r *run) error {
	sources := make([]source, len(r.tables))
	for i, t := range r.tables {
		it, err := t.iterGE(nil, b.cache)
		if err != nil {
			return err
		}
		sources[i] = it
	}
	dead := make([]int64, len(r.tables))
	err := mergeSources(sources,
		func(key, value []byte, tomb bool, src int) error {
			if tomb {
				dead[src] += logicalSize(len(key), len(value))
				return nil
			}
			b.bytes += int64(len(value))
			r.keys++
			r.tables[src].liveEntries++
			return nil
		},
		func(src int, keyLen, valLen int) error {
			dead[src] += logicalSize(keyLen, valLen)
			return nil
		})
	if err != nil {
		return err
	}
	for i, t := range r.tables {
		t.live = t.size - dead[i]
	}
	return nil
}

// appendIKey appends the internal key for (table, key) to dst: uvarint(
// len(table)) table key. The uvarint prefix is self-delimiting, so distinct
// tables produce prefix-free ranges and bytewise order groups each table's
// keys contiguously.
func appendIKey(dst []byte, table, key string) []byte {
	dst = codec.PutUvarint(dst, uint64(len(table)))
	dst = append(dst, table...)
	return append(dst, key...)
}

// ikey builds the internal key for (table, key) in a fresh allocation.
func ikey(table, key string) []byte {
	out := make([]byte, 0, codec.UvarintLen(uint64(len(table)))+len(table)+len(key))
	return appendIKey(out, table, key)
}

// tablePrefix is the internal-key prefix shared by every key of table.
func tablePrefix(table string) []byte {
	out := codec.PutUvarint(nil, uint64(len(table)))
	return append(out, table...)
}

// prefixSuccessor returns the smallest byte string greater than every
// string with prefix p (nil when p is all 0xff: no upper bound).
func prefixSuccessor(p []byte) []byte {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xff {
			out := append([]byte(nil), p[:i+1]...)
			out[i]++
			return out
		}
	}
	return nil
}

// splitIKey inverts ikey.
func splitIKey(ik []byte) (table, key string, err error) {
	l, rest, err := codec.Uvarint(ik)
	if err != nil || uint64(len(rest)) < l {
		return "", "", fmt.Errorf("%w: lsm internal key", types.ErrCorrupt)
	}
	return string(rest[:l]), string(rest[l:]), nil
}

// findLocked finds the newest version of ik, a key of table: (value, the
// SSTable holding it or nil for the memtable, found). A tombstone anywhere
// newest means not found. The value aliases the memtable or a cached block;
// callers hold b.mu (any mode) and must not retain or mutate it past the
// lock.
func (b *Backend) findLocked(table string, ik []byte) (value []byte, src *sstable, found bool, err error) {
	if v, tomb, ok := b.mem.get(ik); ok {
		return v, nil, !tomb, nil
	}
	r := b.runs[table]
	if r == nil {
		return nil, nil, false, nil
	}
	for i := len(r.tables) - 1; i >= 0; i-- {
		v, tomb, ok, err := r.tables[i].get(ik, b.cache)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			return v, r.tables[i], !tomb, nil
		}
	}
	return nil, nil, false, nil
}

// shadowLocked takes the version of ik that a write is about to supersede
// out of the live accounting, wherever it lives.
func (b *Backend) shadowLocked(src *sstable, ik, prev []byte) {
	b.bytes -= int64(len(prev))
	if src == nil {
		return
	}
	src.live -= logicalSize(len(ik), len(prev))
	if src.liveEntries--; src.liveEntries == 0 {
		b.retirable = true
	}
}

// applyPutLocked installs value (already copied) under ik, updating live
// accounting: a shadowed older version stops being live wherever it lives.
func (b *Backend) applyPutLocked(table string, ik, value []byte) error {
	prev, src, found, err := b.findLocked(table, ik)
	if err != nil {
		return err
	}
	r := b.runLocked(table)
	if found {
		b.shadowLocked(src, ik, prev)
	} else {
		r.keys++
	}
	b.bytes += int64(len(value))
	r.setMemLocked(b.mem, table, ik, value, false)
	return nil
}

// applyDelLocked installs a tombstone under ik if the key currently exists;
// deleting a missing key is a no-op that writes nothing.
func (b *Backend) applyDelLocked(table string, ik []byte) error {
	prev, src, found, err := b.findLocked(table, ik)
	if err != nil || !found {
		return err
	}
	r := b.runs[table] // a key was found, so the run exists
	b.shadowLocked(src, ik, prev)
	r.keys--
	r.setMemLocked(b.mem, table, ik, nil, true)
	return nil
}

// setMemLocked installs an entry of r's table in the memtable — which
// changes the table's contents, and what its log holds live: the record of
// the entry it replaces is dead from now on.
func (r *run) setMemLocked(mem *memtable, table string, ik, value []byte, tomb bool) {
	prevLen, _, existed := mem.set(ik, value, tomb)
	r.logLive += logRecordLen(table, ik, len(value))
	if existed {
		r.logLive -= logRecordLen(table, ik, prevLen)
	}
	r.gen++
}

// logRecordLen is the length of a put (valueLen bytes) or delete (none)
// record of ik, a key of table.
func logRecordLen(table string, ik []byte, valueLen int) int64 {
	keyLen := len(ik) - codec.BytesLen(len(table))
	return int64(reclog.FrameSize + 1 + codec.BytesLen(len(table)) + codec.BytesLen(keyLen) + valueLen)
}

// write runs one write call to table: apply logs and applies its entries
// under b.mu. The call then retires the tables it killed — first, so that a
// flush it also triggers sees their runs empty and writes no tombstone on
// their account — and flushes a full memtable, or else replaces the table's
// log if the call left it mostly dead. A call that flushed ends, with b.mu
// released, in the tier loop.
func (b *Backend) write(ctx context.Context, table string, apply func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	flushed, err := b.applyWrite(ctx, table, apply)
	if err != nil || !flushed {
		return err
	}
	return b.tierCompact(ctx)
}

// applyWrite is the part of a write call that holds b.mu.
func (b *Backend) applyWrite(ctx context.Context, table string, apply func() error) (flushed bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false, types.ErrClosed
	}
	if err := apply(); err != nil {
		return false, err
	}
	if err := b.retireLocked(); err != nil {
		return false, err
	}
	if b.mem.bytes >= b.opts.MemtableBytes {
		return true, b.flushLocked(ctx)
	}
	if r := b.runs[table]; r != nil && r.log != nil {
		// Mostly dead: more dead bytes than live ones, so a replacement
		// reclaims more than it writes, and more than a floor, so a small
		// log is not rewritten for every few records that die in it.
		if dead := r.log.size - r.logLive; dead > r.logLive && dead > b.opts.MemtableBytes/16 {
			return false, b.replaceLogLocked(table, r)
		}
	}
	return false, nil
}

// logLocked returns table's log, creating its first one if it has none.
// Creating it commits nothing: it is live from the moment it exists (see
// recover), and its first sync makes its directory entry durable.
func (b *Backend) logLocked(table string) (*wal, error) {
	r := b.runLocked(table)
	if r.log != nil {
		return r.log, nil
	}
	seq := b.allocSeqLocked()
	w, err := createWAL(b.walPath(seq), seq)
	if err != nil {
		return nil, err
	}
	r.log = w
	if b.crash == "log-created" {
		return nil, ErrCrashed
	}
	return w, nil
}

// Put stores value under (table, key). It is durable no later than the
// next BatchPut to the same table, flush, or Close.
func (b *Backend) Put(ctx context.Context, table, key string, value []byte) error {
	return b.write(ctx, table, func() error {
		w, err := b.logLocked(table)
		if err != nil {
			return err
		}
		if err := w.appendRecord(reclog.KindPut, table, key, value); err != nil {
			return err
		}
		return b.applyPutLocked(table, ikey(table, key), append([]byte(nil), value...))
	})
}

// BatchPut appends the whole batch as one checksummed record of the table's
// log and fsyncs before acknowledging, so the batch replays whole or not at
// all — the single record's crc32 is what makes fsync-on-batch atomic under
// torn writes.
func (b *Backend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	if len(entries) == 0 {
		return ctx.Err()
	}
	return b.write(ctx, table, func() error {
		w, err := b.logLocked(table)
		if err != nil {
			return err
		}
		rec, err := w.frame(walBatchLen(table, entries))
		if err != nil {
			return err
		}
		if err := w.appendFrame(encodeWALBatch(rec, table, entries)); err != nil {
			return err
		}
		if err := w.sync(); err != nil {
			return err
		}
		// Applied in order, so a later entry for the same key wins.
		for _, e := range entries {
			if err := b.applyPutLocked(table, ikey(table, e.Key), append([]byte(nil), e.Value...)); err != nil {
				return err
			}
		}
		return nil
	})
}

// Get returns a copy of the newest value under (table, key).
func (b *Backend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, false, types.ErrClosed
	}
	// Short keys build their internal form on the stack: a point read
	// should not allocate for its key.
	var ikb [96]byte
	v, _, found, err := b.findLocked(table, appendIKey(ikb[:0], table, key))
	if err != nil || !found {
		return nil, false, err
	}
	return append([]byte(nil), v...), true, nil
}

// Delete removes (table, key) by writing a tombstone; deleting a missing
// key writes nothing.
func (b *Backend) Delete(ctx context.Context, table, key string) error {
	return b.write(ctx, table, func() error {
		ik := ikey(table, key)
		// Look before logging: a no-op delete must not grow the log.
		_, _, found, err := b.findLocked(table, ik)
		if err != nil || !found {
			return err
		}
		w, err := b.logLocked(table)
		if err != nil {
			return err
		}
		if err := w.appendRecord(reclog.KindDel, table, key, nil); err != nil {
			return err
		}
		return b.applyDelLocked(table, ik)
	})
}

// errStopScan aborts a merged scan early (fn returned false, or the range
// end was passed); it never escapes to callers.
var errStopScan = errors.New("lsm: stop scan")

// Scan visits every live key of table in key order. Values passed to fn may
// alias the memtable or cached blocks; fn must not retain or mutate them.
func (b *Backend) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return types.ErrClosed
	}
	return b.scanLocked(ctx, table, fn)
}

// scanLocked is the one merged walk behind Scan, HashTree and HashRange: it
// visits every live (userKey, value) of table through the table's run and
// the memtable, newest version winning, tombstones skipped, until visit
// returns false. Callers hold b.mu (any mode).
func (b *Backend) scanLocked(ctx context.Context, table string, visit func(userKey string, value []byte) bool) error {
	prefix := tablePrefix(table)
	end := prefixSuccessor(prefix)
	var sources []source
	if r := b.runs[table]; r != nil {
		sources = make([]source, 0, len(r.tables)+1)
		for _, t := range r.tables {
			it, err := t.iterGE(nil, b.cache)
			if err != nil {
				return err
			}
			sources = append(sources, it)
		}
	}
	sources = append(sources, b.mem.iter(prefix)) // newest last
	err := mergeSources(sources, func(key, value []byte, tomb bool, _ int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Only the memtable can run past the table: it holds every run's keys.
		if end != nil && bytes.Compare(key, end) >= 0 {
			return errStopScan
		}
		if tomb {
			return nil
		}
		if !visit(string(key[len(prefix):]), value) {
			return errStopScan
		}
		return nil
	}, nil)
	if errors.Is(err, errStopScan) {
		return nil
	}
	return err
}

// Tables lists the user tables currently holding at least one live key.
func (b *Backend) Tables(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, types.ErrClosed
	}
	out := make([]string, 0, len(b.runs))
	for _, name := range b.runNames() {
		if b.runs[name].keys > 0 {
			out = append(out, name)
		}
	}
	return out, nil
}

// BytesStored reports the summed length of all live values.
func (b *Backend) BytesStored() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.bytes
}

// Close fsyncs the logs (making every write durable) and releases the
// directory. Close after Close is a no-op.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	var err error
	for _, r := range b.runs {
		if r.log == nil {
			continue
		}
		if serr := r.log.sync(); err == nil {
			err = serr
		}
		if cerr := r.log.close(); err == nil && cerr != nil {
			err = fmt.Errorf("lsm: %w", cerr)
		}
	}
	for _, t := range b.allTables() {
		if cerr := t.close(); err == nil && cerr != nil {
			err = fmt.Errorf("lsm: %w", cerr)
		}
	}
	if cerr := b.lock.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("lsm: %w", cerr)
	}
	return err
}

// Reset wipes the store back to empty in one crash-safe step: a MANIFEST
// naming no file is committed, and every old file is then deleted. The
// epoch bump makes any in-flight compaction abandon its output rather than
// resurrect wiped data.
func (b *Backend) Reset(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return types.ErrClosed
	}
	if err := writeManifest(b.dir, manifest{nextSeq: b.nextSeq}); err != nil {
		return err
	}
	// Committed: tear down the old state (the digest memos go with the runs).
	b.epoch++
	oldRuns, oldTables := b.runs, b.allTables()
	b.runs = map[string]*run{}
	b.mem = newMemtable()
	b.bytes = 0
	b.retirable = false
	for _, r := range oldRuns {
		discardLog(r.log)
	}
	discardTables(oldTables)
	return reclog.SyncDir(b.dir)
}

// SetCrashPoint arms a crash-injection point (tests only): the named
// internal step fails with ErrCrashed exactly where a power failure would
// cut. Recognized points: "mid-flush", "flush-part-renamed",
// "flush-renamed", "mid-merge", "merge-renamed", "merge-manifested",
// "retire-manifested", "log-created", "replace-written",
// "replace-renamed". Empty disarms.
func (b *Backend) SetCrashPoint(point string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.crash = point
}

// setMergePause installs a hook (tests only) that every merge captured from
// then on calls, holding compactMu and nothing else, with "captured" before
// it reads its victims and "written" between writing its output and
// installing it. A hook that blocks holds the merge there. Nil removes it.
func (b *Backend) setMergePause(pause func(stage string)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mergePause = pause
}

// Kill simulates process death (tests only): every file handle and the
// directory lock are dropped with no syncing and no cleanup, leaving the
// on-disk state exactly as the crash left it. The backend is unusable
// afterwards; reopen the directory with Open.
func (b *Backend) Kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.closeFiles()
}

// closeFiles drops every descriptor without syncing; callers hold b.mu.
func (b *Backend) closeFiles() {
	for _, r := range b.runs {
		if r.log != nil {
			r.log.close()
		}
	}
	for _, t := range b.allTables() {
		t.close()
	}
	b.lock.Close() // releases the flock
}

func (b *Backend) sstPath(seq int64) string {
	return filepath.Join(b.dir, fmt.Sprintf("sst-%06d.sst", seq))
}

func (b *Backend) walPath(seq int64) string {
	return filepath.Join(b.dir, fmt.Sprintf("wal-%06d.log", seq))
}
