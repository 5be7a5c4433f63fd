// Package lsm is the log-structured merge-tree storage engine, the one
// durable engine the binaries and the library's engine names select. It
// suits read-heavy, version-dense workloads (the RStore premise — many
// overlapping versions under heavy read traffic).
//
// Every user table is a tree of its own, a run: a checksummed write-ahead
// log, a sorted in-memory memtable (a skiplist) and an age-ordered list of
// immutable sorted-string tables (SSTables), all holding the table's own
// keys — the keys of one user table tend to live and die together and the
// keys of two do not. Most writes are made durable in their table's log,
// then land in its memtable; a write call that leaves its table's log mostly
// dead replaces it with one holding only the memtable's entries
// (replaceLogLocked), so a drained table's dead records leave the disk
// without waiting for the next flush. One budget covers every run's
// memtable: the write call that fills it freezes each memtable with its log
// and gives the run a fresh pair (the swap, flush.go), and the Backend's one
// background worker writes each frozen memtable into a new SSTable of its
// run (per-block restart points, a block index, a bloom filter) while reads
// and writes go on. A large sorted batch that the memtables have no room for
// and no memtable key falls among — the write-once chunk segments of a
// placement run — skips the log and the memtable: it is ingested, written
// straight into a new SSTable of its run with no lock held and added by a
// MANIFEST edit (ingest.go). Point reads probe the run's memtable, then its
// frozen one, then its SSTables from newest to oldest — the key range and
// the bloom filter skip tables that cannot hold the key, and a shared LRU
// block cache (the one cache on the read path: blocks are immutable, so it
// needs no invalidation) serves hot blocks without touching disk. Within a
// run, size-tiered compaction merges windows of tables whose key ranges
// overlap, dropping shadowed versions, and leaves a table that overlaps no
// other where it is; a run less than half live is merged into one table —
// both the same way, reading and writing SSTables while reads and writes go
// on (mergeJob); and a table whose every entry is shadowed is unlinked
// without being read (retireLocked). The engine reclaims its dead bytes
// itself: the worker's tier loop, run after every flush and every ingest,
// is the one place lsm merges. Compact (the Compactor interface) asks for
// no merge of its own: it flushes and returns once the worker's pass has
// settled. The MANIFEST names the live files; its atomic rename is
// the commit point for every structural change, which is what makes flush,
// ingest, compaction and retirement crash-safe.
//
// Directory layout: MANIFEST, LOCK (flock), wal-<seq>.log (one per user
// table, two while a frozen memtable awaits its flush), sst-<seq>.sst (run
// and age per the MANIFEST). The directory is flock-ed for the lifetime of
// the backend: one logical writer per data directory. Every file operation
// goes through a reclog.FS — reclog.OS under Open; the crash tests
// (crash_test.go) put an in-memory one under open and recovers the
// directory after each of them. See docs/FORMATS.md for the normative byte
// formats.
package lsm

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
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
	// MemtableBytes is the approximate resident size of all the runs'
	// memtables together at which each is frozen and flushed to an SSTable
	// of its run (default 4 MiB). Tests set it small to force flushes.
	MemtableBytes int64

	// Cache is the block cache serving reads. Passing one instance to every
	// backend of a cluster shares its capacity across nodes; nil gives the
	// backend a private one.
	Cache *BlockCache

	// maxTables is how many tables of one user table's run that overlap
	// another's key range trigger a size-tiered merge (8; lsm's tests
	// lower it). The worker's tier loop counts them after every flush,
	// ingest and Compact.
	maxTables int
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.maxTables <= 0 {
		o.maxTables = 8
	}
	if o.Cache == nil {
		o.Cache = NewBlockCache()
	}
	return o
}

var (
	_ engine.Backend    = (*Backend)(nil)
	_ engine.Compactor  = (*Backend)(nil)
	_ engine.HashRanger = (*Backend)(nil)
)

// Backend is the LSM engine for one node's data directory. It implements
// engine.Backend, engine.Compactor and engine.HashRanger.
type Backend struct {
	fs    reclog.FS
	dir   string
	opts  Options
	cache *BlockCache
	lock  io.Closer // the directory lock; released on Close

	// mu guards all mutable state below. The write path (Put/Delete/
	// BatchPut and the swap) holds it exclusively — an ingest and a flush
	// only to check or capture their input and to install their tables;
	// reads share it.
	mu      sync.RWMutex
	closed  bool
	nextSeq int64
	// runs holds the state of every user table written since Open (and of
	// every one with an SSTable): the engine is built for the
	// handful of tables its callers use, so an emptied run is kept, not
	// collected.
	runs map[string]*run
	// buffered is Σ mem.bytes over the runs' active memtables: the swap
	// trigger.
	buffered int64
	// frozen is set from a swap until the flush of the memtables it froze
	// (run.frozen) commits.
	frozen bool
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

	// Merges need no lock of their own: only the worker's pass merges
	// (tierCompact), and at most one pass runs at a time — on the worker's
	// goroutine, or without one on the settling caller that claimed it
	// (worker.running) — so two merges never race over the same victim
	// tables.

	// flushMu serializes flushes of the frozen memtables (flushFrozen): the
	// worker's, and those of a caller that needs one done — a write whose
	// swap is due while the last frozen set is unflushed, Close. It is
	// taken before mu, never under it.
	flushMu sync.Mutex

	// w is the background worker (flush.go).
	w worker

	// pause, when set (tests only), is called by every flush, merge and
	// ingest at their stages; see setPause.
	pause func(stage string)
}

// run is one user table's tree: its log, its memtable and its SSTables.
type run struct {
	// log is this user table's write-ahead log, nil until the table's first
	// write since Open.
	log *wal
	// logLive is what a log holding only this table's memtable entries would
	// take, one put or delete record each (replaceLogLocked writes exactly
	// that); log.size - logLive is the log's dead weight.
	logLive int64
	// mem holds the table's writes since the last swap.
	mem *memtable
	// frozen is the memtable and the log the last swap froze, until their
	// flush commits; nil otherwise.
	frozen *frozenMem
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
		r = &run{mem: newMemtable()}
		b.runs[table] = r
	}
	return r
}

// runNames lists the runs in name order, the order every multi-run step
// (MANIFEST lines, the swap, tiering) walks them in; callers hold b.mu.
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
	return open(reclog.OS, dir, opts)
}

// open is Open on any file system.
func open(fsys reclog.FS, dir string, opts Options) (*Backend, error) {
	b, err := openInline(fsys, dir, opts)
	if err != nil {
		return nil, err
	}
	b.w.start(b)
	return b, nil
}

// openInline is open without the background worker: the worker's passes
// run on the callers that wait for them (settle). The crash tests use it,
// which crash the engine after each of its file-system calls on their own
// goroutine.
func openInline(fsys reclog.FS, dir string, opts Options) (*Backend, error) {
	if err := reclog.MkdirAll(fsys, dir); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	lock, err := fsys.Lock(dir)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		fs:   fsys,
		dir:  dir,
		opts: opts.withDefaults(),
		lock: lock,
		runs: map[string]*run{},
	}
	b.cache = b.opts.Cache
	b.w.settled = sync.NewCond(&b.mu)
	if err := b.recover(); err != nil {
		b.closeFiles()
		return nil, err
	}
	return b, nil
}

// recover mounts what the MANIFEST names and replays the logs. A log the
// MANIFEST does not name is live if its sequence number is at or past the
// MANIFEST's next: every commit names every log there is, so such a log was
// created after the last one — as some table's first, or by a swap — and
// the table it belongs to is the one its records name. The logs replay in
// sequence order: table key spaces are disjoint, and of a table's two logs
// (a swap's frozen one and the fresh one beside it) the older holds the
// older writes. A table left with two is left with a frozen memtable, which
// the worker flushes.
func (b *Backend) recover() error {
	m, exists, err := readManifest(b.fs, b.dir)
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
		return writeManifest(b.fs, b.dir, manifest{nextSeq: b.nextSeq})
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
		t, err := openSSTable(b.fs, b.sstPath(mt.seq), mt.seq)
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
	logs := m.wals
	for _, seq := range unnamed {
		b.nextSeq = max(b.nextSeq, seq+1)
		logs = append(logs, manifestFile{seq: seq})
	}
	slices.SortFunc(logs, func(x, y manifestFile) int { return cmp.Compare(x.seq, y.seq) })
	for _, f := range logs {
		if err := b.replayLog(f.seq, f.table, f.seq < m.nextSeq); err != nil {
			return err
		}
	}
	// A crash between a write and the retirement it earned left the dead
	// tables mounted; the replay has just killed them again.
	b.retirable = true
	if b.frozen {
		b.w.kickLocked(false)
	}
	return b.retireLocked()
}

// replayLog replays log seq into table's memtable and makes it table's log;
// a table's second log first freezes the memtable and the log the first one
// left (freezeLocked). An unnamed log belongs to the table its first record
// names; one with no intact record is a crash's leftover from right after
// its creation, and is removed. A log holding keys of two tables, or a
// third log of one table, is corruption.
func (b *Backend) replayLog(seq int64, table string, named bool) error {
	known := named
	second := func(t string) error {
		r := b.runs[t]
		if r == nil || r.log == nil {
			return nil
		}
		if r.frozen != nil {
			return fmt.Errorf("%w: lsm logs %d, %d and %d all hold table %q", types.ErrCorrupt, r.frozen.log.seq, r.log.seq, seq, t)
		}
		return b.freezeLocked(r)
	}
	if named {
		if err := second(table); err != nil {
			return err
		}
	}
	w, err := replayWAL(b.fs, b.walPath(seq), seq, func(kind byte, t, key string, value []byte) error {
		if !known {
			table, known = t, true
			if err := second(t); err != nil {
				return err
			}
		}
		if t != table {
			return fmt.Errorf("%w: lsm log %d holds keys of tables %q and %q", types.ErrCorrupt, seq, table, t)
		}
		if kind == reclog.KindDel {
			return b.applyDelLocked(t, []byte(key))
		}
		return b.applyPutLocked(t, []byte(key), append([]byte(nil), value...))
	})
	if err != nil {
		return err
	}
	if !known {
		w.close()
		return b.fs.Remove(w.path)
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
// sequence numbers it returns. Foreign files are left alone.
func (b *Backend) removeDebris(referenced map[string]bool, firstUnnamed int64) (unnamed []int64, err error) {
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	removed := false
	for _, name := range names {
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
		if err := b.fs.Remove(filepath.Join(b.dir, name)); err != nil {
			return nil, fmt.Errorf("lsm: %w", err)
		}
		removed = true
	}
	if removed {
		return unnamed, b.fs.SyncDir(b.dir)
	}
	return unnamed, nil
}

// rebuildAccounting replays a merged scan of r's mounted tables (its
// memtable is empty yet, so every entry comes from one of them) to
// reconstruct live bytes, the run's key count, and each table's live
// counters.
func (b *Backend) rebuildAccounting(r *run) error {
	sources, err := r.sources(b.cache)
	if err != nil {
		return err
	}
	dead := make([]int64, len(r.tables))
	err = mergeSources(sources,
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

// sources lists r's merge sources in age order: its SSTables, oldest
// first, then its frozen memtable, then its memtable.
func (r *run) sources(cache *BlockCache) ([]source, error) {
	sources := make([]source, 0, len(r.tables)+2)
	for _, t := range r.tables {
		it, err := t.iter(cache)
		if err != nil {
			return nil, err
		}
		sources = append(sources, it)
	}
	if r.frozen != nil {
		sources = append(sources, r.frozen.mem.iter())
	}
	return append(sources, r.mem.iter()), nil
}

// holdsWithin reports whether some key of r's memtable or frozen memtable,
// tombstones included, lies in [lo, hi]: an SSTable holding that range
// would sit beneath it.
func (r *run) holdsWithin(lo, hi []byte) bool {
	return r.mem.holdsWithin(lo, hi) || r.frozen != nil && r.frozen.mem.holdsWithin(lo, hi)
}

// holder is where a key's newest version lives below the memtable — an
// SSTable or the frozen memtable — whose live accounting a write that
// supersedes it takes the version out of.
type holder interface {
	// shadow takes a value entry of keyLen and valLen bytes out of the live
	// accounting and reports whether it was the holder's last.
	shadow(keyLen, valLen int) (last bool)
}

// findLocked finds the newest version of key in r (nil: a table never
// written): (value, its holder or nil for the memtable, found). A tombstone
// anywhere newest means not found. The value aliases a memtable or a cached
// block; callers hold b.mu (any mode) and must not retain or mutate it past
// the lock.
func (b *Backend) findLocked(r *run, key []byte) (value []byte, src holder, found bool, err error) {
	if r == nil {
		return nil, nil, false, nil
	}
	if v, tomb, ok := r.mem.get(key); ok {
		return v, nil, !tomb, nil
	}
	if f := r.frozen; f != nil {
		if v, tomb, ok := f.mem.get(key); ok {
			return v, f, !tomb, nil
		}
	}
	for i := len(r.tables) - 1; i >= 0; i-- {
		v, tomb, ok, err := r.tables[i].get(key, b.cache)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			return v, r.tables[i], !tomb, nil
		}
	}
	return nil, nil, false, nil
}

// shadowLocked takes the version of key that a write is about to supersede
// out of the live accounting, wherever it lives.
func (b *Backend) shadowLocked(src holder, key, prev []byte) {
	b.bytes -= int64(len(prev))
	if src != nil && src.shadow(len(key), len(prev)) {
		b.retirable = true
	}
}

// applyPutLocked installs value under key (both already copied), updating
// live accounting: a shadowed older version stops being live wherever it
// lives.
func (b *Backend) applyPutLocked(table string, key, value []byte) error {
	r := b.runLocked(table)
	prev, src, found, err := b.findLocked(r, key)
	if err != nil {
		return err
	}
	if found {
		b.shadowLocked(src, key, prev)
	} else {
		r.keys++
	}
	b.bytes += int64(len(value))
	b.setMemLocked(r, table, key, value, false)
	return nil
}

// applyDelLocked installs a tombstone under key if the key currently exists;
// deleting a missing key is a no-op that writes nothing.
func (b *Backend) applyDelLocked(table string, key []byte) error {
	r := b.runs[table]
	prev, src, found, err := b.findLocked(r, key)
	if err != nil || !found {
		return err
	}
	b.shadowLocked(src, key, prev)
	r.keys--
	b.setMemLocked(r, table, key, nil, true)
	return nil
}

// setMemLocked installs an entry in r's memtable — which changes the
// table's contents, and what its log holds live: the record of the entry it
// replaces is dead from now on.
func (b *Backend) setMemLocked(r *run, table string, key, value []byte, tomb bool) {
	before := r.mem.bytes
	prevLen, existed := r.mem.set(key, value, tomb)
	b.buffered += r.mem.bytes - before
	r.logLive += logRecordLen(table, len(key), len(value))
	if existed {
		r.logLive -= logRecordLen(table, len(key), prevLen)
	}
	r.gen++
}

// logRecordLen is the length of a put (valueLen bytes) or delete (none)
// record of a keyLen-byte key of table.
func logRecordLen(table string, keyLen, valueLen int) int64 {
	return int64(reclog.FrameSize + 1 + codec.BytesLen(len(table)) + codec.BytesLen(keyLen) + valueLen)
}

// write runs one write call to table: apply logs and applies its entries
// under b.mu. The call then retires the tables it killed — first, so that a
// swap it also triggers sees their runs empty and its flush writes no
// tombstone on their account — and swaps a full memtable set out (flush.go),
// or else replaces the table's log if the call left it mostly dead. A swap
// due while the last frozen set is still unflushed waits for that flush,
// with b.mu released: the one wait a write call makes for the worker.
func (b *Backend) write(ctx context.Context, table string, apply func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	stalled, err := b.applyWrite(table, apply)
	for stalled && err == nil {
		if err = b.flushFrozen(); err == nil {
			stalled, err = b.swapDue()
		}
	}
	return err
}

// applyWrite is the part of a write call that holds b.mu; stalled reports a
// swap due while a frozen set is unflushed.
func (b *Backend) applyWrite(table string, apply func() error) (stalled bool, err error) {
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
	if b.buffered >= b.opts.MemtableBytes {
		return b.swapIfDueLocked()
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
	w, err := b.createWAL(seq)
	if err != nil {
		return nil, err
	}
	r.log = w
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
		return b.applyPutLocked(table, []byte(key), append([]byte(nil), value...))
	})
}

// BatchPut makes the whole batch durable before acknowledging, and a crash
// keeps all of it or none. A batch of strictly ascending keys, of at least
// an eighth of MemtableBytes and more than the memtables have room for, that
// no key of the table's memtable falls among is ingested: written as one new
// SSTable of the table's run and committed by the MANIFEST (ingest.go).
// Every other batch is appended as one checksummed record of the table's
// log, and fsynced — the single record's crc32 is what makes fsync-on-batch
// atomic under torn writes.
func (b *Backend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	if len(entries) == 0 {
		return ctx.Err()
	}
	if payload, ok := b.ingestable(entries); ok {
		if ingested, err := b.ingest(ctx, table, entries, payload); ingested || err != nil {
			return err
		}
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
			if err := b.applyPutLocked(table, []byte(e.Key), append([]byte(nil), e.Value...)); err != nil {
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
	v, _, found, err := b.findLocked(b.runs[table], []byte(key))
	if err != nil || !found {
		return nil, false, err
	}
	return append([]byte(nil), v...), true, nil
}

// MultiGet reads keys one Get at a time (engine.GetEach).
func (b *Backend) MultiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	return engine.GetEach(ctx, b, table, keys)
}

// Delete removes (table, key) by writing a tombstone; deleting a missing
// key writes nothing.
func (b *Backend) Delete(ctx context.Context, table, key string) error {
	return b.write(ctx, table, func() error {
		k := []byte(key)
		// Look before logging: a no-op delete must not grow the log.
		_, _, found, err := b.findLocked(b.runs[table], k)
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
		return b.applyDelLocked(table, k)
	})
}

// errStopScan aborts a merged scan early (fn returned false); it never
// escapes to callers.
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
// visits every live (key, value) of table through the table's run, newest
// version winning, tombstones skipped, until visit returns false. Callers
// hold b.mu (any mode).
func (b *Backend) scanLocked(ctx context.Context, table string, visit func(key string, value []byte) bool) error {
	r := b.runs[table]
	if r == nil {
		return nil
	}
	sources, err := r.sources(b.cache)
	if err != nil {
		return err
	}
	err = mergeSources(sources, func(key, value []byte, tomb bool, _ int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !tomb && !visit(string(key), value) {
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

// Close stops the worker, flushes the memtables a swap froze, fsyncs the
// logs (making every write durable) and releases the directory. A merge
// under way is abandoned. Close after Close is a no-op.
func (b *Backend) Close() error {
	b.mu.RLock()
	closed := b.closed
	b.mu.RUnlock()
	if closed {
		return nil
	}
	b.w.stop()
	ferr := b.flushFrozen()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	b.w.settled.Broadcast()
	err := ferr
	for _, r := range b.runs {
		for _, w := range r.logs() {
			if serr := w.sync(); err == nil {
				err = serr
			}
			if cerr := w.close(); err == nil && cerr != nil {
				err = fmt.Errorf("lsm: %w", cerr)
			}
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

// logs lists r's open logs: the frozen one, if any, then the active one,
// if any.
func (r *run) logs() []*wal {
	var logs []*wal
	if r.frozen != nil {
		logs = append(logs, r.frozen.log)
	}
	if r.log != nil {
		logs = append(logs, r.log)
	}
	return logs
}

// setPause installs a hook (tests only) that every flush, merge and ingest
// started from then on calls at its stages, holding no lock but a flush's
// flushMu: a flush with "flushing" before it writes the frozen memtables
// and "flushed" between making their tables durable and installing them; a
// merge with "captured" before it reads its victims and "written" between
// writing its output and installing it; an ingest with "ingesting" before it
// writes its table and "ingested" between making the table durable and
// installing it. A hook that blocks holds the flush, the merge or the
// ingest there. Nil removes it.
func (b *Backend) setPause(pause func(stage string)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pause = pause
}

// Kill simulates process death (tests only): the worker is stopped, and
// every file handle and the directory lock are dropped with no syncing and
// no cleanup, leaving the on-disk state exactly as the crash left it. The
// backend is unusable afterwards; reopen the directory with Open.
func (b *Backend) Kill() {
	b.mu.Lock()
	b.closed = true
	b.w.settled.Broadcast()
	b.mu.Unlock()
	b.w.stop()
	b.flushMu.Lock() // a flush under way on a caller's goroutine ends first
	defer b.flushMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closeFiles()
}

// closeFiles drops every descriptor without syncing; callers hold b.mu.
func (b *Backend) closeFiles() {
	for _, r := range b.runs {
		for _, w := range r.logs() {
			w.close()
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
