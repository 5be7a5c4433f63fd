package lsm

import (
	"bytes"
	"context"
	"math/bits"
	"os"

	"rstore/internal/engine"
	"rstore/internal/types"
)

// This file holds the structural write paths: memtable flush, the merged
// iteration shared by scans/recovery/compaction, size-tiered auto
// compaction after a flush, and the full merge behind engine.Compactor.
//
// Every path commits through the MANIFEST rename (see manifest.go) and is
// ordered so that a crash at any point leaves either the old state or the
// new state plus deletable debris — never a state that loses an
// acknowledged write.

// source is one sorted input of a merged iteration: a memtable or SSTable
// iterator positioned on internal keys. key/value slices may be
// invalidated by next.
type source interface {
	valid() bool
	key() []byte
	value() []byte
	tomb() bool
	next() error
}

// mergeSources walks sources in unified key order. Sources are in age
// order (index 0 oldest); for each distinct key, emit receives the entry
// from the newest source holding it, and shadowed (when non-nil) receives
// every superseded entry. emit's key/value alias iterator buffers.
func mergeSources(sources []source, emit func(key, value []byte, tomb bool, src int) error, shadowed func(src int, keyLen, valLen int) error) error {
	var kbuf []byte
	for {
		win := -1
		for i, s := range sources {
			if !s.valid() {
				continue
			}
			if win == -1 || bytes.Compare(s.key(), sources[win].key()) <= 0 {
				// <= : an equal key in a later (newer) source supersedes.
				win = i
			}
		}
		if win == -1 {
			return nil
		}
		if err := emit(sources[win].key(), sources[win].value(), sources[win].tomb(), win); err != nil {
			return err
		}
		// The winner's buffer changes once advanced, so the key is copied
		// before the duplicate sweep.
		kbuf = append(kbuf[:0], sources[win].key()...)
		for i, s := range sources {
			if !s.valid() || !bytes.Equal(s.key(), kbuf) {
				continue
			}
			if i != win && shadowed != nil {
				if err := shadowed(i, len(s.key()), len(s.value())); err != nil {
					return err
				}
			}
			if err := s.next(); err != nil {
				return err
			}
		}
	}
}

// maybeFlushLocked flushes a full memtable and then lets size-tiered
// compaction absorb the new table. Callers hold b.mu exclusively.
func (b *Backend) maybeFlushLocked(ctx context.Context) error {
	if b.mem.bytes < b.opts.MemtableBytes {
		return nil
	}
	if err := b.flushLocked(ctx); err != nil {
		return err
	}
	return b.maybeTierCompactLocked(ctx)
}

// flushLocked writes the memtable to a new SSTable and retires the WAL.
// Commit order: sst renamed into place → fresh WAL created → MANIFEST
// rename (the commit point) → in-memory swap and old-WAL delete. A crash
// before the MANIFEST leaves the old WAL authoritative and the new files
// as debris. Callers hold b.mu exclusively.
func (b *Backend) flushLocked(ctx context.Context) error {
	if b.mem.count == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	seq := b.nextSeq
	b.nextSeq++
	tmp := b.sstPath(seq) + ".tmp"
	sw, err := newSSTWriter(tmp)
	if err != nil {
		return err
	}
	sw.failBeforeFooter = b.crash == "mid-flush"
	for it := b.mem.iter(nil); it.valid(); it.next() {
		if err := sw.add(it.key(), it.value(), it.tomb()); err != nil {
			sw.abort(tmp, err)
			return err
		}
	}
	if err := sw.finish(); err != nil {
		sw.abort(tmp, err)
		return err
	}
	if err := os.Rename(tmp, b.sstPath(seq)); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(b.dir); err != nil {
		return err
	}
	if b.crash == "flush-renamed" {
		return ErrCrashed
	}
	walSeq := b.nextSeq
	b.nextSeq++
	nw, err := createWAL(b.walPath(walSeq), walSeq)
	if err != nil {
		return err
	}
	if err := syncDir(b.dir); err != nil {
		nw.close()
		return err
	}
	nt, err := openSSTable(b.sstPath(seq), seq)
	if err != nil {
		nw.close()
		return err
	}
	newTables := append(append([]*sstable(nil), b.tables...), nt)
	if err := writeManifest(b.dir, b.nextSeq, walSeq, newTables); err != nil {
		nw.close()
		nt.close()
		return err
	}
	// Committed. Every memtable value entry is globally newest, so the new
	// table's dead weight is exactly its tombstones.
	nt.live = nt.size - sw.logicalTomb
	b.tables = newTables
	oldWAL := b.wal
	nw.buf = oldWAL.buf // the frame buffer serves the next log too: not one allocation per flush
	b.wal = nw
	b.mem = newMemtable()
	oldWAL.close()
	os.Remove(b.walPath(oldWAL.seq))
	return syncDir(b.dir)
}

// sizeClass buckets a table size for tiering: tables within the same
// power-of-4 band are peers worth merging.
func sizeClass(size int64) int {
	if size < 1 {
		size = 1
	}
	return (bits.Len64(uint64(size)) + 1) / 2
}

// maybeTierCompactLocked runs size-tiered compaction while the table count
// is at or above MaxTables: it merges the cheapest contiguous run of
// tierWidth tables, preferring a run within one size class. Callers hold
// b.mu exclusively; the work happens inline (the writer pays for the merge
// it triggered), skipped entirely when an explicit Compact is in flight.
func (b *Backend) maybeTierCompactLocked(ctx context.Context) error {
	const tierWidth = 4
	for len(b.tables) >= b.opts.MaxTables && len(b.tables) >= tierWidth {
		if !b.compactMu.TryLock() {
			return nil // explicit Compact in flight; it will absorb the backlog
		}
		lo := b.pickRunLocked(tierWidth)
		err := b.mergeRunLocked(ctx, lo, lo+tierWidth-1)
		b.compactMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// pickRunLocked chooses the start of the tierWidth-wide contiguous run to
// merge: the first same-size-class run if one exists, otherwise the run
// with the smallest total size.
func (b *Backend) pickRunLocked(width int) int {
	best, bestSize := 0, int64(-1)
	for lo := 0; lo+width <= len(b.tables); lo++ {
		var total int64
		same := true
		cls := sizeClass(b.tables[lo].size)
		for _, t := range b.tables[lo : lo+width] {
			total += t.size
			if sizeClass(t.size) != cls {
				same = false
			}
		}
		if same {
			return lo
		}
		if bestSize < 0 || total < bestSize {
			best, bestSize = lo, total
		}
	}
	return best
}

// mergeRunLocked merges tables[lo..hi] into one table under a held b.mu
// (the inline, post-flush path). Tombstones are dropped only when the run
// includes the oldest table — otherwise an even older shadowed version
// would resurrect.
func (b *Backend) mergeRunLocked(ctx context.Context, lo, hi int) error {
	victims := b.tables[lo : hi+1 : hi+1]
	seq := b.nextSeq
	b.nextSeq++
	out, err := b.writeMerged(ctx, victims, lo == 0, seq, b.crash)
	if err != nil {
		return err
	}
	return b.commitMergedLocked(out, lo, hi)
}

// writeMerged k-way-merges victims (age order) into a new SSTable left at
// its temporary name, returning the sealed writer state. Safe without b.mu:
// SSTables are immutable. dropTombs must only be true when victims include
// the oldest table.
type mergedOut struct {
	seq  int64
	tmp  string
	tomb int64 // logical tombstone weight kept in the output
}

// crash is the caller's snapshot of b.crash, taken under b.mu (this
// function may run without the lock).
func (b *Backend) writeMerged(ctx context.Context, victims []*sstable, dropTombs bool, seq int64, crash string) (mergedOut, error) {
	tmp := b.sstPath(seq) + ".tmp"
	sw, err := newSSTWriter(tmp)
	if err != nil {
		return mergedOut{}, err
	}
	sw.failBeforeFooter = crash == "mid-merge"
	sources := make([]source, len(victims))
	for i, t := range victims {
		it, err := t.iterGE(nil, b.cache)
		if err != nil {
			sw.abort(tmp, err)
			return mergedOut{}, err
		}
		sources[i] = it
	}
	err = mergeSources(sources, func(key, value []byte, tomb bool, _ int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if tomb && dropTombs {
			return nil
		}
		return sw.add(key, value, tomb)
	}, nil)
	if err == nil {
		err = sw.finish()
	}
	if err != nil {
		sw.abort(tmp, err)
		return mergedOut{}, err
	}
	return mergedOut{seq: seq, tmp: tmp, tomb: sw.logicalTomb}, nil
}

// commitMergedLocked renames the merged table into place, commits the
// MANIFEST with it replacing tables[lo..hi], splices the in-memory state,
// and deletes the victims. Callers hold b.mu exclusively.
func (b *Backend) commitMergedLocked(out mergedOut, lo, hi int) error {
	//lint:rstore-vet fsyncrename: out.tmp was sealed by writeMerged (sw.finish syncs) before the handoff to this commit phase
	if err := os.Rename(out.tmp, b.sstPath(out.seq)); err != nil {
		os.Remove(out.tmp)
		return err
	}
	if err := syncDir(b.dir); err != nil {
		return err
	}
	if b.crash == "merge-renamed" {
		return ErrCrashed
	}
	nt, err := openSSTable(b.sstPath(out.seq), out.seq)
	if err != nil {
		return err
	}
	victims := b.tables[lo : hi+1]
	newTables := make([]*sstable, 0, len(b.tables)-len(victims)+1)
	newTables = append(newTables, b.tables[:lo]...)
	newTables = append(newTables, nt)
	newTables = append(newTables, b.tables[hi+1:]...)
	if err := writeManifest(b.dir, b.nextSeq, b.wal.seq, newTables); err != nil {
		nt.close()
		return err
	}
	// Committed: the output inherits the victims' live weight (concurrent
	// overwrites during the merge already decremented it there).
	var victimLive, victimSize int64
	for _, t := range victims {
		victimLive += t.live
		victimSize += t.size
	}
	nt.live = victimLive
	b.tables = newTables
	if reclaimed := victimSize - nt.size; reclaimed > 0 {
		b.compacted += reclaimed
	}
	if b.crash == "merge-manifested" {
		// The commit happened but the victims were not yet deleted; they
		// are debris the next Open removes.
		return ErrCrashed
	}
	for _, t := range victims {
		t.close()
		os.Remove(t.path)
	}
	return syncDir(b.dir)
}

// Compact flushes the memtable and, when anything is reclaimable, merges
// every SSTable into one, dropping shadowed versions and all tombstones.
// The merge itself runs without b.mu — reads and writes proceed — and
// commits only if the table set it captured is still intact (same epoch,
// no competing merge).
func (b *Backend) Compact(ctx context.Context) (engine.CompactionStats, error) {
	if err := ctx.Err(); err != nil {
		return engine.CompactionStats{}, err
	}
	b.compactMu.Lock()
	defer b.compactMu.Unlock()

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return engine.CompactionStats{}, types.ErrClosed
	}
	if err := b.flushLocked(ctx); err != nil {
		b.mu.Unlock()
		return engine.CompactionStats{}, err
	}
	var dead int64
	for _, t := range b.tables {
		dead += t.size - t.live
	}
	nothingToDo := len(b.tables) == 0 || (len(b.tables) == 1 && dead <= 0)
	victims := append([]*sstable(nil), b.tables...)
	epoch, crash := b.epoch, b.crash
	var seq int64
	if !nothingToDo {
		seq = b.nextSeq
		b.nextSeq++
	}
	b.mu.Unlock()

	if nothingToDo {
		return b.CompactionStats(ctx)
	}
	out, err := b.writeMerged(ctx, victims, true, seq, crash)
	if err != nil {
		return engine.CompactionStats{}, err
	}
	b.mu.Lock()
	stillThere := !b.closed && b.epoch == epoch && len(b.tables) >= len(victims)
	if stillThere {
		for i, t := range victims {
			if b.tables[i] != t {
				stillThere = false
				break
			}
		}
	}
	if !stillThere {
		// Reset (or close) intervened; the output must not resurrect data.
		b.mu.Unlock()
		os.Remove(out.tmp)
		if b.closed {
			return engine.CompactionStats{}, types.ErrClosed
		}
		return b.CompactionStats(ctx)
	}
	err = b.commitMergedLocked(out, 0, len(victims)-1)
	b.mu.Unlock()
	if err != nil {
		return engine.CompactionStats{}, err
	}
	return b.CompactionStats(ctx)
}

// CompactionStats reports the reclaim state: total file bytes, the portion
// a full merge must keep, cumulative reclaimed volume, and the file count.
// The WAL counts as fully live (its dead records die at the next flush,
// not by compaction).
func (b *Backend) CompactionStats(ctx context.Context) (engine.CompactionStats, error) {
	if err := ctx.Err(); err != nil {
		return engine.CompactionStats{}, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return engine.CompactionStats{}, types.ErrClosed
	}
	st := engine.CompactionStats{
		DiskBytes:      b.wal.size,
		LiveBytes:      b.wal.size,
		CompactedBytes: b.compacted,
		Segments:       len(b.tables) + 1, // + the WAL
	}
	for _, t := range b.tables {
		st.DiskBytes += t.size
		live := t.live
		if live < 0 {
			// Prefix compression can make logical dead weight exceed the
			// physical file; clamp for reporting.
			live = 0
		}
		st.LiveBytes += live
	}
	return st, nil
}
