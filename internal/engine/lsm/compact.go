package lsm

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"os"
	"slices"

	"rstore/internal/engine"
	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

// This file holds the structural write paths: the merged iteration shared
// by scans/recovery/compaction, the table writer, log replacement,
// retirement of dead tables, the size-tiered compaction the worker runs and
// its one merge path (mergeJob), and engine.Compactor. The swap and the
// flush are in flush.go, the ingest in ingest.go.
//
// Every path commits through the MANIFEST rename (see manifest.go) and is
// ordered so that a crash at any point leaves either the old state or the
// new state plus deletable debris — never a state that loses an
// acknowledged write.

// source is one sorted input of a merged iteration: a memtable or SSTable
// iterator of one run. key/value slices may be invalidated by next.
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

// allocSeqLocked hands out the next file sequence number; callers hold b.mu
// exclusively.
func (b *Backend) allocSeqLocked() int64 {
	seq := b.nextSeq
	b.nextSeq++
	return seq
}

// tableOut is one SSTable a write sealed, still under its temporary name
// (sstPath(seq) + ".tmp").
type tableOut struct {
	table  string // the user table whose run it joins
	seq    int64
	values int64 // value entries written
	tomb   int64 // logical weight of the tombstones written
}

// writeTable streams one key-ordered pass of a run's entries — feed pushes
// them into add — into one SSTable; flush, ingest and every merge write
// through it.
// The one tombstone rule lives here: an output that becomes the oldest table
// of its run drops its tombstones, because nothing older is left for them to
// shadow; an output left with no entry is not written at all (nil). On error
// nothing is left behind. Safe without b.mu when nextSeq is.
func (b *Backend) writeTable(nextSeq func() int64, oldest bool, feed func(add func(key, value []byte, tomb bool) error) error) (*tableOut, error) {
	var out tableOut
	var sw *sstWriter
	err := feed(func(key, value []byte, tomb bool) error {
		if tomb && oldest {
			return nil
		}
		if sw == nil {
			out.seq = nextSeq()
			w, err := newSSTWriter(b.fs, b.sstPath(out.seq)+".tmp")
			if err != nil {
				return err
			}
			sw = w
		}
		return sw.add(key, value, tomb)
	})
	if sw == nil {
		return nil, err
	}
	if err == nil {
		err = sw.finish()
	}
	if err != nil {
		sw.f.Close()
		b.fs.Remove(b.sstPath(out.seq) + ".tmp")
		return nil, err
	}
	out.values, out.tomb = sw.values, sw.logicalTomb
	return &out, nil
}

// publish renames sealed outputs to their final names and makes the
// directory entries durable. They are still debris until a MANIFEST names
// them. It touches no state b.mu guards: merges call it holding b.mu, the
// flush and the ingest without.
func (b *Backend) publish(outs []tableOut) error {
	for _, o := range outs {
		//lint:rstore-vet fsyncrename: every output was sealed by writeTable (sstWriter.finish syncs) before it reached this commit phase
		if err := b.fs.Rename(b.sstPath(o.seq)+".tmp", b.sstPath(o.seq)); err != nil {
			return fmt.Errorf("lsm: %w", err)
		}
	}
	return b.fs.SyncDir(b.dir)
}

// commitLocked is the commit point of every structural change: it writes a
// MANIFEST naming every table's logs — a frozen one beside the fresh one
// while its flush is under way — and every run, with edit's table lists in
// place of the runs they name, and on success installs them. Callers hold
// b.mu exclusively.
func (b *Backend) commitLocked(edit map[string][]*sstable) error {
	return b.writeManifestLocked(edit, true)
}

// writeManifestLocked commits the MANIFEST that names, per run, its log, its
// frozen log before it if withFrozen, and the tables edit or the run lists,
// and on success installs edit. A flush's commit leaves the frozen logs out.
func (b *Backend) writeManifestLocked(edit map[string][]*sstable, withFrozen bool) error {
	m := manifest{nextSeq: b.nextSeq}
	for _, name := range b.runNames() {
		r := b.runs[name]
		if f := r.frozen; f != nil && withFrozen {
			m.wals = append(m.wals, manifestFile{seq: f.log.seq, table: name})
		}
		if r.log != nil {
			m.wals = append(m.wals, manifestFile{seq: r.log.seq, table: name})
		}
		tables, edited := edit[name]
		if !edited {
			tables = r.tables
		}
		for _, t := range tables {
			m.ssts = append(m.ssts, manifestFile{seq: t.seq, table: name})
		}
	}
	if err := writeManifest(b.fs, b.dir, m); err != nil {
		return err
	}
	for name, tables := range edit {
		b.runs[name].tables = tables
	}
	return nil
}

// discardTables closes and unlinks tables a committed MANIFEST no longer
// names. No directory fsync follows: an unlink the disk forgets leaves
// debris that Open deletes, and every caller is on the write path.
func (b *Backend) discardTables(victims []*sstable) {
	for _, t := range victims {
		t.close()
		b.fs.Remove(t.path)
	}
}

// discardLog is discardTables for a log (nil: none).
func (b *Backend) discardLog(w *wal) {
	if w != nil {
		w.close()
		b.fs.Remove(w.path)
	}
}

// replaceLogLocked replaces r's log with one holding only its memtable's
// entries — a put or delete record each, logLive bytes in all — without a
// MANIFEST commit: the new log is written and fsynced beside the old one,
// under the temporary name, and renamed over it, keeping its name, and the
// directory is fsynced. Before the rename the old log is the log and the
// new one debris; after it the new one is. Both replay to the memtable the
// call leaves: the new log holds its entries, and the old one every record
// that made them — all a crash can take from it is what it had not synced,
// which no call acknowledged as durable. Callers hold b.mu exclusively.
func (b *Backend) replaceLogLocked(table string, r *run) error {
	buf := make([]byte, 0, r.logLive)
	for it := r.mem.iter(); it.valid(); it.next() {
		kind := reclog.KindPut
		if it.tomb() {
			kind = reclog.KindDel
		}
		at := len(buf)
		buf = reclog.AppendBody(append(buf, make([]byte, reclog.FrameSize)...), kind, table, string(it.key()), it.value())
		reclog.PutHeader(buf[at:], buf[at+reclog.FrameSize:])
	}
	old := r.log
	tmp := old.path + ".tmp"
	f, err := b.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = b.fs.Rename(tmp, old.path)
	}
	if err != nil {
		f.Close()
		b.fs.Remove(tmp)
		return fmt.Errorf("lsm: replacing log %d: %w", old.seq, err)
	}
	size := int64(len(buf))
	r.log = &wal{fs: b.fs, f: f, path: old.path, seq: old.seq, size: size, synced: size, buf: old.buf}
	old.close()
	return r.log.sync() // the directory: a later sync of the new file must not be of an unlinked inode
}

// retireLocked unlinks, without reading them, the SSTables no read can be
// answered from any more: each run's oldest-first prefix of tables whose
// every value entry has been shadowed. Prefix only — a dead table's
// tombstones may be all that shadows a value in an older, live table of its
// run, and unlinking it would resurrect that value. One log fsync and one
// MANIFEST commit cover every run; the files are debris from then on.
// Callers hold b.mu exclusively; a merge running outside the lock finds its
// victims gone and abandons its output (installMerge).
func (b *Backend) retireLocked() error {
	if !b.retirable {
		return nil
	}
	var victims []*sstable
	edit := map[string][]*sstable{}
	for name, r := range b.runs {
		n := 0
		for n < len(r.tables) && r.tables[n].liveEntries == 0 {
			n++
		}
		if n > 0 {
			victims = append(victims, r.tables[:n]...)
			edit[name] = r.tables[n:]
		}
	}
	if len(victims) == 0 {
		b.retirable = false
		return nil
	}
	// What shadows the victims' entries may be single puts and deletes their
	// table's log holds unsynced (after a BatchPut this is free). Were the
	// MANIFEST to outlive them, a power failure would take the new version
	// and the old one both.
	for name := range edit {
		if w := b.runs[name].log; w != nil {
			if err := w.sync(); err != nil {
				return err
			}
		}
	}
	if err := b.commitLocked(edit); err != nil {
		return err
	}
	b.retirable = false
	for _, t := range victims {
		b.compacted += t.size
	}
	b.discardTables(victims)
	return nil
}

// sizeClass buckets a table size for tiering: tables within the same
// power-of-4 band are peers worth merging.
func sizeClass(size int64) int {
	if size < 1 {
		size = 1
	}
	return (bits.Len64(uint64(size)) + 1) / 2
}

// tierWidth is how many adjacent tables a size-tiered merge takes.
const tierWidth = 4

// tierCompact is size-tiered compaction, the one place lsm merges. The
// worker's pass runs it after every flush, every ingest and every Compact
// (flush.go), so no write call waits for the merges it set off, and reads
// and writes go on beside them: while a run is less than half live, it is
// merged whole, and while it holds MaxTables tables or more that overlap
// another, the cheapest window of tierWidth of those is merged (tierPick).
func (b *Backend) tierCompact(ctx context.Context) error {
	b.mu.RLock()
	names := b.runNames()
	b.mu.RUnlock()
	for _, name := range names {
		for {
			job, ok := b.captureMerge(name, b.tierPick)
			if !ok {
				break
			}
			if err := b.merge(ctx, job); err != nil {
				return err
			}
		}
	}
	return nil
}

// minLiveShare is the live share of its file bytes below which a run of two
// tables or more is merged whole: such a merge writes less than it
// reclaims, and the run's next merge of this kind waits until as many
// bytes again have died. A run of one table is never merged by the tier
// loop — its merge would leave one table again.
const minLiveShare = 0.5

// tierPick is tiering's pick. A run less than minLiveShare live is taken
// whole, whatever its tables' key ranges.
// Otherwise a table whose key range meets no other table's of its run is
// never rewritten by it (leveldb's trivial move: a merge would copy it
// unchanged), so a run of write-once tables in key order is merged by
// nobody. Once the others, its peers, number MaxTables, pickWindow chooses
// tierWidth consecutive peers. The tables such a window steps over meet no
// peer's range, so their keys are none of the victims', and the output may
// take the oldest victim's place in age order.
func (b *Backend) tierPick(tables []*sstable) []*sstable {
	var live, size int64
	for _, t := range tables {
		live, size = live+clampedLive(t), size+t.size
	}
	if len(tables) > 1 && float64(live) < minLiveShare*float64(size) {
		return tables
	}
	alone := isolated(tables)
	var peers []*sstable
	for i, t := range tables {
		if !alone[i] {
			peers = append(peers, t)
		}
	}
	if len(peers) < b.opts.MaxTables || len(peers) < tierWidth {
		return nil
	}
	lo := pickWindow(peers, tierWidth)
	return peers[lo : lo+tierWidth]
}

// isolated reports, per table, whether its key range meets no other
// table's. In first-key order, a table meets an earlier one exactly when
// some earlier last key reaches its first key, and a later one exactly when
// the next table's first key is within its range.
func isolated(tables []*sstable) []bool {
	order := make([]int, len(tables))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return bytes.Compare(tables[i].first, tables[j].first) })
	alone := make([]bool, len(tables))
	var reach []byte // the largest last key of the tables before order[k]
	for k, i := range order {
		t := tables[i]
		alone[i] = (k == 0 || bytes.Compare(reach, t.first) < 0) &&
			(k == len(order)-1 || bytes.Compare(t.last, tables[order[k+1]].first) < 0)
		if k == 0 || bytes.Compare(t.last, reach) > 0 {
			reach = t.last
		}
	}
	return alone
}

// pickWindow chooses the start of the width-wide contiguous window of
// tables to merge: the first same-size-class window if one exists,
// otherwise the window with the smallest total size.
func pickWindow(tables []*sstable, width int) int {
	best, bestSize := 0, int64(-1)
	for lo := 0; lo+width <= len(tables); lo++ {
		var total int64
		same := true
		cls := sizeClass(tables[lo].size)
		for _, t := range tables[lo : lo+width] {
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

// mergeJob is one merge: some of one run's tables, in age order, merged
// into at most one table that takes the oldest one's place — a window of
// consecutive tables, save that it may step over tables whose key ranges
// meet none of the victims', or a whole run less than half live. Every
// merge goes one way: captureMerge takes the job under b.mu, writeMerged
// reads the victims and writes the output with no b.mu held, and
// installMerge mounts the output only if the victims are all still in their
// run. Only the worker's pass merges, one pass at a time, so two merges
// never share a victim.
type mergeJob struct {
	table   string
	victims []*sstable // age order
	// lo is the oldest victim's position in the run at capture, which the
	// output takes: at 0 it drops its tombstones. A run only grows at its
	// young end, so victims captured at 0 are at 0 for as long as they stay.
	lo    int
	seq   int64              // the output's file sequence, allocated up front
	pause func(stage string) // b.pause at capture
}

// captureMerge captures the victims pick chooses in table's run; ok is
// false when there is no job: no such run, nothing picked, or the backend
// closed.
func (b *Backend) captureMerge(table string, pick func(tables []*sstable) []*sstable) (job mergeJob, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.runs[table]
	if b.closed || r == nil {
		return mergeJob{}, false
	}
	victims := pick(r.tables)
	if len(victims) == 0 {
		return mergeJob{}, false
	}
	return mergeJob{
		table:   table,
		victims: slices.Clone(victims),
		lo:      slices.Index(r.tables, victims[0]),
		seq:     b.allocSeqLocked(),
		pause:   b.pause,
	}, true
}

// merge runs a captured job to its end: the output mounted, or abandoned.
func (b *Backend) merge(ctx context.Context, job mergeJob) error {
	stage(job.pause, "captured")
	nt, err := b.writeMerged(ctx, job)
	stage(job.pause, "written")
	return b.installMerge(job, nt, err)
}

// stage calls a pause hook (see setPause), if there is one.
func stage(pause func(stage string), name string) {
	if pause != nil {
		pause(name)
	}
}

// writeMerged k-way-merges the job's victims through writeTable and opens
// the output, still at its temporary name; nt is nil when nothing
// survived the merge. It holds no b.mu — SSTables are immutable — so a
// victim retired or closed meanwhile fails its read, which installMerge
// takes for the abandonment it is.
func (b *Backend) writeMerged(ctx context.Context, job mergeJob) (nt *sstable, err error) {
	sources := make([]source, len(job.victims))
	for i, t := range job.victims {
		it, err := t.iter(b.cache)
		if err != nil {
			return nil, err
		}
		sources[i] = it
	}
	out, err := b.writeTable(func() int64 { return job.seq }, job.lo == 0, func(add func(key, value []byte, tomb bool) error) error {
		return mergeSources(sources, func(key, value []byte, tomb bool, _ int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return add(key, value, tomb)
		}, nil)
	})
	if err != nil || out == nil {
		return nil, err
	}
	tmp := b.sstPath(job.seq) + ".tmp"
	if nt, err = openSSTable(b.fs, tmp, job.seq); err != nil {
		b.fs.Remove(tmp)
	}
	return nt, err
}

// installMerge is the one commit of every merge. If the job's victims are
// all still in their run, on an open backend, the output is renamed into
// place, a MANIFEST commits it in the oldest one's place and the others'
// stead, it inherits their live weight (overwrites during the merge already
// took theirs down), and they are unlinked. Otherwise a retirement or Close
// took them meanwhile — and a flush may since have dropped tombstones on the
// strength of their run being empty, which the output must not undo — so the
// output is removed, and mergeErr, which may be nothing but the read of a
// victim closed under the merge, is that same abandonment. (Nothing but
// retirement and merges removes a table, and nothing but a flush or an
// ingest, at the young end, adds one: victims all still there are still in
// their order, and the tables between them still the ones the job stepped
// over.)
func (b *Backend) installMerge(job mergeJob, nt *sstable, mergeErr error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, lo := b.runs[job.table], -1
	var newTables []*sstable // the run without the victims
	if !b.closed && r != nil {
		lo = slices.Index(r.tables, job.victims[0])
		for _, t := range r.tables {
			if !slices.Contains(job.victims, t) {
				newTables = append(newTables, t)
			}
		}
	}
	if lo < 0 || len(r.tables)-len(newTables) != len(job.victims) {
		if nt != nil {
			nt.close()
			b.fs.Remove(nt.path)
		}
		return nil
	}
	if mergeErr != nil {
		return mergeErr
	}
	var outs []tableOut
	if nt != nil {
		outs = []tableOut{{table: job.table, seq: nt.seq}}
		nt.path = b.sstPath(nt.seq)
		newTables = slices.Insert(newTables, lo, nt)
	}
	err := b.publish(outs)
	if err == nil {
		err = b.commitLocked(map[string][]*sstable{job.table: newTables})
	}
	if err != nil {
		if nt != nil {
			nt.close()
		}
		return err
	}
	reclaimed := int64(0)
	for _, t := range job.victims {
		reclaimed += t.size
	}
	if nt != nil {
		for _, t := range job.victims {
			nt.live += t.live
			nt.liveEntries += t.liveEntries
		}
		reclaimed -= nt.size
		b.rewritten += nt.size
	}
	if reclaimed > 0 {
		b.compacted += reclaimed
	}
	b.discardTables(job.victims)
	return nil
}

// Compact flushes the memtables and returns the reclaim state once the
// engine's own reclaim has settled: it swaps what they hold — after the
// flush of a frozen set an earlier swap left, if there is one — and hands
// the worker a pass, whose tier loop merges what tierPick picks and nothing
// more. It merges nothing itself: everything written before the call is in
// SSTables when it returns, and the merges are the worker's.
func (b *Backend) Compact(ctx context.Context) (engine.CompactionStats, error) {
	for {
		if err := ctx.Err(); err != nil {
			return engine.CompactionStats{}, err
		}
		b.mu.Lock()
		earlier := b.frozen // flushed first, and then the swap
		var err error
		if b.closed {
			err = types.ErrClosed
		} else {
			if !earlier && b.buffered > 0 {
				err = b.swapLocked()
			}
			b.w.kickLocked(true)
		}
		b.mu.Unlock()
		if err != nil {
			return engine.CompactionStats{}, err
		}
		st, err := b.CompactionStats(ctx)
		if err != nil || !earlier {
			return st, err
		}
	}
}

// CompactionStats reports the reclaim state: total file bytes, the portion
// a merge of everything would keep, cumulative reclaimed volume, and the
// file count.
// It first waits for the worker (settle), so that it reports what the
// writes before it set off — their flush and merges done — and fails with
// the first error the worker met since the last call. A log's live share
// is what a log holding only its table's memtable entries would take
// (logLive): a flush turns exactly those into SSTable entries.
func (b *Backend) CompactionStats(ctx context.Context) (engine.CompactionStats, error) {
	if err := ctx.Err(); err != nil {
		return engine.CompactionStats{}, err
	}
	if err := b.settle(ctx); err != nil {
		return engine.CompactionStats{}, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return engine.CompactionStats{}, types.ErrClosed
	}
	st := engine.CompactionStats{CompactedBytes: b.compacted}
	for _, r := range b.runs {
		if f := r.frozen; f != nil { // a flush that failed
			st.Segments++
			st.DiskBytes += f.log.size
			st.LiveBytes += min(f.live, f.log.size)
		}
		if r.log != nil {
			st.Segments++
			st.DiskBytes += r.log.size
			st.LiveBytes += min(r.logLive, r.log.size)
		}
	}
	for _, t := range b.allTables() {
		st.Segments++
		st.DiskBytes += t.size
		st.LiveBytes += clampedLive(t)
	}
	return st, nil
}

// clampedLive is t's live weight within [0, its size]. Logical weights
// against physical sizes: prefix compression can make the dead weight exceed
// the file, and a merge output is smaller than the live weight it inherits
// by its victims' footers, filters and indexes.
func clampedLive(t *sstable) int64 {
	return min(max(t.live, 0), t.size)
}
