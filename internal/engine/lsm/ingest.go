package lsm

import (
	"context"
	"slices"

	"rstore/internal/engine"
	"rstore/internal/types"
)

// A write-once batch — the chunk segments of a placement run, each key
// written once, in key order — gains nothing from the log and the memtable
// once they are full: its log record only dies, and the flush it sets off
// writes the memtable's copy into an SSTable unchanged, which tiering then
// rewrites. Such a batch is ingested instead: written as one new SSTable of
// its run with b.mu released, then added to the run by a MANIFEST edit. It
// writes no log record and makes no memtable copy, and its bytes are written
// once. A batch the memtables still have room for takes the log: one write
// and one fsync until a flush comes, where an ingest costs four fsyncs.
//
// The new table is the run's youngest, older only than the memtable and the
// frozen memtable, so an ingest needs a batch no memtable entry shadows: one
// whose key range holds no key of either. The older tables it may shadow;
// the shadow probe that takes their entries out of the live accounting runs
// only when the batch's range meets one of theirs.

// ingestable reports whether a batch may be ingested, and its payload: its
// keys strictly ascend, and its payload is at least an eighth of the
// memtable budget. A smaller batch would make a small table that tiering
// rewrites soon; the log and the memtable gather such batches into a
// flush-sized one instead.
func (b *Backend) ingestable(entries []engine.Entry) (payload int64, ok bool) {
	for i, e := range entries {
		if i > 0 && e.Key <= entries[i-1].Key {
			return 0, false
		}
		payload += int64(len(e.Key) + len(e.Value))
	}
	return payload, payload >= b.opts.MemtableBytes/8
}

// ingest writes entries, an ingestable batch, to table as one new SSTable of
// its run. The commit order is what makes it crash-safe: the table is
// written, fsynced, renamed to its name and its directory entry fsynced, all
// with b.mu released; then, under b.mu, the run's log is synced and a
// MANIFEST naming the table commits it; then the call acknowledges. A crash
// before the MANIFEST leaves a table no MANIFEST names, which Open deletes.
// ingested is false, with nothing left behind, when the memtables have room
// for payload, or when the run's memtable or frozen memtable holds a key in
// the batch's range, at the start or at the install: the batch then takes
// the log. An ingest hands the worker the tier loop, as a flush does.
func (b *Backend) ingest(ctx context.Context, table string, entries []engine.Entry, payload int64) (ingested bool, err error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	lo, hi := []byte(entries[0].Key), []byte(entries[len(entries)-1].Key)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false, types.ErrClosed
	}
	if r := b.runs[table]; b.buffered+payload < b.opts.MemtableBytes || r != nil && r.holdsWithin(lo, hi) {
		b.mu.Unlock()
		return false, nil
	}
	seq, pause := b.allocSeqLocked(), b.pause
	b.mu.Unlock()

	stage(pause, "ingesting")
	out, err := b.writeTable(func() int64 { return seq }, false, func(add func(key, value []byte, tomb bool) error) error {
		for _, e := range entries {
			if err := add([]byte(e.Key), e.Value, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	if err := b.publish([]tableOut{*out}); err != nil {
		b.fs.Remove(b.sstPath(seq) + ".tmp")
		b.fs.Remove(b.sstPath(seq))
		return false, err
	}
	nt, err := openSSTable(b.fs, b.sstPath(seq), seq)
	if err != nil {
		b.fs.Remove(b.sstPath(seq))
		return false, err
	}
	stage(pause, "ingested")
	return b.installIngest(table, nt, entries)
}

// installIngest adds nt, the durable table holding entries, to table's run:
// it syncs the run's log — a Put acknowledged before this batch must not be
// lost to a power failure that keeps the batch — probes the older tables
// for the entries nt shadows, commits the MANIFEST, and then takes the
// shadowed entries out of the live accounting and retires the tables that
// left dead, and hands the worker the tier loop. On any outcome but an
// installed table, nt goes: unlinked if no MANIFEST can name it, only closed
// if a failed commit may have.
func (b *Backend) installIngest(table string, nt *sstable, entries []engine.Entry) (installed bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	drop := func(err error) (bool, error) {
		nt.close()
		b.fs.Remove(nt.path)
		return false, err
	}
	if b.closed {
		return drop(types.ErrClosed)
	}
	r := b.runLocked(table)
	if r.holdsWithin(nt.first, nt.last) {
		return drop(nil) // lost to a write that got there first
	}
	if r.log != nil {
		if err := r.log.sync(); err != nil {
			return drop(err)
		}
	}
	type shadow struct {
		src       holder
		key, prev []byte
	}
	var shadowed []shadow
	if slices.ContainsFunc(r.tables, nt.overlaps) {
		for _, e := range entries {
			key := []byte(e.Key)
			prev, src, found, err := b.findLocked(r, key) // never a memtable's: they hold no key in range
			if err != nil {
				return drop(err)
			}
			if found {
				shadowed = append(shadowed, shadow{src, key, prev})
			}
		}
	}
	// Every entry is the newest of its key, and none is a tombstone.
	nt.live, nt.liveEntries = nt.size, int64(len(entries))
	if err := b.commitLocked(map[string][]*sstable{table: append(r.tables[:len(r.tables):len(r.tables)], nt)}); err != nil {
		nt.close()
		return false, err
	}
	for _, s := range shadowed {
		b.shadowLocked(s.src, s.key, s.prev)
	}
	r.keys += len(entries) - len(shadowed)
	for _, e := range entries {
		b.bytes += int64(len(e.Value))
	}
	r.gen++
	b.w.kickLocked(true)
	return true, b.retireLocked()
}
