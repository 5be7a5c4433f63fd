package lsm

import (
	"context"
	"sync"

	"rstore/internal/types"
)

// This file holds the swap and the background worker: leveldb's immutable
// memtable. The write call that fills the memtable budget does not flush:
// under b.mu it freezes every run's memtable together with its log — the
// log synced, so that a Put it holds stays durable no later than the next
// BatchPut to its table — gives each run a fresh log and memtable, and
// hands the frozen set to the worker. The worker writes the
// frozen memtables to SSTables with b.mu released, commits them through the
// MANIFEST and unlinks the frozen logs (flushFrozen), and then runs the tier
// loop, as it does after every ingest. Meanwhile reads, scans and the hash
// tree consult a run's memtable, then its frozen memtable, then its tables,
// and writes go on into the fresh memtables. A write waits only when its swap
// is due while the last frozen set is still unflushed: it then flushes that
// set itself, or waits on flushMu for the worker's flush of it to end.
// Close flushes through the same flushFrozen, and Compact hands the worker
// a swap of its own.
//
// Until its flush commits, a frozen log is named by every MANIFEST beside its
// table's fresh log, and recovery replays a table's two logs in sequence
// order into a frozen and a fresh memtable (recover).

// frozenMem is a run's frozen memtable with its log: immutable from the
// swap on, so a flush reads it with b.mu released.
type frozenMem struct {
	mem *memtable
	log *wal
	// live is the run's logLive at the swap: the log's live share.
	live int64
	// oldest says the run had no SSTable at the swap: the flushed table is
	// its oldest and drops its tombstones. A table an ingest adds meanwhile
	// holds no key of mem (holdsWithin), so nothing it holds is theirs to
	// shadow.
	oldest bool
	// dead and deadEntries are the logical weight and the count of mem's
	// value entries that writes since the swap shadowed (guarded by b.mu):
	// the flushed table's dead weight beyond its tombstones.
	dead, deadEntries int64
}

// shadow is holder's: a value entry of f's memtable is superseded.
func (f *frozenMem) shadow(keyLen, valLen int) bool {
	f.dead += logicalSize(keyLen, valLen)
	f.deadEntries++
	return false // the flush takes it out of its table's accounting
}

// freezeLocked freezes r's memtable with its log, once the log is synced,
// and leaves r with an empty memtable and no log. Callers hold b.mu
// exclusively, and r has a log and no frozen memtable.
func (b *Backend) freezeLocked(r *run) error {
	if err := r.log.sync(); err != nil {
		return err
	}
	r.frozen = &frozenMem{mem: r.mem, log: r.log, live: r.logLive, oldest: len(r.tables) == 0}
	b.buffered -= r.mem.bytes
	r.mem, r.log, r.logLive = newMemtable(), nil, 0
	b.frozen = true
	return nil
}

// swapLocked is the swap: every run whose log holds something is frozen and
// given a fresh log. The fresh logs are live from their creation on, as a
// table's first log is (recover). Callers hold b.mu exclusively, with no
// frozen set unflushed, and hand the frozen set to the worker (kickLocked)
// or flush it themselves.
func (b *Backend) swapLocked() error {
	for _, name := range b.runNames() {
		r := b.runs[name]
		if r.log == nil || r.log.size == 0 {
			continue
		}
		w, err := b.createWAL(b.allocSeqLocked())
		if err != nil {
			return err
		}
		if err := b.freezeLocked(r); err != nil {
			w.close()
			b.fs.Remove(w.path)
			return err
		}
		w.buf = r.frozen.log.buf // the frame buffer serves the fresh log too: not one allocation per swap
		r.log = w
	}
	return nil
}

// swapIfDueLocked swaps, and kicks the worker, if the memtables are full;
// stalled reports that they are but the last frozen set is unflushed.
// Callers hold b.mu exclusively.
func (b *Backend) swapIfDueLocked() (stalled bool, err error) {
	if b.buffered < b.opts.MemtableBytes {
		return false, nil
	}
	if b.frozen {
		return true, nil
	}
	defer b.w.kickLocked(false)
	return false, b.swapLocked()
}

// swapDue is swapIfDueLocked for a stalled write call that has seen the last
// frozen set flushed.
func (b *Backend) swapDue() (stalled bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false, types.ErrClosed
	}
	return b.swapIfDueLocked()
}

// flushJob is one run's part of a flush.
type flushJob struct {
	table string
	f     *frozenMem
	out   *tableOut // nil: nothing to write, every entry a dropped tombstone
	nt    *sstable
}

// flushFrozen flushes the frozen set, if there is one: each frozen memtable
// is written to a new SSTable of its run, all with b.mu released; then,
// under b.mu, a MANIFEST names the new tables and every run's fresh log but
// no frozen one (the commit point), the new tables are mounted and the
// frozen logs unlinked. A crash before the MANIFEST leaves the frozen logs
// authoritative and the new files as debris; one after it leaves the frozen
// logs as debris, their sequence numbers below its next. A write since the
// swap that shadowed a frozen entry took it out of the flushed table's
// accounting (frozenMem.shadow); a table left with no live entry that way
// is retired at once. Nothing is flushed once the backend is closed.
func (b *Backend) flushFrozen() error {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	b.mu.Lock()
	if !b.frozen || b.closed {
		b.mu.Unlock()
		return nil
	}
	var jobs []flushJob
	for _, name := range b.runNames() {
		if f := b.runs[name].frozen; f != nil {
			jobs = append(jobs, flushJob{table: name, f: f})
		}
	}
	pause := b.pause
	b.mu.Unlock()

	stage(pause, "flushing")
	// abandon drops what the flush built, the frozen set staying as it is:
	// its files are unlinked unless a failed commit may have named them.
	abandon := func(cause error, unlink bool) error {
		for _, j := range jobs {
			if j.nt != nil {
				j.nt.close()
			}
			if j.out != nil && unlink {
				b.fs.Remove(b.sstPath(j.out.seq) + ".tmp")
				b.fs.Remove(b.sstPath(j.out.seq))
			}
		}
		return cause
	}
	var outs []tableOut
	for i := range jobs {
		j := &jobs[i]
		out, err := b.writeTable(b.allocSeq, j.f.oldest, func(add func(key, value []byte, tomb bool) error) error {
			for it := j.f.mem.iter(); it.valid(); it.next() {
				if err := add(it.key(), it.value(), it.tomb()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return abandon(err, true)
		}
		if out != nil {
			out.table, j.out = j.table, out
			outs = append(outs, *out)
		}
	}
	if err := b.publish(outs); err != nil {
		return abandon(err, true)
	}
	for i := range jobs {
		j := &jobs[i]
		if j.out == nil {
			continue
		}
		nt, err := openSSTable(b.fs, b.sstPath(j.out.seq), j.out.seq)
		if err != nil {
			return abandon(err, true)
		}
		j.nt = nt
	}
	stage(pause, "flushed")

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return abandon(nil, true)
	}
	edit := make(map[string][]*sstable, len(outs))
	for _, j := range jobs {
		if j.nt == nil {
			continue
		}
		// Every frozen value entry was globally newest at the swap, so the
		// new table's dead weight is its tombstones and what was shadowed
		// since.
		j.nt.live = j.nt.size - j.out.tomb - j.f.dead
		j.nt.liveEntries = j.out.values - j.f.deadEntries
		if j.nt.liveEntries == 0 {
			b.retirable = true
		}
		r := b.runs[j.table]
		edit[j.table] = append(r.tables[:len(r.tables):len(r.tables)], j.nt)
	}
	if err := b.writeManifestLocked(edit, false); err != nil {
		return abandon(err, false)
	}
	for _, j := range jobs {
		r := b.runs[j.table]
		b.discardLog(j.f.log) // debris from here on: see discardTables
		r.frozen = nil
		if r.log != nil {
			r.log.dirSynced = true // the MANIFEST's directory fsync covered its entry
		}
	}
	b.frozen = false
	return b.retireLocked()
}

// allocSeq is allocSeqLocked for a caller not holding b.mu.
func (b *Backend) allocSeq() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.allocSeqLocked()
}

// worker is a Backend's background worker: one goroutine that, woken by a
// swap, an ingest or a Compact, runs a pass — the frozen set's flush, if
// there is one, then the tier loop. Without a goroutine (openInline) a pass
// runs on the caller that settles, one caller at a time (running).
type worker struct {
	wake   chan struct{} // capacity 1; nil without a goroutine
	done   chan struct{} // closed when the goroutine returns
	ctx    context.Context
	cancel context.CancelFunc

	// Guarded by b.mu:
	// owed is set from a kick until a pass finds nothing more due.
	owed bool
	// tier says an ingest or a Compact asked for the tier loop.
	tier bool
	// running is set while a settling caller runs a pass (no goroutine):
	// at most one pass runs at a time, as on the goroutine.
	running bool
	// err is the first error of a pass since the last settle.
	err error
	// settled is broadcast when a pass ends, when the backend closes and
	// when a settling caller's context ends.
	settled *sync.Cond
}

// start starts w's goroutine for b, with the pass recovery left owed.
func (w *worker) start(b *Backend) {
	//lint:rstore-vet ctxfirst: the worker is a lifecycle root — its merges derive from it and Close cancels it
	w.ctx, w.cancel = context.WithCancel(context.Background())
	w.wake, w.done = make(chan struct{}, 1), make(chan struct{})
	if w.owed {
		w.wake <- struct{}{}
	}
	go w.run(b)
}

// run is the goroutine: a pass per wake-up, until stop.
func (w *worker) run(b *Backend) {
	defer close(w.done)
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-w.wake:
			b.pass(w.ctx)
		}
	}
}

// stop cancels the goroutine's merges and waits for it to return; a flush
// under way ends first. Without a goroutine, or once stopped, it does
// nothing.
func (w *worker) stop() {
	if w.cancel == nil {
		return
	}
	w.cancel()
	<-w.done
}

// kickLocked hands the worker a pass: the frozen set's flush, which a swap
// has just set b.frozen for, and the tier loop after it, or the tier loop
// alone, which an ingest or a Compact asks for (tier). Callers hold b.mu
// exclusively.
func (w *worker) kickLocked(tier bool) {
	w.owed = true
	w.tier = w.tier || tier
	if w.wake != nil {
		select {
		case w.wake <- struct{}{}:
		default: // a pass is already due; it will see this one's work
		}
	}
}

// pass is one pass of the worker: the frozen set's flush, if there is one,
// and then the tier loop, if it flushed or an ingest asked for it — again
// while a kick during it asked for more. It runs on the goroutine, or on a
// settling caller that set b.w.running.
func (b *Backend) pass(ctx context.Context) {
	for {
		b.mu.Lock()
		tier := b.w.tier || b.frozen
		b.w.tier = false
		b.mu.Unlock()
		err := b.flushFrozen()
		if err == nil && tier {
			err = b.tierCompact(ctx)
		}
		b.mu.Lock()
		if err != nil && b.w.err == nil && ctx.Err() == nil {
			b.w.err = err
		}
		if err != nil || !b.w.tier && !b.frozen || b.closed {
			b.w.owed, b.w.running = false, false
			b.w.settled.Broadcast()
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
	}
}

// settle waits until the worker has nothing left to do — the flush and the
// merges every write so far set off are done — and returns the first error
// a pass met since the last settle, or ctx's error once ctx ends first.
// Without a goroutine, it runs the pass itself, its merges under ctx, unless
// another caller's pass is under way: it then waits for that one.
func (b *Backend) settle(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.w.settled.Broadcast()
	})
	defer stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.w.owed && !b.closed {
		if err := ctx.Err(); err != nil {
			return err
		}
		if b.w.wake == nil && !b.w.running {
			b.w.running = true
			b.mu.Unlock()
			b.pass(ctx)
			b.mu.Lock()
			continue
		}
		b.w.settled.Wait()
	}
	err := b.w.err
	b.w.err = nil
	return err
}
