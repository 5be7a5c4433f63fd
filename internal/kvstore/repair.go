package kvstore

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Replication repair: the subsystem that makes replicas converge instead of
// staying wrong on disk.
//
// LWW envelopes (lww.go) let reads outvote a stale replica, but outvoting
// is camouflage, not a cure — the losing replica keeps serving old bytes
// from its backend forever, and every read of the key pays the conflict
// resolution again. Dynamo-style repair fixes the divergence at the source:
//
//   - Read repair: when a replicated read (Get, MultiGet), a replicated Scan
//     or an anti-entropy sweep judges a key (verdict.go) and finds a live
//     replica holding an older version than the LWW winner — or missing the
//     key, or carrying a value a tombstone deleted, or bytes that are no
//     envelope at all — settle queues a write-back of the key from the
//     winner's replica to the losing replicas, asynchronously, through a
//     small worker pool with per-key deduplication.
//
//   - Hinted handoff (hints.go): a write that had to skip a down replica
//     parks a hint naming the key beside a replica that took it, replayed
//     when the node returns, so a restarted node converges without waiting
//     to be read.
//
//   - Tombstone GC: deletes write tombstones so lagging replicas cannot
//     resurrect data, but a tombstone whose delete every replica has
//     acknowledged protects nothing. Acknowledgments are tracked across the
//     delete itself, hint replays, and read repairs; once complete, the
//     tombstone is physically removed from all replicas. A configurable
//     TombstoneTTL additionally collects tombstones whose ack tracking was
//     lost (a restarted cluster client), but only when a read observed
//     every replica agreeing on the tombstone — so TTL collection can never
//     re-expose data held by a stale or unreachable replica.
//
// A repair names a key, never its bytes: a write-back (a hint replay too)
// copies whatever its source replica holds when it runs — so one queued
// before a delete whose tombstone is since collected finds nothing to copy,
// and cannot resurrect the value — and a collection carries only its
// tombstone's timestamp. A task is a few tens of bytes, so write-backs and
// collections share one work list that drops nothing, its length bounded
// by the number of divergent keys. Collections need that: each is scheduled
// once, when the last acknowledgment arrives, one per key of a BatchDelete.
//
// A write-back keeps the source's ORIGINAL timestamp: replaying one is
// idempotent, cannot reorder against newer writes, and is applied
// conditionally (writeBack re-checks the target's current version first) so
// a replica that converged through another path is never regressed. It goes
// through Backend.Put, which durable engines do not fsync: a write-back lost
// to a crash leaves the replica as diverged as it was found, for the next
// observation to find again — and a hint whose delivery was lost that way
// named a key its parking replica holds durably.

// RepairOptions tunes the replication-repair subsystem. The zero value
// enables read repair and hinted handoff, at the default drain cadence,
// whenever ReplicationFactor > 1; at ReplicationFactor 1 there is nothing
// to repair and the subsystem is not started. No option schedules retries
// against a down node: hint replay follows the node's own liveness (a
// down memory node refuses at once, a dialed node's breaker fails fast
// and announces its recovery).
type RepairOptions struct {
	// DisableReadRepair turns off winner write-back on reads and scans.
	DisableReadRepair bool
	// DisableHints turns off hint parking and draining for writes that
	// skip a down replica.
	DisableHints bool
	// HintInterval is the cadence of the hint drain loop (default 1s):
	// each tick replays every target's pending hints in order until the
	// first failure. A dialed node's breaker closing also wakes the loop.
	HintInterval time.Duration
	// TombstoneTTL, when positive, garbage-collects any tombstone older
	// than the TTL once a read observes every replica of the key agreeing
	// on it. Zero keeps acknowledgment-based GC only. It exists to collect
	// tombstones whose acknowledgment tracking died with a previous
	// cluster client.
	TombstoneTTL time.Duration
	// AntiEntropyInterval, when positive, starts the background
	// anti-entropy loop (antientropy.go): each interval one replica pair's
	// hash trees are compared and any divergence — including divergence no
	// read or hint ever observed — is repaired. Zero (the default) leaves
	// convergence to read repair and hinted handoff. Requires every node's
	// backend to implement engine.HashRanger (all built-in engines do).
	AntiEntropyInterval time.Duration
}

// repairWorkers sizes the repair worker pool.
const repairWorkers = 2

func (o RepairOptions) withDefaults() RepairOptions {
	if o.HintInterval <= 0 {
		o.HintInterval = time.Second
	}
	return o
}

// repairTask is one unit of asynchronous convergence work on a key, and
// holds no value bytes: either copying the key from replica src to the
// losing replicas, or (gc) physically removing the fully-acknowledged
// tombstone at ts from its replicas.
type repairTask struct {
	table, key string
	src        int    // the winner's node (write-backs)
	ts         uint64 // the tombstone's timestamp (gc tasks)
	gc         bool
	targets    []int
}

// tombWait tracks which replicas of a deleted key have not yet
// acknowledged its tombstone.
type tombWait struct {
	ts      uint64
	pending []int
}

type repairer struct {
	s    *Store
	opts RepairOptions

	// The work list: write-backs and collections in arrival order, each
	// dedupKey queued or running at most once (inflight); wake rouses a
	// worker to take from it (next). Workers start lazily on the first task so stores
	// that never observe divergence spawn no goroutines.
	startWork sync.Once
	mu        sync.Mutex // guards queue and inflight
	queue     []repairTask
	inflight  map[string]bool
	wake      chan struct{}

	// Hinted handoff. The drain loop starts lazily on the first parked or
	// recovered hint.
	hmu        sync.Mutex        // guards hints
	hints      map[int][]hintRef // per target, in replay order (hint keys embed a monotonic sequence)
	startDrain sync.Once
	kick       chan struct{}

	tmu   sync.Mutex // guards tombs
	tombs map[string]*tombWait

	// ctx is the repairer's lifecycle root: background convergence —
	// read-repair write-backs, hint replay, tombstone GC — runs on the
	// repairer's schedule, not any caller's, and is cancelled by close().
	ctx    context.Context
	cancel context.CancelFunc

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Counters, surfaced through Stats.
	repairWrites  atomic.Int64
	hintsQueued   atomic.Int64
	hintsReplayed atomic.Int64
	hintsPending  atomic.Int64
	tombstonesGC  atomic.Int64
}

func newRepairer(s *Store, opts RepairOptions) *repairer {
	opts = opts.withDefaults()
	//lint:rstore-vet ctxfirst: the repairer is a lifecycle root — its convergence work outlives any caller's request context and is cancelled by close()
	ctx, cancel := context.WithCancel(context.Background())
	return &repairer{
		s:        s,
		opts:     opts,
		ctx:      ctx,
		cancel:   cancel,
		inflight: make(map[string]bool),
		wake:     make(chan struct{}, 1),
		hints:    make(map[int][]hintRef),
		kick:     make(chan struct{}, 1),
		tombs:    make(map[string]*tombWait),
		stop:     make(chan struct{}),
	}
}

// close stops the workers and the drain loop and waits for in-flight
// repair operations to finish (they are bounded: per-op transports either
// fail fast or retry a bounded number of times).
func (r *repairer) close() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.cancel()
	})
	r.wg.Wait()
}

func taskKey(table, key string) string { return table + "\x00" + key }

// dedupKey is the in-flight coalescing identity. GC tasks carry a marker:
// a tombstone repair whose final acknowledgment completes DURING run() —
// the anti-entropy path, where the repair write itself is the last ack —
// schedules the collection while its own key is still marked in-flight,
// and coalescing the GC against the repair that spawned it would drop the
// collection forever (the ack set is already consumed, so nothing would
// ever reschedule it).
func (t repairTask) dedupKey() string {
	k := taskKey(t.table, t.key)
	if t.gc {
		k += "\x00gc"
	}
	return k
}

// enqueue appends a task to the work list. A task for a key already queued
// or being repaired coalesces with it (dropped silently — the earlier task
// converges the same replicas); nothing else is ever dropped.
func (r *repairer) enqueue(t repairTask) {
	if len(t.targets) == 0 {
		return
	}
	select {
	case <-r.stop:
		return // closing; nothing may start workers anymore
	default:
	}
	r.startWork.Do(func() {
		for i := 0; i < repairWorkers; i++ {
			r.wg.Add(1)
			go r.worker()
		}
	})
	k := t.dedupKey()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inflight[k] {
		return
	}
	r.inflight[k] = true
	r.queue = append(r.queue, t)
	select {
	case r.wake <- struct{}{}:
	default: // a wake is pending: its worker takes this task too
	}
}

// worker runs the work list's tasks, oldest first, one at a time; while
// more remain it wakes another worker, so the workers share a burst.
func (r *repairer) worker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-r.wake:
		}
		for {
			select {
			case <-r.stop:
				return
			default:
			}
			r.mu.Lock()
			if len(r.queue) == 0 {
				r.mu.Unlock()
				break
			}
			t := r.queue[0]
			if r.queue = r.queue[1:]; len(r.queue) == 0 {
				r.queue = nil // release a burst's backing array
			} else {
				select {
				case r.wake <- struct{}{}:
				default: // a wake is pending
				}
			}
			r.mu.Unlock()
			r.run(t)
			r.mu.Lock()
			delete(r.inflight, t.dedupKey()) // t's coalescing window ends
			r.mu.Unlock()
		}
	}
}

// settle acts on one key's verdict (v.win >= 0) — the one place an observed
// divergence turns into work, whoever observed it. The losers are queued
// for a write-back from the winner's replica, obs[v.win].node, when
// writeBack is set (reads and scans clear it when read repair is disabled;
// anti-entropy always writes). A tombstone every replica holds, or holds
// nothing against, is thereby acknowledged by all of them and, past
// TombstoneTTL, collected whether or not anyone was waiting for the
// acknowledgments (Tombstone GC above says why only then). It reports
// whether a write-back was queued.
func (r *repairer) settle(table, key string, obs []observation, v verdict, writeBack bool) bool {
	w := obs[v.win]
	queued := len(v.losers) > 0 && writeBack
	if queued {
		r.enqueue(repairTask{table: table, key: key, src: w.node, targets: v.losers})
	}
	if w.tomb && v.complete {
		replicas := make([]int, len(obs))
		for i, o := range obs {
			replicas[i] = o.node
			r.tombAck(table, key, w.ts, true, o.node)
		}
		if ttl := r.opts.TombstoneTTL; ttl > 0 && time.Since(time.Unix(0, int64(w.ts))) >= ttl {
			r.scheduleGC(table, key, w.ts, replicas)
		}
	}
	return queued
}

// run converges one key: write-back for repair tasks, conditional physical
// deletion for gc tasks. Everything is best effort — a replica that cannot
// be repaired now will be caught by the next observation or hint replay.
func (r *repairer) run(t repairTask) {
	if !t.gc {
		r.writeBack(r.ctx, t.src, t.targets, t.table, t.key)
		return
	}
	gcOK := false
	for _, nid := range t.targets {
		if r.gcReplica(r.ctx, r.s.nodes[nid], t) {
			gcOK = true
		}
	}
	if gcOK {
		r.tombstonesGC.Add(1)
		// A TTL-scheduled collection may still have a (now moot) ack wait
		// registered; drop it so the tracker cannot grow unboundedly.
		k := taskKey(t.table, t.key)
		r.tmu.Lock()
		if w := r.tombs[k]; w != nil && w.ts == t.ts {
			delete(r.tombs, k)
		}
		r.tmu.Unlock()
	}
}

// writeBack is the conditional write-back, the only one: read repair,
// anti-entropy repair and hint replay all deliver through it. It reads what
// replica src holds under the key now, once, and copies it to each target;
// nothing there (the key was deleted and collected since, or lost with src)
// or bytes that are no envelope deliver nothing. For each target it re-reads
// what the target holds and applies src's envelope only over strictly older
// state (or as the tombstone side of a timestamp tie) — the replica may have
// converged through another path since, and an older envelope must never
// regress it. Two cases have no timestamp to compare: bytes that are no
// envelope are overwritten (skipping would leave the corruption in place
// forever, and any well-formed envelope is an improvement); and over nothing
// a value is written but a tombstone is not (nothing there can resurrect,
// and re-creating the tombstone would undo its GC). A target then holding
// src's state or newer — or nothing, against a tombstone — has acknowledged
// it (tombAck). False: src or some target could not be read, or a target not
// written; whether to come back is the caller's call.
func (r *repairer) writeBack(ctx context.Context, src int, targets []int, table, key string) bool {
	env, ok, err := r.s.nodes[src].be.Get(ctx, table, key)
	if err != nil {
		return false
	}
	if !ok {
		return true
	}
	_, ts, tomb, err := unenvelope(env)
	if err != nil {
		return true
	}
	delivered := true
	for _, nid := range targets {
		n := r.s.nodes[nid]
		raw, ok, err := n.be.Get(ctx, table, key)
		if err != nil {
			delivered = false
			continue
		}
		apply := !tomb
		if ok {
			apply = true
			if _, cur, curTomb, err := unenvelope(raw); err == nil {
				apply = ts > cur || (ts == cur && tomb && !curTomb)
			}
		}
		if apply {
			if err := n.be.Put(ctx, table, key, env); err != nil {
				delivered = false
				continue
			}
			r.repairWrites.Add(1)
		}
		r.tombAck(table, key, ts, tomb, nid)
	}
	return delivered
}

// gcReplica physically deletes a fully-acknowledged tombstone from one
// replica, re-checking that the replica still holds exactly that tombstone
// (a newer write must survive).
//
// The re-check-then-delete pair is not atomic: a writer re-creating the
// SAME key concurrently with its delete can land a put inside the window
// and have it removed from this replica (other replicas still hold it, so
// LWW reads survive and read repair restores the loser; losing the write
// everywhere needs the race won on every replica independently). A
// compare-and-delete op on engine.Backend would close the window; until
// then this matches the engine's documented single-logical-writer
// deployment (§2.4), where delete-then-recreate of one key is never
// concurrent.
//
// writeBack has a window of the same class, one delivery's read-to-write
// time: a delete landing, and collected from the target, after it read its
// source gets the old value written back over nothing. The same kind of
// engine op would close it: a compare-and-put on what the target held
// before the source was read.
func (r *repairer) gcReplica(ctx context.Context, n *node, t repairTask) bool {
	raw, ok, err := n.be.Get(ctx, t.table, t.key)
	if err != nil {
		return false
	}
	if !ok {
		return true // already gone
	}
	_, ts, tomb, err := unenvelope(raw)
	if err != nil || !tomb || ts != t.ts {
		return false
	}
	return n.be.Delete(ctx, t.table, t.key) == nil
}

// ---- Tombstone GC ----

// trackTombstone registers a freshly written tombstone and the replicas
// that have not yet acknowledged it. With no laggards the tombstone is
// immediately eligible for collection.
func (r *repairer) trackTombstone(table, key string, ts uint64, pending, replicas []int) {
	if len(pending) == 0 {
		r.scheduleGC(table, key, ts, replicas)
		return
	}
	r.tmu.Lock()
	r.tombs[taskKey(table, key)] = &tombWait{ts: ts, pending: pending}
	r.tmu.Unlock()
}

// tombAck records the state at ts (a tombstone if tomb) that replica nid
// now holds, or provably does not need. The awaited tombstone acknowledges
// it, and the last acknowledgment schedules physical collection. A newer
// state supersedes the delete and ends the wait: that write, owed to every
// replica, replaces the tombstone wherever it lands, and collecting the
// tombstone after it would delete nothing.
func (r *repairer) tombAck(table, key string, ts uint64, tomb bool, nid int) {
	k := taskKey(table, key)
	r.tmu.Lock()
	w := r.tombs[k]
	if w == nil || ts < w.ts || (ts == w.ts && !tomb) {
		r.tmu.Unlock()
		return
	}
	if ts > w.ts {
		delete(r.tombs, k)
		r.tmu.Unlock()
		return
	}
	w.pending = slices.DeleteFunc(w.pending, func(n int) bool { return n == nid })
	done := len(w.pending) == 0
	if done {
		delete(r.tombs, k)
	}
	r.tmu.Unlock()
	if done {
		r.scheduleGC(table, key, ts, r.s.ring.replicas(key, r.s.cfg.ReplicationFactor))
	}
}

// scheduleGC queues the tombstone's collection; the task keeps replicas.
func (r *repairer) scheduleGC(table, key string, ts uint64, replicas []int) {
	r.enqueue(repairTask{table: table, key: key, ts: ts, gc: true, targets: replicas})
}
