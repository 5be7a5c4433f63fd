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
//   - Tombstone GC: a tombstone every replica holds protects nothing, so
//     one every replica is seen holding (or holding nothing) is removed
//     from all of them, whoever wrote it. The write itself, a read, a Scan
//     or an anti-entropy round (settle), and a write-back delivering a
//     tombstone all feed that rule, so the repairer keeps no memory of
//     deletes, and a tombstone a closed client left is collected by the
//     next that observes it. It is safe at any age: every replica answered
//     and none holds an older value, gcReplica re-checks each before
//     deleting, and no queued delivery carries bytes older than its source
//     holds now (below). Age guards gcReplica's own window: a write landing
//     between its re-check and delete goes with the tombstone, at rf 1 from
//     the only replica. This Store's writes wait out its collections (run),
//     but a writer may rewrite a key it just deleted (core's Load deletes a
//     crashed flush's chunks, and its next flush reuses their ids), so only
//     a delete and the write-back completing it collect at once; a mere
//     observation, maybe another client's, waits for tombGrace.
//
// A repair names a key, never its bytes: a write-back (a hint replay too)
// copies whatever its source replica holds when it runs, so one queued
// before a delete whose tombstone is since collected finds nothing to copy;
// a collection carries only its tombstone's timestamp. Tasks are a few tens
// of bytes, so write-backs and collections share one work list that drops
// nothing, bounded by the number of divergent keys (a BatchDelete queues a
// collection per key, and nothing queues one again until the key is seen).
//
// A write-back keeps the source's ORIGINAL timestamp, so replaying one is
// idempotent and cannot reorder against newer writes. It goes through
// Backend.Put, which durable engines do not fsync: one lost to a crash
// leaves the replica as diverged as it was found, for the next observation
// to find again (a lost hint delivery named a key its parking replica holds
// durably).

// RepairOptions tunes the replication-repair subsystem. The zero value
// enables read repair and hinted handoff, at the default drain cadence,
// whenever ReplicationFactor > 1; at ReplicationFactor 1 there is nothing
// to repair, and the subsystem only collects tombstones. No option
// schedules retries against a down node: hint replay follows the node's
// own liveness (a down memory node refuses at once, a dialed node's
// breaker fails fast and announces its recovery).
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

// tombGrace is how old, by this client's clock, a tombstone must be before
// an observation collects it (Tombstone GC above): room for its writer's
// rewrite of the key, and for clock skew between clients.
const tombGrace = time.Minute

// repairTask is one unit of asynchronous convergence work on a key, and
// holds no value bytes: either copying the key from replica src to the
// losing replicas, or (gc) removing the tombstone at ts from its replicas,
// all seen holding it but those in verify, which are read first.
type repairTask struct {
	table, key string
	src        int    // the winner's node (write-backs)
	ts         uint64 // the tombstone's timestamp (gc tasks)
	gc         bool
	targets    []int
	verify     []int
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

	// A collection and this Store's own write of the same key exclude each
	// other: gcReplica re-checks a replica and then deletes, and a write
	// landing in between would go with the tombstone — at rf 1, from the
	// only replica. busy[k] counts the writes placing k, or is -1 while k
	// is collected; a write waits for a collection to end (freed), and a
	// collection skips a key being written, which supersedes its tombstone.
	kmu   sync.Mutex
	busy  map[tableKey]int
	freed *sync.Cond

	// Hinted handoff. The drain loop starts lazily on the first parked or
	// recovered hint.
	hmu        sync.Mutex        // guards hints
	hints      map[int][]hintRef // per target, in replay order (hint keys embed a monotonic sequence)
	startDrain sync.Once
	kick       chan struct{}

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
	if opts.HintInterval <= 0 {
		opts.HintInterval = time.Second
	}
	//lint:rstore-vet ctxfirst: the repairer is a lifecycle root — its convergence work outlives any caller's request context and is cancelled by close()
	ctx, cancel := context.WithCancel(context.Background())
	r := &repairer{
		s:        s,
		opts:     opts,
		ctx:      ctx,
		cancel:   cancel,
		inflight: make(map[string]bool),
		wake:     make(chan struct{}, 1),
		busy:     make(map[tableKey]int),
		hints:    make(map[int][]hintRef),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	r.freed = sync.NewCond(&r.kmu)
	return r
}

type tableKey struct{ table, key string }

// placing marks the entries' keys as written by this Store, once no
// collection of them is under way, until the returned func is called.
func (r *repairer) placing(table string, entries []Entry) (done func()) {
	r.kmu.Lock()
	for _, e := range entries {
		k := tableKey{table, e.Key}
		for r.busy[k] < 0 {
			r.freed.Wait()
		}
		r.busy[k]++
	}
	r.kmu.Unlock()
	return func() {
		r.kmu.Lock()
		for _, e := range entries {
			k := tableKey{table, e.Key}
			if r.busy[k]--; r.busy[k] == 0 {
				delete(r.busy, k)
			}
		}
		r.kmu.Unlock()
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
// a write-back that delivers a tombstone schedules its collection DURING
// run(), while its own key is still marked in-flight, and coalescing the GC
// against the write-back that spawned it would drop the collection until
// the key is next observed.
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
// anti-entropy always writes). A tombstone older than tombGrace that every
// replica holds, or holds nothing against, is queued for collection
// (Tombstone GC above). It reports whether a write-back was queued.
func (r *repairer) settle(table, key string, obs []observation, v verdict, writeBack bool) bool {
	w := obs[v.win]
	queued := len(v.losers) > 0 && writeBack
	if queued {
		r.enqueue(repairTask{table: table, key: key, src: w.node, targets: v.losers})
	}
	if w.tomb && v.complete && aged(w.ts) {
		replicas := make([]int, len(obs))
		for i, o := range obs {
			replicas[i] = o.node
		}
		r.scheduleGC(table, key, w.ts, replicas)
	}
	return queued
}

// aged reports whether a tombstone stamped ts is older than tombGrace.
func aged(ts uint64) bool { return walltime().UnixNano()-int64(ts) >= int64(tombGrace) }

// run converges one key: write-back for repair tasks, conditional physical
// deletion for gc tasks. Everything is best effort — a replica that cannot
// be repaired now will be caught by the next observation or hint replay.
func (r *repairer) run(t repairTask) {
	if !t.gc {
		r.writeBack(r.ctx, t.src, t.targets, t.table, t.key)
		return
	}
	k := tableKey{t.table, t.key}
	r.kmu.Lock()
	if r.busy[k] != 0 {
		r.kmu.Unlock()
		return
	}
	r.busy[k] = -1
	r.kmu.Unlock()
	collected, agreed := false, true
	for _, nid := range t.verify { // not yet seen holding the tombstone
		_, ok := r.holds(r.ctx, r.s.nodes[nid], t)
		agreed = agreed && ok
	}
	for _, nid := range t.targets {
		if agreed && r.gcReplica(r.ctx, r.s.nodes[nid], t) {
			collected = true
		}
	}
	r.kmu.Lock()
	delete(r.busy, k)
	r.freed.Broadcast()
	r.kmu.Unlock()
	if collected {
		r.tombstonesGC.Add(1)
	}
}

// writeBack is the conditional write-back, the only one: read repair,
// anti-entropy repair and hint replay all deliver through it. It reads what
// replica src holds under the key now, once, and copies it to each target;
// nothing there (deleted and collected since, or lost with src) or bytes
// that are no envelope deliver nothing. Each target is re-read, and src's
// envelope applied only over strictly older state (or as the tombstone side
// of a timestamp tie): the replica may have converged another way since,
// and must never regress. Without a timestamp to compare, bytes that are no
// envelope are overwritten (any envelope is an improvement), and over
// nothing a value is written but a tombstone is not (nothing there can
// resurrect, and re-creating it would undo its GC). A tombstone delivered
// to every target is queued for collection at once, which first reads the
// replicas this delivery did not (verify), off the drain's path. False: src
// or some target could not be read, or a target not written.
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
	}
	if tomb && delivered {
		replicas := r.s.ring.replicas(key, r.s.cfg.ReplicationFactor)
		verify := slices.DeleteFunc(slices.Clone(replicas), func(nid int) bool {
			return nid == src || slices.Contains(targets, nid)
		})
		r.enqueue(repairTask{table: table, key: key, ts: ts, gc: true, targets: replicas, verify: verify})
	}
	return delivered
}

// gcReplica physically deletes a tombstone every replica was seen holding
// from one replica, re-checking that it still holds exactly that tombstone
// (a newer write must survive).
//
// The re-check and delete are two calls. This Store's own writes of the key
// wait for them (run, placing), but a put from a second client or a
// write-back can land in between and be removed from this replica (the
// other replicas keep it, and read repair restores it; losing it everywhere
// needs the race won on each replica). A compare-and-delete on
// engine.Backend would close the window; until then this matches the
// single-logical-writer deployment (§2.4), and observers leave tombstones
// younger than tombGrace alone. writeBack has a window of the same class: a
// delete landing, and collected from the target, after it read its source
// gets the old value written back over nothing; a compare-and-put on what
// the target held would close it.
func (r *repairer) gcReplica(ctx context.Context, n *node, t repairTask) bool {
	held, agrees := r.holds(ctx, n, t)
	if !held {
		return agrees // already gone, or not t's tombstone
	}
	return n.be.Delete(ctx, t.table, t.key) == nil
}

// holds reads replica n under t's key: held when it holds exactly t's
// tombstone; agrees when it holds that, or nothing.
func (r *repairer) holds(ctx context.Context, n *node, t repairTask) (held, agrees bool) {
	raw, ok, err := n.be.Get(ctx, t.table, t.key)
	if err != nil || !ok {
		return false, err == nil
	}
	_, ts, tomb, err := unenvelope(raw)
	held = err == nil && tomb && ts == t.ts
	return held, held
}

// scheduleGC queues the tombstone's collection; the task keeps replicas.
func (r *repairer) scheduleGC(table, key string, ts uint64, replicas []int) {
	r.enqueue(repairTask{table: table, key: key, ts: ts, gc: true, targets: replicas})
}
