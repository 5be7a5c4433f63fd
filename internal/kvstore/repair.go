package kvstore

import (
	"context"
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
// resolution again. Dynamo-style repair fixes the divergence at the source,
// and every repair is one function, converge: it reads all of a key's
// replicas at once (readReplicas), judges their answers (judge), writes the
// winner to the losers, and collects a tombstone every replica then holds.
// Its triggers:
//
//   - Read repair: a read (Get, MultiGet), a Scan or an anti-entropy sweep
//     whose verdict (verdict.go) has losers — replicas holding an older
//     version, nothing, a value a tombstone deleted, or bytes that are no
//     envelope — queues the key (settle) for a worker.
//
//   - Hinted handoff (hints.go): a write that had to skip a down replica
//     parks a hint naming the key beside a replica that took it; when the
//     node returns, the drain converges the key, so a restarted node
//     catches up without waiting to be read.
//
//   - Tombstone GC: a tombstone every replica holds protects nothing, so
//     one every replica is seen holding (or holding nothing) is removed
//     from all of them, whoever wrote it. The write itself, a read, a Scan,
//     an anti-entropy round and a hint replay all feed that rule, so the
//     repairer keeps no memory of deletes, and a tombstone a closed client
//     left is collected by the next that observes it. It is safe at any
//     age: every replica answered and none holds an older value, and each
//     replica is re-read just before its delete. Age guards the window
//     between that re-check and the delete: a write landing in it goes with
//     the tombstone from that replica, at rf 1 from the only one. This
//     Store's writes wait out its repairs (placing), but a writer may
//     rewrite a key it just deleted (core's Open deletes a crashed flush's
//     chunks, and its next flush reuses their ids), so only a delete, a hint
//     replay and a converge delivering the tombstone collect at once; a
//     mere observation, maybe another client's, waits for tombGrace.
//
// A task names a key, never its bytes: the winner is the newest state any
// replica holds when it runs, so a delivery never regresses a replica that
// converged another way, and one queued before a delete whose tombstone is
// since collected finds nothing to copy. Tasks are a few tens of bytes, so
// the work list drops nothing, bounded by the number of divergent keys.
// A delivery keeps the winner's ORIGINAL timestamp, so repeating one is
// idempotent. It goes through Backend.Put, which durable engines do not
// fsync: one lost to a crash leaves the replica as diverged as it was
// found, for the next observation to find again.
//
// Until engine.Backend has conditional ops, another client's write landing
// between a collection's re-check of a replica and its delete there goes
// with the tombstone from that replica (the next replica's re-check finds
// the write and spares it, and read repair restores it; losing it
// everywhere needs the race won on each replica in turn), and one landing
// between converge's read and its Put is overwritten by the older winner,
// for the next observation to repair: the single-logical-writer deployment
// (§2.4).

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

// repairTask is one unit of asynchronous convergence work: a key, and
// whether its tombstone may be collected at once, whatever its age (a
// delete's own collection, or a hint replay).
type repairTask struct {
	table, key string
	fresh      bool
}

type repairer struct {
	s    *Store
	opts RepairOptions

	// The work list: keys in arrival order, each queued at most once
	// (queued holds its task's fresh); wake rouses a worker to take from it.
	// Workers start lazily on the first task so stores that never observe
	// divergence spawn no goroutines.
	startWork sync.Once
	mu        sync.Mutex // guards queue and queued
	queue     []tableKey
	queued    map[tableKey]bool
	wake      chan struct{}

	// A repair and this Store's own write of the same key exclude each
	// other: converge reads and then writes or deletes, and a write landing
	// in between would be overwritten, or go with the tombstone — at rf 1,
	// from the only replica. busy[k] counts the writes placing k, or is -1
	// while k converges; a write waits for a repair to end (freed), as does
	// a second repair of k, and a repair skips a key being written, which
	// supersedes it.
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
		s:      s,
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		queued: make(map[tableKey]bool),
		wake:   make(chan struct{}, 1),
		busy:   make(map[tableKey]int),
		hints:  make(map[int][]hintRef),
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	r.freed = sync.NewCond(&r.kmu)
	return r
}

type tableKey struct{ table, key string }

// placing marks the entries' keys as written by this Store, once no
// repair of them is under way, until the returned func is called.
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

// close stops the workers, the drain loop and the anti-entropy loop and
// waits for in-flight repair operations to finish (they are bounded: per-op
// transports either fail fast or retry a bounded number of times).
func (r *repairer) close() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.cancel()
	})
	r.wg.Wait()
}

// enqueue appends a task to the work list. A task for a key already queued
// coalesces with it, and a fresh one makes it fresh; one for a key being
// converged queues behind that run, which may have read the key before the
// change that queued it. Nothing is ever dropped.
func (r *repairer) enqueue(t repairTask) {
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
	k := tableKey{t.table, t.key}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fresh, ok := r.queued[k]; ok {
		r.queued[k] = fresh || t.fresh
		return
	}
	r.queued[k] = t.fresh
	r.queue = append(r.queue, k)
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
			k := r.queue[0]
			if r.queue = r.queue[1:]; len(r.queue) == 0 {
				r.queue = nil // release a burst's backing array
			} else {
				select {
				case r.wake <- struct{}{}:
				default: // a wake is pending
				}
			}
			fresh := r.queued[k]
			delete(r.queued, k)
			r.mu.Unlock()
			r.converge(r.ctx, repairTask{table: k.table, key: k.key, fresh: fresh}, true)
		}
	}
}

// settle acts on one key's verdict (v.win >= 0) — the one place an observed
// divergence turns into work, whoever observed it. The key is queued when
// the verdict has losers and writeLosers is set (reads and scans clear it
// when read repair is disabled; anti-entropy always writes), or when it
// shows a tombstone older than tombGrace on every replica (Tombstone GC
// above). It reports whether a write-back was queued.
func (r *repairer) settle(table, key string, obs []observation, v verdict, writeLosers bool) bool {
	w := obs[v.win]
	queued := len(v.losers) > 0 && writeLosers
	if queued || (w.tomb && v.complete && aged(w.ts)) {
		r.enqueue(repairTask{table: table, key: key})
	}
	return queued
}

// aged reports whether a tombstone stamped ts is older than tombGrace.
func aged(ts uint64) bool { return walltime().UnixNano()-int64(ts) >= int64(tombGrace) }

// converge is the repair, the only one: the workers run it for read repair,
// anti-entropy repair and tombstone collection, and the hint drain for a
// replay. It reads every replica of the key at once (in turn over
// in-process engines: inProcess), judges the answers, and puts the winner
// to every loser — the apply rules are judge's (verdict.go). A tombstone
// winner every replica then holds (or holds
// nothing) is collected when the task is fresh, this run delivered it, or
// it is older than tombGrace: with collect set, here, from one holder after
// another, each re-read just before its delete, so a write landing between
// one holder's re-check and delete goes with the tombstone from that
// replica only and the next re-check spares it; without collect (the hint
// drain), by a fresh task queued off the caller's path. Everything is best
// effort: a replica that cannot be repaired now is caught by the next
// observation or hint replay.
//
// It reports the replicas that did not answer or did not take the winner,
// and judged false when it did not judge the key: a read failed, or a
// write of this Store's was placing the key, which supersedes the repair.
func (r *repairer) converge(ctx context.Context, t repairTask, collect bool) (missed []int, judged bool) {
	k := tableKey{t.table, t.key}
	r.kmu.Lock()
	for r.busy[k] < 0 {
		r.freed.Wait()
	}
	if r.busy[k] > 0 {
		r.kmu.Unlock()
		return nil, false
	}
	r.busy[k] = -1
	r.kmu.Unlock()
	defer func() {
		r.kmu.Lock()
		delete(r.busy, k)
		r.freed.Broadcast()
		r.kmu.Unlock()
	}()

	reads, err := r.s.readReplicas(ctx, t.table, []string{t.key})
	if err != nil {
		return nil, false
	}
	rd, v := reads[0], judge(reads[0].obs)
	for _, o := range rd.obs {
		if o.state == obsUnreachable {
			missed = append(missed, o.node)
		}
	}
	if v.win < 0 {
		return missed, true
	}
	w := rd.obs[v.win]
	flag := byte(envValue)
	if w.tomb {
		flag = envTombstone
	}
	env := envelope(flag, w.ts, rd.payload[v.win])
	failed := make([]bool, len(v.losers))
	fanOut(v.losers, !r.s.inProcess(v.losers), func(i, nid int) {
		n := r.s.nodes[nid]
		failed[i] = n.pinFirst(ctx) != nil || n.be.Put(ctx, t.table, t.key, env) != nil
	})
	for i, nid := range v.losers {
		if failed[i] {
			missed = append(missed, nid)
		} else {
			r.repairWrites.Add(1)
		}
	}
	if !w.tomb || len(missed) > 0 || !(t.fresh || len(v.losers) > 0 || aged(w.ts)) {
		return missed, true
	}
	if !collect {
		r.enqueue(repairTask{table: t.table, key: t.key, fresh: true})
		return missed, true
	}
	collected := false
	for _, o := range rd.obs {
		if o.state == obsAbsent {
			continue
		}
		be := r.s.nodes[o.node].be
		raw, ok, err := be.Get(ctx, t.table, t.key)
		if err != nil || !ok {
			continue
		}
		if _, ts, tomb, err := unenvelope(raw); err == nil && tomb && ts == w.ts && be.Delete(ctx, t.table, t.key) == nil {
			collected = true
		}
	}
	if collected {
		r.tombstonesGC.Add(1)
	}
	return missed, true
}
