package kvstore

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rstore/internal/codec"
	"rstore/internal/engine"
)

// Hinted handoff, the part of replication repair (repair.go) that needs no
// read: a write that had to skip a down replica parks a hint (target node,
// table, key, winning envelope) durably in the !hints table of a replica
// that did take the write — through the engine seam, so lsm and remote
// deployments keep hints across client restarts — and a drain loop replays
// the hints (with per-target exponential backoff) once the target is
// observed up again.

// hintsTable is the kvstore-private table hints are parked in. Like
// !cluster it is node-local bookkeeping, not data: excluded from Dump, and
// written/read per node directly (hints are not themselves replicated).
const hintsTable = "!hints"

// hintRef locates one durable hint record: parked on node park under key
// hkey of the !hints table. The record itself holds the payload; keeping
// only the reference in memory bounds the index to O(pending hints) keys.
type hintRef struct {
	park int
	hkey string
}

// hintQueue is the per-target drain state.
type hintQueue struct {
	pending []hintRef // replay order (hint keys embed a monotonic sequence)
	backoff time.Duration
	next    time.Time // do not re-probe the target before this
}

// hintKey renders the durable key of one hint: the target node and a
// monotonic sequence (the store's write clock), so a lexicographic sweep
// replays hints per target in write order and keys are unique across the
// hints a client parks.
func hintKey(target int, seq uint64) string {
	return fmt.Sprintf("%06d.%016x", target, seq)
}

// parseHintKey recovers the target node from a parked hint's key.
func parseHintKey(k string) (target int, ok bool) {
	i := strings.IndexByte(k, '.')
	if i < 0 {
		return 0, false
	}
	t, err := strconv.Atoi(k[:i])
	if err != nil || t < 0 {
		return 0, false
	}
	return t, true
}

// encodeHint packs the replay payload: destination table, key, and the
// winning envelope.
func encodeHint(table, key string, env []byte) []byte {
	var buf []byte
	buf = codec.PutString(buf, table)
	buf = codec.PutString(buf, key)
	buf = codec.PutBytes(buf, env)
	return buf
}

func decodeHint(raw []byte) (table, key string, env []byte, err error) {
	table, rest, err := codec.String(raw)
	if err != nil {
		return "", "", nil, err
	}
	key, rest, err = codec.String(rest)
	if err != nil {
		return "", "", nil, err
	}
	env, _, err = codec.Bytes(rest)
	if err != nil {
		return "", "", nil, err
	}
	return table, key, env, nil
}

// hintSpec is one write missed by a down replica, to be parked durably.
type hintSpec struct {
	target     int
	table, key string
	env        []byte
}

// addHints durably parks hints on node park (a replica that accepted the
// write) in one batch — the batch path is the one durable backends fsync —
// and registers them with the drain loop. Parking is best effort: the
// write itself already succeeded on the live replicas, so a failed park
// only degrades the down node's convergence to read repair.
func (r *repairer) addHints(ctx context.Context, park int, specs []hintSpec) {
	if r.opts.DisableHints || len(specs) == 0 {
		return
	}
	entries := make([]engine.Entry, len(specs))
	for i, sp := range specs {
		entries[i] = engine.Entry{Key: hintKey(sp.target, r.s.nextTS()), Value: encodeHint(sp.table, sp.key, sp.env)}
	}
	if err := r.s.nodes[park].batchPut(ctx, hintsTable, entries); err != nil {
		return
	}
	r.hmu.Lock()
	for i, sp := range specs {
		r.queueHintLocked(sp.target, hintRef{park: park, hkey: entries[i].Key})
	}
	r.hmu.Unlock()
	r.hintsQueued.Add(int64(len(specs)))
	r.hintsPending.Add(int64(len(specs)))
	r.ensureDrain()
}

// queueHintLocked appends ref to target's drain queue; r.hmu must be held.
func (r *repairer) queueHintLocked(target int, ref hintRef) {
	q := r.hints[target]
	if q == nil {
		q = &hintQueue{}
		r.hints[target] = q
	}
	q.pending = append(q.pending, ref)
}

// recoverHints rebuilds the in-memory hint index from the !hints tables of
// every reachable node, so a restarted cluster client resumes draining
// hints a previous client parked. The nodes are scanned concurrently: this
// runs inside Open, and on a remote cluster a down node costs a full
// dial-retry cycle — serial scans would stack that latency in front of
// every Open. Hints on nodes unreachable right now are picked up by
// whichever client opens after they return.
func (r *repairer) recoverHints(ctx context.Context) {
	if r.opts.DisableHints {
		return
	}
	perNode := make([][]hintRef, len(r.s.nodes))
	var wg sync.WaitGroup
	for i, nd := range r.s.nodes {
		wg.Add(1)
		go func(i int, nd *node) {
			defer wg.Done()
			_ = nd.scan(ctx, hintsTable, func(k string, _ []byte) bool {
				if target, ok := parseHintKey(k); ok && target < len(r.s.nodes) {
					perNode[i] = append(perNode[i], hintRef{park: nd.id, hkey: k})
				}
				return true
			})
		}(i, nd)
	}
	wg.Wait()

	n := 0
	r.hmu.Lock()
	for _, refs := range perNode {
		for _, ref := range refs {
			target, _ := parseHintKey(ref.hkey)
			r.queueHintLocked(target, ref)
			n++
		}
	}
	for _, q := range r.hints {
		// Backend scans are unordered; hint keys embed the write sequence.
		sort.Slice(q.pending, func(i, j int) bool { return q.pending[i].hkey < q.pending[j].hkey })
	}
	r.hmu.Unlock()
	if n > 0 {
		r.hintsQueued.Add(int64(n))
		r.hintsPending.Add(int64(n))
		r.ensureDrain()
	}
}

func (r *repairer) ensureDrain() {
	select {
	case <-r.stop:
		return // closing; nothing may start the drain loop anymore
	default:
	}
	r.startDrain.Do(func() {
		r.wg.Add(1)
		go r.drainLoop()
	})
}

// kickDrain wakes the drain loop immediately and clears per-target
// backoff — called when a node is known to have just come back (failure
// injection flipping it up), so tests and operators see prompt convergence.
func (r *repairer) kickDrain() {
	r.hmu.Lock()
	for _, q := range r.hints {
		q.next = time.Time{}
		q.backoff = 0
	}
	r.hmu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

func (r *repairer) drainLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.opts.HintInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		case <-r.kick:
		}
		now := walltime()
		var due []int
		r.hmu.Lock()
		for target, q := range r.hints {
			if len(q.pending) > 0 && !now.Before(q.next) {
				due = append(due, target)
			}
		}
		r.hmu.Unlock()
		sort.Ints(due)
		for _, target := range due {
			r.drainTarget(target)
		}
	}
}

// drainTarget replays parked hints to one target in order until the queue
// empties or the target (or a parking node) proves unreachable, in which
// case the target backs off exponentially.
func (r *repairer) drainTarget(target int) {
	ctx := r.ctx
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		r.hmu.Lock()
		q := r.hints[target]
		if q == nil || len(q.pending) == 0 {
			if q != nil {
				q.backoff = 0
			}
			r.hmu.Unlock()
			return
		}
		ref := q.pending[0]
		r.hmu.Unlock()

		if !r.replayHint(ctx, target, ref) {
			r.hmu.Lock()
			q.backoff = max(2*q.backoff, r.opts.HintInterval)
			q.backoff = min(q.backoff, r.opts.HintMaxBackoff)
			q.next = walltime().Add(q.backoff)
			r.hmu.Unlock()
			return
		}
		r.hmu.Lock()
		q.pending = q.pending[1:]
		q.backoff = 0
		r.hmu.Unlock()
		r.hintsPending.Add(-1)
		r.hintsReplayed.Add(1)
	}
}

// replayHint delivers one parked hint — a repair task with one target, read
// back from its parking node — then removes the parked record. False means
// "try this target again later" (park or target unreachable); true consumes
// the hint — including hints that turn out to be stale, corrupt, or already
// replayed by another client.
func (r *repairer) replayHint(ctx context.Context, target int, ref hintRef) bool {
	park := r.s.nodes[ref.park]
	raw, ok, err := park.get(ctx, hintsTable, ref.hkey)
	if err != nil {
		return false
	}
	if !ok {
		return true // another client replayed and removed it
	}
	if table, key, env, err := decodeHint(raw); err == nil {
		if _, ts, tomb, err := unenvelope(env); err == nil {
			if !r.writeBack(ctx, target, repairTask{table: table, key: key, env: env, ts: ts, tomb: tomb}) {
				return false
			}
		}
	}
	// Delivered, or undecodable and so undeliverable: the record is spent.
	_ = park.del(ctx, hintsTable, ref.hkey)
	return true
}
