package kvstore

import (
	"context"
	"fmt"
	"slices"
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
// table, key) durably in the !hints table of a replica that did take the
// write — through the engine seam, so lsm and remote deployments keep hints
// across client restarts — and a drain loop replays the hints once the
// target answers again. Replaying a hint converges its key (repair.go): all
// its replicas are read, the parking one among them, which holds the write
// or a newer state, and the winner is written to the target. The
// loop keeps no schedule of its own per target: it retries every tick
// (hintInterval), which costs little because a down node refuses at once —
// a memory node answers engine.ErrUnavailable, a dialed node's open breaker
// fails fast without a dial — and a dialed node's breaker closing wakes it
// at once, as does an Open that recovered parked hints (kickDrain).

// hintsTable is the kvstore-private table hints are parked in. Like
// !cluster it is node-local bookkeeping, not data: the ring does not place
// it and anti-entropy skips it; it is written and read per node directly
// (hints are not themselves replicated).
const hintsTable = "!hints"

// hintRef is one durable hint record, parked on node park under key hkey
// of the !hints table, and the key it owes. A record is a few tens of
// bytes, so the index holds it whole and replay reads nothing back.
type hintRef struct {
	park       int
	hkey       string
	table, key string
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

// encodeHint packs the record of a hint: the table and key it owes.
func encodeHint(table, key string) []byte {
	return codec.PutString(codec.PutString(nil, table), key)
}

// decodeHint reads a hint record's table and key. Anything after them is
// ignored: earlier builds appended the missed envelope, and such a record
// replays like a new one.
func decodeHint(raw []byte) (table, key string, err error) {
	table, rest, err := codec.String(raw)
	if err != nil {
		return "", "", err
	}
	key, _, err = codec.String(rest)
	return table, key, err
}

// hintSpec is one write missed by a down replica, to be parked durably.
type hintSpec struct {
	target     int
	table, key string
}

// addHints durably parks hints on node park (a replica that accepted the
// write) in one batch — the batch path is the one durable backends fsync —
// and registers them with the drain loop. Parking is best effort: the
// write itself already succeeded on the live replicas, so a failed park
// only degrades the down node's convergence to read repair.
func (r *repairer) addHints(ctx context.Context, park int, specs []hintSpec) {
	if len(specs) == 0 {
		return
	}
	entries := make([]engine.Entry, len(specs))
	for i, sp := range specs {
		entries[i] = engine.Entry{Key: hintKey(sp.target, r.s.nextTS()), Value: encodeHint(sp.table, sp.key)}
	}
	if err := r.s.nodes[park].be.BatchPut(ctx, hintsTable, entries); err != nil {
		return
	}
	r.hmu.Lock()
	for i, sp := range specs {
		r.hints[sp.target] = append(r.hints[sp.target], hintRef{park: park, hkey: entries[i].Key, table: sp.table, key: sp.key})
	}
	r.hmu.Unlock()
	r.hintsQueued.Add(int64(len(specs)))
	r.hintsPending.Add(int64(len(specs)))
	r.ensureDrain()
}

// recoverHints rebuilds the in-memory hint index from the !hints tables of
// every reachable node, so a restarted cluster client resumes draining
// hints a previous client parked. The nodes are scanned concurrently: this
// runs inside Open, and on a remote cluster a down node costs a full
// dial-retry cycle — serial scans would stack that latency in front of
// every Open. Hints on nodes unreachable right now are picked up by
// whichever client opens after they return. A record that does not decode,
// or whose key names no node of this cluster, owes nothing anyone can
// deliver, and is removed. Recovered hints replay at once, not at the
// first tick.
func (r *repairer) recoverHints(ctx context.Context) {
	perNode := make([][]hintRef, len(r.s.nodes))
	var wg sync.WaitGroup
	for i, nd := range r.s.nodes {
		wg.Add(1)
		go func(i int, nd *node) {
			defer wg.Done()
			var corrupt []string
			_ = nd.be.Scan(ctx, hintsTable, func(k string, v []byte) bool {
				target, ok := parseHintKey(k)
				table, key, err := decodeHint(v)
				if ok && target < len(r.s.nodes) && err == nil {
					perNode[i] = append(perNode[i], hintRef{park: nd.id, hkey: k, table: table, key: key})
				} else {
					corrupt = append(corrupt, k)
				}
				return true
			})
			for _, k := range corrupt {
				_ = nd.be.Delete(ctx, hintsTable, k)
			}
		}(i, nd)
	}
	wg.Wait()

	n := 0
	r.hmu.Lock()
	for _, refs := range perNode {
		for _, ref := range refs {
			target, _ := parseHintKey(ref.hkey)
			r.hints[target] = append(r.hints[target], ref)
			n++
		}
	}
	for _, q := range r.hints {
		// Backend scans are unordered; hint keys embed the write sequence.
		sort.Slice(q, func(i, j int) bool { return q[i].hkey < q[j].hkey })
	}
	r.hmu.Unlock()
	if n > 0 {
		r.hintsQueued.Add(int64(n))
		r.hintsPending.Add(int64(n))
		r.ensureDrain()
		r.kickDrain()
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

// kickDrain wakes the drain loop now instead of at its next tick. Its
// callers are recoverHints, once it queued the hints a previous client
// parked, and a dialed node's breaker closing (Open wires the listener):
// the node has just come back, so its parked writes replay at once.
func (r *repairer) kickDrain() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// drainLoop replays pending hints on every tick and every kick, one target
// after another in node order.
func (r *repairer) drainLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(hintInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		case <-r.kick:
		}
		r.hmu.Lock()
		due := make([]int, 0, len(r.hints))
		for target, q := range r.hints {
			if len(q) > 0 {
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

// drainTarget replays the hints parked for one target, in order. A replay
// converges the hint's key (a fresh task: a tombstone every replica then
// holds is queued for collection at once, off the drain's path) and spends
// the hint — removes its parked record — once the key was judged with the
// target and the parking node, whose state the winner must have been judged
// against, answering and taking the winner; that includes a key no replica
// holds any more, and a hint another client already replayed. A hint that
// is not spent stays queued. The pass ends when the target itself missed,
// and the rest wait for the next tick or kick; on any other failure it goes
// on to the next hint, since a target's queue holds hints parked on several
// nodes and one of them being down must not hold up the others. Order does
// not matter to the outcome: converge delivers the newest state whichever
// hint names the key.
func (r *repairer) drainTarget(target int) {
	for i := 0; ; {
		select {
		case <-r.stop:
			return
		default:
		}
		r.hmu.Lock()
		q := r.hints[target]
		if i >= len(q) {
			r.hmu.Unlock()
			return
		}
		ref := q[i]
		r.hmu.Unlock()

		missed, judged := r.converge(r.ctx, repairTask{table: ref.table, key: ref.key, fresh: true}, false)
		if slices.Contains(missed, target) {
			return
		}
		if !judged || slices.Contains(missed, ref.park) {
			i++
			continue
		}
		_ = r.s.nodes[ref.park].be.Delete(r.ctx, hintsTable, ref.hkey)
		// Only this loop removes hints, and addHints only appends, so ref is
		// still at i. The head goes by reslicing, so a pass that spends the
		// queue in order stays linear in its length.
		r.hmu.Lock()
		q = r.hints[target]
		if i == 0 {
			r.hints[target] = q[1:]
		} else {
			r.hints[target] = slices.Delete(q, i, i+1)
		}
		r.hmu.Unlock()
		r.hintsPending.Add(-1)
		r.hintsReplayed.Add(1)
	}
}
