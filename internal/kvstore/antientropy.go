package kvstore

import (
	"context"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"rstore/internal/engine"
)

// aeFanout is the hash-tree bucket count the loop digests tables into. More
// buckets would mean finer drill-down on a diverged table at the cost of a
// larger digest frame.
const aeFanout = engine.DefaultHashFanout

// Anti-entropy: the background convergence path that needs no reads.
//
// Read repair and hinted handoff (repair.go) both wait on an observation —
// a read that happens to touch the diverged key, or a write that knew it
// skipped a down replica. Divergence that occurs behind the store's back
// (a replica restored from an old backup, bytes lost to disk corruption,
// an operator writing to a node directly) is invisible to both: no hint
// was parked, and a key nobody reads stays wrong forever. The anti-entropy
// loop closes that gap Dynamo-style, with hash trees instead of reads:
//
//	tick ─ walk the replica pairs round-robin until one syncs (a pair
//	       with an unreachable node fails fast at its first call)
//	     ─ per table: fetch both nodes' tree digests (engine.HashRanger;
//	       one frame each on remote nodes); equal roots → done, the common
//	       case costs two digest exchanges and zero key transfers
//	     ─ unequal roots → fetch only the unequal buckets' key/hash lists
//	       and diff them key by key
//	     ─ each differing key: read ALL its replicas' envelopes (one batched
//	       MultiGet per node, the read path's readReplicas), judge them as a
//	       read would (verdict.go), and settle the verdict as a read would
//	       (repair.go): a key with losers is queued for converge, the one
//	       repair, which reads all its replicas again when it runs, so a
//	       replica that converged through another path meanwhile is never
//	       regressed — and a tombstone every replica holds, or holds nothing
//	       against, is collected.
//
// One completed pair per tick bounds the background load to two tree sweeps
// per interval regardless of cluster size; every pair is visited as ticks
// accumulate. The loop is only started when ReplicationFactor > 1, and runs
// on the repairer's lifecycle: its context, its stop and its wait group, so
// Store.Close stops it with the repair workers it feeds.
type antiEntropy struct {
	s        *Store
	interval time.Duration

	pair int // round-robin cursor over replica pairs

	// Counters, surfaced through Stats.
	syncs        atomic.Int64 // completed pair syncs
	rangesDiffed atomic.Int64 // unequal buckets drilled into
	keysRepaired atomic.Int64 // differing keys queued for repair
	bytesHashed  atomic.Int64 // key+value bytes digested by tree sweeps
}

// run ticks until the repairer stops; it is counted in the repairer's wait
// group, so no sync touches node backends after Store.Close moves on to
// closing them.
func (a *antiEntropy) run() {
	r := a.s.repair
	defer r.wg.Done()
	tick := time.NewTicker(a.interval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		a.syncOnce()
	}
}

// syncOnce walks the replica pairs from the cursor until one sync
// completes, at most once around all pairs. A pair with an unreachable node
// fails fast — at Tables, or on a remote node's breaker — and the walk moves
// on. With no pair completing (or a single-node cluster) the tick is a
// no-op.
func (a *antiEntropy) syncOnce() {
	n := len(a.s.nodes)
	total := n * (n - 1) / 2
	for tries := 0; tries < total; tries++ {
		select {
		case <-a.s.repair.stop:
			return
		default:
		}
		i, j := pairAt(a.pair%total, n)
		a.pair++
		if a.syncPair(a.s.repair.ctx, i, j) {
			return
		}
	}
}

// pairAt maps a linear index in [0, n*(n-1)/2) onto the (i, j) node pair
// with i < j, row-major: (0,1), (0,2), …, (1,2), ….
func pairAt(p, n int) (int, int) {
	for i := 0; i < n-1; i++ {
		row := n - 1 - i
		if p < row {
			return i, i + 1 + p
		}
		p -= row
	}
	return 0, 1
}

// syncPair converges every shared table of nodes i and j and reports
// whether the sync completed. Kvstore-private tables ("!hints", "!cluster")
// are skipped: hints are node-local bookkeeping and identity pins are meant
// to differ per node.
func (a *antiEntropy) syncPair(ctx context.Context, i, j int) bool {
	seen := map[string]bool{}
	var tables []string
	for _, nid := range [2]int{i, j} {
		ts, err := a.s.nodes[nid].be.Tables(ctx)
		if err != nil {
			return false // unreachable, or vanished mid-tick
		}
		for _, t := range ts {
			if len(t) > 0 && t[0] == '!' {
				continue
			}
			if !seen[t] {
				seen[t] = true
				tables = append(tables, t)
			}
		}
	}
	sort.Strings(tables)
	for _, table := range tables {
		select {
		case <-a.s.repair.stop:
			return false
		default:
		}
		if !a.syncTable(ctx, i, j, table) {
			return false
		}
	}
	a.syncs.Add(1)
	return true
}

// syncTable diffs one table across the pair and queues repairs for the
// differing keys. False means the sync could not complete (a node became
// unreachable, or a backend lacks hashing) and the pair round should not
// be counted.
func (a *antiEntropy) syncTable(ctx context.Context, i, j int, table string) bool {
	di, err := engine.HashTree(ctx, a.s.nodes[i].be, table, aeFanout)
	if err != nil {
		return false
	}
	dj, err := engine.HashTree(ctx, a.s.nodes[j].be, table, aeFanout)
	if err != nil {
		return false
	}
	a.bytesHashed.Add(di.Bytes + dj.Bytes)
	if di.Root == dj.Root {
		return true
	}
	if len(di.Leaves) != aeFanout || len(dj.Leaves) != aeFanout {
		return false // malformed digest; do not guess at bucket alignment
	}
	var diff []string
	for b := 0; b < aeFanout; b++ {
		if di.Leaves[b] == dj.Leaves[b] {
			continue
		}
		a.rangesDiffed.Add(1)
		ki, err := engine.HashRange(ctx, a.s.nodes[i].be, table, aeFanout, b)
		if err != nil {
			return false
		}
		kj, err := engine.HashRange(ctx, a.s.nodes[j].be, table, aeFanout, b)
		if err != nil {
			return false
		}
		diff = append(diff, diffKeyHashes(ki, kj)...)
	}
	// Only keys replicated on BOTH nodes can legitimately be compared: at
	// ReplicationFactor < Nodes each node also holds keys the other is not
	// a replica of, and those differ by design.
	rf := a.s.cfg.ReplicationFactor
	keys := diff[:0]
	for _, k := range diff {
		if replicas := a.s.ring.replicas(k, rf); slices.Contains(replicas, i) && slices.Contains(replicas, j) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return true
	}
	// The pair only located the divergence; each key is judged across all of
	// its replicas, once, so the winner is the cluster's and not the pair's.
	// A pair like (tombstone, wiped replica) has no loser — no tombstone is
	// written over nothing — and converges through settle's
	// collection of a complete verdict instead of re-diffing forever.
	reads, err := a.s.readReplicas(ctx, table, keys)
	if err != nil {
		return false
	}
	for idx, key := range keys {
		rd := reads[idx]
		if v := judge(rd.obs); v.win >= 0 && a.s.repair.settle(table, key, rd.obs, v) {
			a.keysRepaired.Add(1)
		}
	}
	return true
}

// diffKeyHashes merges two ascending key/hash lists and returns the keys
// present on only one side or hashing differently on the two.
func diffKeyHashes(ki, kj []engine.KeyHash) []string {
	var out []string
	x, y := 0, 0
	for x < len(ki) && y < len(kj) {
		switch {
		case ki[x].Key < kj[y].Key:
			out = append(out, ki[x].Key)
			x++
		case ki[x].Key > kj[y].Key:
			out = append(out, kj[y].Key)
			y++
		default:
			if ki[x].Hash != kj[y].Hash {
				out = append(out, ki[x].Key)
			}
			x++
			y++
		}
	}
	for ; x < len(ki); x++ {
		out = append(out, ki[x].Key)
	}
	for ; y < len(kj); y++ {
		out = append(out, kj[y].Key)
	}
	return out
}
