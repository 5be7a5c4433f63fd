package kvstore

import (
	"context"
	"fmt"
	"slices"

	"rstore/internal/engine"
	"rstore/internal/types"
)

// Get retrieves the value under (table, key): a one-key MultiGet. It returns
// types.ErrNotFound if no live replica has the key (or the newest version is
// a tombstone), and an error when every replica is down.
func (s *Store) Get(ctx context.Context, table, key string) ([]byte, error) {
	res, err := s.multiGet(ctx, "get", table, []string{key})
	if err != nil {
		return nil, err
	}
	if len(res.Missing) > 0 {
		return nil, fmt.Errorf("%w: %s/%s", types.ErrNotFound, table, key)
	}
	return res.Values[0], nil
}

// MultiGetResult reports the outcome of a parallel multi-key fetch.
type MultiGetResult struct {
	// Values holds one entry per requested key, in request order; missing
	// keys yield nil entries.
	Values [][]byte
	// Missing lists the indexes of keys that were not found.
	Missing []int
	// Requests is the number of point requests issued.
	Requests int
	// BytesRead is the total response volume.
	BytesRead int64
}

// MultiGet fetches many keys from one table — the access pattern of
// RStore's query processing module — with one batched request per replica
// node (readReplicas). Each key's replica answers are judged (verdict.go):
// the newest version is served, so a node that restarted stale — it was down
// while its peers accepted overwrites or deletes — is outvoted instead of
// believed, and whatever diverged is queued for read repair. A key no
// replica answered for is the all-replicas-down error. Missing keys are
// reported, not errors: what a hole means is the caller's to say (to core,
// which only asks for what its layout placed, it is corruption).
func (s *Store) MultiGet(ctx context.Context, table string, keys []string) (*MultiGetResult, error) {
	return s.multiGet(ctx, "multiget", table, keys)
}

// multiGet is the replicated read, the only one; op names the caller's
// operation in errors.
func (s *Store) multiGet(ctx context.Context, op, table string, keys []string) (*MultiGetResult, error) {
	res := &MultiGetResult{Values: make([][]byte, len(keys))}
	if len(keys) == 0 {
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("kvstore: %s %s: %w", op, table, err)
	}

	reads, err := s.readReplicas(ctx, table, keys)
	if err != nil {
		return nil, fmt.Errorf("kvstore: %s %s: %w", op, table, err)
	}
	perNode := make(map[int][]int) // serving node → its response sizes
	for i, rd := range reads {
		v := judge(rd.obs)
		switch {
		case v.down:
			return nil, allDownErr(ctx, op, table, keys[i])
		case v.corrupt:
			return nil, fmt.Errorf("kvstore: %s %s/%s: %w: no replica holds an LWW envelope", op, table, keys[i], types.ErrCorrupt)
		case v.win < 0 || rd.obs[v.win].tomb:
			res.Missing = append(res.Missing, i)
		default:
			res.Values[i] = rd.payload[v.win]
		}
		if v.win >= 0 {
			s.repair.settle(table, keys[i], rd.obs, v, !s.repair.opts.DisableReadRepair)
		}

		// The modeled batch time (per-node serial service, client-side
		// lanes) charges the key to one serving replica — one request per
		// key, replica consultation modeled as free digest reads: the first
		// replica that answered, or the primary when none did.
		n := rd.obs[0].node
		for _, o := range rd.obs {
			if o.state != obsUnreachable {
				n = o.node
				break
			}
		}
		perNode[n] = append(perNode[n], len(res.Values[i]))
		res.BytesRead += int64(len(res.Values[i]))
	}
	res.Requests = len(keys)
	s.reqCount.Add(int64(res.Requests))
	s.bytesRead.Add(res.BytesRead)
	// The batch's modeled time, plus the client's scan of what it returned.
	s.simClock.Add(int64(s.cfg.Cost.batchElapsed(perNode) + s.cfg.Cost.scanCost(int(res.BytesRead))))
	return res, nil
}

// keyRead is what one key's replicas answered: obs[j] is replica j's
// observation (ring order) and payload[j] its value bytes when it holds a
// well-formed envelope. The payloads are private copies (engine.MultiGet's
// contract), so the winner can be returned to the caller as is.
type keyRead struct {
	obs     []observation
	payload [][]byte
}

// readReplicas issues one batched read per node covering every key the node
// replicates, in parallel, and returns each key's per-replica answers — one
// wire round trip per node instead of one per key per replica. A node whose
// batch failed as unavailable answers obsUnreachable for all its keys; the
// wire client has by then spent its own retry schedule on it, so there is
// no second one here. That observation is the only liveness signal a read
// has: multiGet charges its modeled time to the first replica that did
// not answer obsUnreachable. Hard errors abort. The read path and the anti-entropy
// loop both observe replicas through it.
func (s *Store) readReplicas(ctx context.Context, table string, keys []string) ([]keyRead, error) {
	type batch struct {
		keys    []string
		vals    [][]byte
		present []bool
		err     error
		next    int // the next answer to hand out (below)
	}
	batches := make([]*batch, len(s.nodes)) // by node id
	var nids []int                          // the nodes asked, in first-asked order
	replicasOf := make([][]int, len(keys))
	total := 0
	for i, k := range keys {
		replicasOf[i] = s.ring.replicas(k, s.cfg.ReplicationFactor)
		for _, r := range replicasOf[i] {
			b := batches[r]
			if b == nil {
				b = &batch{}
				batches[r] = b
				nids = append(nids, r)
			}
			b.keys = append(b.keys, k)
			total++
		}
	}
	// The nodes are asked at once, but a one-key read of in-process
	// engines asks them in turn (inProcess).
	fanOut(nids, len(keys) > 1 || !s.inProcess(nids), func(_, nid int) {
		b := batches[nid]
		b.vals, b.present, b.err = engine.MultiGet(ctx, s.nodes[nid].be, table, b.keys)
	})
	for _, nid := range nids {
		b := batches[nid]
		if b.err != nil && !isUnavailable(b.err) {
			return nil, fmt.Errorf("node %d: %w", nid, b.err)
		}
	}

	// Every batch lists its keys in request order, so walking the keys in
	// that order again consumes each batch front to back.
	reads := make([]keyRead, len(keys))
	obs := make([]observation, total)
	payloads := make([][]byte, total)
	for i := range keys {
		n := len(replicasOf[i])
		reads[i] = keyRead{obs: obs[:n:n], payload: payloads[:n:n]}
		obs, payloads = obs[n:], payloads[n:]
		for j, r := range replicasOf[i] {
			b := batches[r]
			var raw []byte
			present := false
			if b.err == nil {
				raw, present = b.vals[b.next], b.present[b.next]
			}
			b.next++
			reads[i].obs[j], reads[i].payload[j] = observe(r, raw, present, b.err)
		}
	}
	return reads, nil
}

// Scan visits every live key/value of a table exactly once, in unspecified
// order, skipping tombstones. Each value fn sees is its own copy, which fn
// may keep. Backend failures surface as the returned error, and fn may have
// seen keys before Scan returns one.
//
// Scan feeds recovery (core's Open), so it must not silently present a
// partial table: once enough nodes are unreachable that some key's entire
// replica set may have been unobservable (at ReplicationFactor 1, any down
// node), Scan errors instead of going on with a truncated view — an Open
// over a truncated view would re-issue version ids and overwrite
// acknowledged commits. With fewer failures the sweep is complete.
//
// The sweep visits the nodes in id order, and a key is decided from the
// replicas that hold it, as a read decides it (verdict.go): once the last of
// its replicas has answered — in that node's callback when the node reports
// the key, or at the end of the node's sweep when it does not — the key is
// judged, settled (stale or missing replicas are queued for read repair, an
// aged tombstone for collection) and handed to fn. Only a key some replica
// has reported and a later one has yet to answer is held, with a copy of
// its newest version so far; at ReplicationFactor 1 a key's one replica is
// also its last, so the sweep streams.
func (s *Store) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	rf := s.cfg.ReplicationFactor
	waiting := make([]map[string]*scanKey, len(s.nodes)) // by the id of the key's last replica
	unreachable := make([]bool, len(s.nodes))
	unavailable := 0
	var direct scanKey // a key reported by its last replica, with nothing held
	var replicas []int // the reported key's, reused from key to key
	var failed error
	stopped := false
	// hand judges a key every replica of which has answered and hands its
	// winner to fn. What a node reported before its sweep failed stands;
	// what it did not report is unknown, not absent.
	hand := func(k string, sk *scanKey) bool {
		for j, o := range sk.obs {
			if o.state == obsAbsent && unreachable[o.node] {
				sk.obs[j].state = obsUnreachable
			}
		}
		v := judge(sk.obs)
		if v.win < 0 {
			// Some replica reported the key, so none parsed.
			failed = fmt.Errorf("kvstore: scan %s/%s: %w: no replica holds an LWW envelope", table, k, types.ErrCorrupt)
			return false
		}
		s.repair.settle(table, k, sk.obs, v, !s.repair.opts.DisableReadRepair)
		if !sk.obs[v.win].tomb && !fn(k, sk.value) {
			stopped = true
		}
		return !stopped
	}
	for _, n := range s.nodes {
		err := n.be.Scan(ctx, table, func(k string, raw []byte) bool {
			replicas = s.ring.replicasInto(replicas, k, rf)
			j := slices.Index(replicas, n.id)
			if j < 0 {
				// A copy on a node the ring does not place the key on is no
				// replica's answer: reads never consult it either.
				return true
			}
			last := slices.Max(replicas)
			sk := waiting[last][k]
			switch {
			case sk != nil && last == n.id:
				delete(waiting[last], k)
			case sk == nil:
				sk = &direct
				if last != n.id {
					sk = &scanKey{}
					if waiting[last] == nil {
						waiting[last] = make(map[string]*scanKey)
					}
					waiting[last][k] = sk
				}
				// The value starts empty: each key handed gets its own copy.
				*sk = scanKey{obs: sk.obs[:0], lead: -1}
				for _, r := range replicas {
					sk.obs = append(sk.obs, observation{node: r, state: obsAbsent})
				}
			}
			var payload []byte
			sk.obs[j], payload = observe(n.id, raw, true, nil)
			if sk.obs[j].state == obsHeld && (sk.lead < 0 || newer(sk.obs[j], sk.obs[sk.lead])) {
				sk.lead = j
				sk.value = append(sk.value[:0], payload...)
			}
			return last != n.id || hand(k, sk)
		})
		if failed != nil || stopped {
			return failed
		}
		if isUnavailable(err) {
			unreachable[n.id] = true
			if unavailable++; unavailable >= rf {
				// Every key has ReplicationFactor distinct replicas, so with
				// fewer nodes down each key was observable on at least one;
				// at that threshold some key may have had no reachable
				// replica.
				return fmt.Errorf("kvstore: scan %s: %d nodes unavailable at replication factor %d: view would be incomplete: %w",
					table, unavailable, rf, engine.ErrUnavailable)
			}
		} else if err != nil {
			return fmt.Errorf("kvstore: scan %s: %w", table, err)
		}
		for k, sk := range waiting[n.id] {
			if !hand(k, sk) {
				return failed
			}
		}
		waiting[n.id] = nil
	}
	return nil
}

// scanKey is what Scan holds of a key until its last replica answers: one
// observation per replica of the key (ring order; absent until the
// replica's node reports it), and a copy of the newest version reported so
// far, obs[lead] — which is the winner judge picks once every replica has
// answered.
type scanKey struct {
	obs   []observation
	lead  int
	value []byte
}
