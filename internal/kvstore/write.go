package kvstore

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"rstore/internal/engine"
)

// Entry is one key/value pair of a batched write.
type Entry = engine.Entry

// Put stores value under (table, key) on all replicas: a one-entry BatchPut,
// so it is routed around down replicas, hinted, accounted and — on durable
// engines — fsynced exactly as a batch is.
func (s *Store) Put(ctx context.Context, table, key string, value []byte) error {
	return s.batchWrite(ctx, "put", table, envValue, []Entry{{Key: key, Value: value}})
}

// Delete removes (table, key) from all replicas: a one-key BatchDelete, with
// all that says about tombstones, lagging replicas and collection.
func (s *Store) Delete(ctx context.Context, table, key string) error {
	return s.batchWrite(ctx, "delete", table, envTombstone, []Entry{{Key: key}})
}

// BatchPut stores many values in one table, grouping the writes per replica
// node and committing each group through the node's backend in a single
// call — one durability sync per node per batch instead of one per key.
// It fails only if some entry has no live replica or a backend errors.
// Like every write, it leaves the modeled clock (Stats.SimElapsed) alone.
func (s *Store) BatchPut(ctx context.Context, table string, entries []Entry) error {
	return s.batchWrite(ctx, "batchput", table, envValue, entries)
}

// BatchDelete removes many keys of one table as BatchPut stores them: one
// tombstone per key, grouped per replica node, each group one backend batch.
// A replica that misses the delete (down at the time) is outvoted by the
// tombstone's newer timestamp when it comes back, instead of resurrecting the
// value — and receives the tombstone by hint replay.
// Once every replica is seen holding a tombstone (now, or later through
// hints, reads, Scans and anti-entropy), it is physically collected
// (repair.go). Deleting a missing key is not an error, but — matching
// BatchPut — deleting a key while its every replica is down is: the
// tombstone took hold nowhere.
func (s *Store) BatchDelete(ctx context.Context, table string, keys []string) error {
	entries := make([]Entry, len(keys))
	for i, key := range keys {
		entries[i].Key = key
	}
	return s.batchWrite(ctx, "batchdelete", table, envTombstone, entries)
}

// batchWrite is the replicated write, the only one: Put and BatchPut (flag
// envValue), Delete and BatchDelete (envTombstone, the entries' values nil).
// One envelope per entry under one timestamp, written to every replica in
// per-node groups through the engine's fsynced BatchPut; a replica that is
// down is routed around and hinted.
func (s *Store) batchWrite(ctx context.Context, op, table string, flag byte, entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	s.writeCalls.Add(1)
	perNode := make([][]int, len(s.nodes)) // node → indexes of the entries it replicates
	replicasOf := make([][]int, len(entries))
	for i, e := range entries {
		replicasOf[i] = s.ring.replicas(e.Key, s.cfg.ReplicationFactor)
		for _, n := range replicasOf[i] {
			perNode[n] = append(perNode[n], i)
		}
	}
	// One envelope per entry (one timestamp per batch), shared across the
	// replica groups.
	ts := s.nextTS()
	envs := make([][]byte, len(entries))
	for i, e := range entries {
		envs[i] = envelope(flag, ts, e.Value)
	}
	// The per-node groups issue concurrently (bounded by the node count:
	// one goroutine per group), so a dead node's dial-retry latency does
	// not serialize in front of the live groups. nodeErr[n] stays nil for a
	// node that took its group (or had none), and holds the unavailability
	// of one that did not: it is routed around, its entries survive on their
	// other replicas. Hard errors are reported in node order for determinism.
	nodeErr := make([]error, len(s.nodes))
	done := s.repair.placing(table, entries)
	var wg sync.WaitGroup
	for nid, idxs := range perNode {
		if len(idxs) == 0 {
			continue
		}
		group := make([]engine.Entry, len(idxs))
		for k, i := range idxs {
			group[k] = engine.Entry{Key: entries[i].Key, Value: envs[i]}
		}
		wg.Add(1)
		go func(nid int, group []engine.Entry) {
			defer wg.Done()
			n := s.nodes[nid]
			if nodeErr[nid] = n.pinFirst(ctx); nodeErr[nid] == nil {
				nodeErr[nid] = n.be.BatchPut(ctx, table, group)
			}
		}(nid, group)
	}
	wg.Wait()
	done()
	anyMissed := false
	for nid, err := range nodeErr {
		if err != nil && !isUnavailable(err) {
			return fmt.Errorf("kvstore: %s %s: node %d: %w", op, table, nid, err)
		}
		anyMissed = anyMissed || err != nil
	}
	// committed[i] = acking node earliest in entry i's replica order, or -1.
	// The replica order makes the park choice deterministic regardless of
	// which group finished first.
	committed := make([]int, len(entries))
	var bytes int64
	for i, e := range entries {
		committed[i] = -1
		for _, n := range replicasOf[i] {
			if nodeErr[n] == nil {
				committed[i] = n
				break
			}
		}
		if committed[i] < 0 {
			return allDownErr(ctx, op, table, e.Key)
		}
		bytes += int64(len(e.Value))
	}
	if flag == envTombstone {
		// A tombstone every replica took is seen on all of them now, and
		// collected; one some replica missed waits for the hint replay, or
		// the observation, that finds them all holding it.
		for i, e := range entries {
			if !slices.ContainsFunc(replicasOf[i], func(n int) bool { return nodeErr[n] != nil }) {
				s.repair.enqueue(repairTask{table: table, key: e.Key, fresh: true})
			}
		}
	}
	if anyMissed {
		// Park the missed writes, batched per parking node (the first
		// replica that acknowledged each entry, so it holds the write a
		// replay copies) so the hint log costs one durable batch per park,
		// not one per key.
		perPark := make(map[int][]hintSpec)
		for nid, idxs := range perNode {
			if nodeErr[nid] == nil {
				continue
			}
			for _, i := range idxs {
				park := committed[i]
				perPark[park] = append(perPark[park], hintSpec{target: nid, table: table, key: entries[i].Key})
			}
		}
		for park, specs := range perPark {
			s.repair.addHints(ctx, park, specs)
		}
	}

	s.bytesPut.Add(bytes)
	s.reqCount.Add(int64(len(entries)))
	return nil
}

// allDownErr is the failure of an operation on a key none of whose replicas
// answered: engine.ErrUnavailable, like one node's. When the caller's context
// ended, the context's error is the real cause (every replica attempt died
// on it) and is kept matchable in the chain.
func allDownErr(ctx context.Context, op, table, key string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("kvstore: %s %s/%s: all replicas down: %w: %w", op, table, key, engine.ErrUnavailable, err)
	}
	return fmt.Errorf("kvstore: %s %s/%s: all replicas down: %w", op, table, key, engine.ErrUnavailable)
}
