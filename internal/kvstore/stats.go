package kvstore

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rstore/internal/engine"
)

// ChargeScan adds client-side scan cost for n bytes to the virtual clock and
// returns the charged duration. The query module calls it when extracting
// records from retrieved chunks.
func (s *Store) ChargeScan(n int) time.Duration {
	d := s.cfg.Cost.scanCost(n)
	s.simClock.Add(int64(d))
	return d
}

// Stats is a snapshot of cluster counters. The repair fields are zero
// when replication repair is off (ReplicationFactor 1).
type Stats struct {
	Requests    int64
	BytesRead   int64
	BytesPut    int64
	WriteCalls  int64 // Put, BatchPut, Delete and BatchDelete calls, whatever they carried
	SimElapsed  time.Duration
	BytesStored int64 // resident across nodes (including replicas)

	// Replication repair (repair.go). Lifetime counters are per Store
	// instance (a reopened client starts at zero, though it inherits and
	// re-counts durable hints it recovers).
	RepairWrites   int64 // winning envelopes written back to losing replicas
	RepairDropped  int64 // repair tasks dropped on a full queue
	HintsQueued    int64 // writes parked for down replicas (lifetime)
	HintsReplayed  int64 // parked writes delivered to recovered replicas
	HintsPending   int64 // parked writes currently awaiting replay
	TombstonesGCed int64 // tombstones physically collected

	// Anti-entropy (antientropy.go). All zero unless the loop is enabled
	// via RepairOptions.AntiEntropyInterval.
	AESyncs        int64 // completed replica-pair sync rounds
	AERangesDiffed int64 // unequal tree buckets drilled into
	AEKeysRepaired int64 // differing keys handed to the repair writer
	AEBytesHashed  int64 // key+value bytes digested by tree sweeps

	// Storage reclaim, summed over reachable nodes whose backend supports
	// compaction (lsm, local or behind a daemon);
	// all zero on a pure memory cluster. Byte counts include record framing,
	// so DiskBytes-LiveBytes is exactly what a full compaction would reclaim.
	DiskBytes      int64   // total log/segment/sstable bytes on disk
	LiveBytes      int64   // portion of DiskBytes still referenced by live keys
	CompactedBytes int64   // cumulative bytes reclaimed by compaction
	LiveRatio      float64 // LiveBytes/DiskBytes; 1 when nothing is on disk

	// Failure detector (remote clusters only; see remote.BreakerStats).
	// Counters are summed over the cluster's wire clients.
	BreakerOpen      int   // nodes currently in probation (breaker open)
	BreakerTrips     int64 // closed→open transitions across all nodes
	BreakerProbes    int64 // background reachability probes issued
	BreakerFastFails int64 // operations rejected without touching the network
}

// Stats returns a snapshot of the counters; ctx bounds the per-node
// storage probes (on a remote cluster each probe is a network round
// trip with retries). Down or unreachable nodes contribute zero to
// BytesStored — their storage cannot be observed.
func (s *Store) Stats(ctx context.Context) Stats {
	st := Stats{
		Requests:   s.reqCount.Load(),
		BytesRead:  s.bytesRead.Load(),
		BytesPut:   s.bytesPut.Load(),
		WriteCalls: s.writeCalls.Load(),
		SimElapsed: time.Duration(s.simClock.Load()),
	}
	if r := s.repair; r != nil {
		st.RepairWrites = r.repairWrites.Load()
		st.RepairDropped = r.repairDropped.Load()
		st.HintsQueued = r.hintsQueued.Load()
		st.HintsReplayed = r.hintsReplayed.Load()
		st.HintsPending = r.hintsPending.Load()
		st.TombstonesGCed = r.tombstonesGC.Load()
	}
	if a := s.ae; a != nil {
		st.AESyncs = a.syncs.Load()
		st.AERangesDiffed = a.rangesDiffed.Load()
		st.AEKeysRepaired = a.keysRepaired.Load()
		st.AEBytesHashed = a.bytesHashed.Load()
	}
	for _, n := range s.nodes {
		if n.rc != nil {
			bs := n.rc.BreakerStats()
			if bs.Open {
				st.BreakerOpen++
			}
			st.BreakerTrips += bs.Trips
			st.BreakerProbes += bs.Probes
			st.BreakerFastFails += bs.FastFails
		}
		if b, err := n.stored(ctx); err == nil {
			st.BytesStored += b
		}
		// Unsupported or unreachable nodes contribute zero, mirroring the
		// BytesStored probes.
		if cs, err := n.compactStats(ctx); err == nil {
			st.DiskBytes += cs.DiskBytes
			st.LiveBytes += cs.LiveBytes
			st.CompactedBytes += cs.CompactedBytes
		}
	}
	st.LiveRatio = 1
	if st.DiskBytes > 0 {
		st.LiveRatio = float64(st.LiveBytes) / float64(st.DiskBytes)
	}
	return st
}

// Compact asks every node whose backend supports compaction
// (engine.Compactor) to reclaim dead storage, and reports the bytes
// reclaimed across the cluster by this call. Nodes without compaction
// support are skipped; down or unreachable nodes are skipped too — like
// Stats, storage that cannot be observed cannot be compacted, and the node
// can be compacted again once it returns. Hard backend errors are
// aggregated per node.
func (s *Store) Compact(ctx context.Context) (reclaimed int64, err error) {
	var errs []error
	for _, n := range s.nodes {
		before, err := n.compactStats(ctx)
		if errors.Is(err, engine.ErrNoCompaction) || isUnavailable(err) {
			continue
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("kvstore: compact node %d: %w", n.id, err))
			continue
		}
		after, err := n.compact(ctx)
		if err != nil {
			if !isUnavailable(err) {
				errs = append(errs, fmt.Errorf("kvstore: compact node %d: %w", n.id, err))
			}
			continue
		}
		reclaimed += after.CompactedBytes - before.CompactedBytes
	}
	return reclaimed, errors.Join(errs...)
}

// Reset wipes every node's backend empty (engine.Resetter) so benchmarks
// and end-to-end tests can reuse a running cluster — and, on a remote
// cluster, its daemons — between phases instead of reopening everything.
// The caller must quiesce concurrent writers first: a write racing the
// wipe may land on either side of it. Nodes whose backend does not
// implement Resetter surface engine.ErrNoReset, and any per-node failure
// (including unavailability) is an error — a half-wiped cluster would
// resurrect old data through replication repair — with failures
// aggregated per node. In-memory repair bookkeeping (parked-hint indexes,
// tombstone waits) is dropped alongside the data it describes, and remote
// geometry pins, wiped with everything else, are re-pinned before
// returning.
func (s *Store) Reset(ctx context.Context) error {
	var errs []error
	for _, n := range s.nodes {
		if err := n.reset(ctx); err != nil {
			errs = append(errs, fmt.Errorf("kvstore: reset node %d: %w", n.id, err))
		}
	}
	if s.repair != nil {
		s.repair.resetState()
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return s.pinRemoteGeometry(ctx)
}

// ResetClock zeroes the virtual clock and counters (between experiment
// phases).
func (s *Store) ResetClock() {
	s.simClock.Store(0)
	s.reqCount.Store(0)
	s.bytesRead.Store(0)
	s.bytesPut.Store(0)
	s.writeCalls.Store(0)
}

// SetNodeUp marks a node up or down, for failure-injection tests. Remote
// nodes refuse: their availability is a property of the real process, not
// a flag (stop the daemon instead). Reviving a node nudges the hint drain
// loop so parked writes replay promptly.
func (s *Store) SetNodeUp(id int, up bool) error {
	if id < 0 || id >= len(s.nodes) {
		return fmt.Errorf("kvstore: no node %d", id)
	}
	err := s.nodes[id].setUp(up)
	if err == nil && up && s.repair != nil {
		s.repair.kickDrain()
	}
	return err
}

// NodeBytes returns resident bytes per node, for balance checks; ctx
// bounds the probes. Down or unreachable nodes report zero.
func (s *Store) NodeBytes(ctx context.Context) []int64 {
	out := make([]int64, len(s.nodes))
	for i, n := range s.nodes {
		if b, err := n.stored(ctx); err == nil {
			out[i] = b
		}
	}
	return out
}
