package kvstore

import (
	"context"
	"time"

	"rstore/internal/engine"
)

// Stats is a snapshot of cluster counters. At ReplicationFactor 1 the
// repair fields other than TombstonesGCed stay zero.
type Stats struct {
	Requests    int64
	BytesRead   int64
	BytesPut    int64
	WriteCalls  int64         // Put, BatchPut, Delete and BatchDelete calls, whatever they carried
	SimElapsed  time.Duration // every read's modeled time under Config.Cost: the figure drivers' stopwatch
	BytesStored int64         // resident across nodes (including replicas)

	// Replication repair (repair.go). Lifetime counters are per Store
	// instance (a reopened client starts at zero, though it inherits and
	// re-counts durable hints it recovers).
	RepairWrites   int64 // envelopes copied to losing replicas (any repair path)
	HintsQueued    int64 // writes parked for down replicas (lifetime)
	HintsReplayed  int64 // parked writes delivered to recovered replicas
	HintsPending   int64 // parked writes currently awaiting replay
	TombstonesGCed int64 // tombstones physically collected

	// Anti-entropy (antientropy.go). All zero unless the loop is enabled
	// via Config.AntiEntropyInterval.
	AESyncs        int64 // completed replica-pair sync rounds
	AERangesDiffed int64 // unequal tree buckets drilled into
	AEKeysRepaired int64 // differing keys queued for repair
	AEBytesHashed  int64 // key+value bytes digested by tree sweeps

	// Storage reclaim, summed over reachable nodes whose backend reports it
	// (lsm, local or behind a daemon, which reclaims its dead bytes itself);
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
	r := s.repair
	st.RepairWrites = r.repairWrites.Load()
	st.HintsQueued = r.hintsQueued.Load()
	st.HintsReplayed = r.hintsReplayed.Load()
	st.HintsPending = r.hintsPending.Load()
	st.TombstonesGCed = r.tombstonesGC.Load()
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
		if cs, err := engine.ReadCompactionStats(ctx, n.be); err == nil {
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
