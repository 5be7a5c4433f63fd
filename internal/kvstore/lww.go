package kvstore

import (
	"fmt"

	"rstore/internal/types"
)

// Last-write-wins envelopes.
//
// With replication, a node that was down (or partitioned) while its peers
// accepted writes comes back *stale but present*: it happily serves an old
// value for an overwritten key, or a resurrected value for a deleted one.
// A boolean up/down flag cannot catch this — the node is genuinely up. So
// every value the cluster stores is wrapped in a small envelope carrying a
// write timestamp and a tombstone flag, and reads consult every replica
// and take the newest version (Cassandra's conflict rule; verdict.go).
// Outvoting alone leaves the losing replica wrong on disk; the repair
// subsystem (repair.go) converges the key — writes the winner to the losers —
// when a read observes them (read repair) and when a node that missed
// writes returns (hinted handoff, hints.go).
//
// Envelope layout: flag (1 byte: value|tombstone) | timestamp (8 bytes LE,
// nanoseconds) | payload. Timestamps come from a per-cluster-client hybrid
// clock (wall time, forced monotonic), so writes from a reopened client
// order after the previous client's as long as wall clocks move forward.
// Deletes are tombstone writes: a replica that missed the delete is
// outvoted by the tombstone's newer timestamp instead of resurrecting the
// value. A tombstone is garbage-collected once every replica of the key is
// seen holding it, or holding nothing; see repair.go.

const (
	envValue     = 0
	envTombstone = 1

	// EnvelopeOverhead is the per-key byte cost of the envelope; it shows
	// up in BytesStored (which reports resident backend bytes) but not in
	// BytesPut/BytesRead (which report client payload traffic).
	EnvelopeOverhead = 9
)

// nextTS returns a timestamp strictly greater than any this Store handed
// out before, tracking wall time when it moves forward.
func (s *Store) nextTS() uint64 {
	for {
		last := s.lastTS.Load()
		ts := uint64(walltime().UnixNano())
		if ts <= last {
			ts = last + 1
		}
		if s.lastTS.CompareAndSwap(last, ts) {
			return ts
		}
	}
}

// envelope wraps payload for storage.
func envelope(flag byte, ts uint64, payload []byte) []byte {
	out := make([]byte, EnvelopeOverhead+len(payload))
	out[0] = flag
	for i := 0; i < 8; i++ {
		out[1+i] = byte(ts >> (8 * i))
	}
	copy(out[EnvelopeOverhead:], payload)
	return out
}

// lwwNewer reports whether version (tsA, tombA) served by node nodeA beats
// (tsB, tombB) served by nodeB. Newest timestamp wins; a timestamp tie —
// possible when two cluster clients write through colliding wall clocks —
// resolves deterministically instead of by replica iteration order: a
// tombstone beats a value (the destructive read of a clock collision is
// the one that cannot resurrect deleted data on a lagging replica), and
// equal flags resolve to the lowest node id. Every reader picks the same
// winner, so read repair converges replicas instead of flapping.
func lwwNewer(tsA uint64, tombA bool, nodeA int, tsB uint64, tombB bool, nodeB int) bool {
	if tsA != tsB {
		return tsA > tsB
	}
	if tombA != tombB {
		return tombA
	}
	return nodeA < nodeB
}

// unenvelope splits a stored value. The payload ALIASES b: callers that
// retain it past the next operation on the backend that produced b (or
// return it across the Store's public surface) must copy it first. Today's
// call sites are audited against that rule — Get-path buffers are owned by
// the caller (engine.Backend.Get returns copies), and every Scan-path
// consumer copies before retaining, because Scan values may alias backend
// storage (the memory engine's do).
func unenvelope(b []byte) (payload []byte, ts uint64, tombstone bool, err error) {
	if len(b) < EnvelopeOverhead || b[0] > envTombstone {
		return nil, 0, false, fmt.Errorf("%w: %d-byte value is not an LWW envelope", types.ErrCorrupt, len(b))
	}
	for i := 0; i < 8; i++ {
		ts |= uint64(b[1+i]) << (8 * i)
	}
	return b[EnvelopeOverhead:], ts, b[0] == envTombstone, nil
}
