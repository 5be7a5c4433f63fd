package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"rstore/internal/engine"
	"rstore/internal/engine/remote"
)

// node is a single storage server of the cluster: an engine.Backend — an
// in-process engine, or the wire client of a remote daemon, which is a
// Backend like any other — behind the failure-injection flag. The Store's
// replication and routing logic cannot tell a simulated node from a real
// one: a node being "down" is one error class (engine.ErrUnavailable)
// whether it comes from the injected flag or a refused connection.
// Isolation guarantees (callers never alias node state) are the backend's
// contract; see engine.Backend. Optional seams the backend lacks answer
// per the engine package's absent-seam rule (engine.MultiGet and friends).
type node struct {
	id int
	be engine.Backend
	// rc is be again, as its concrete type, for the nodes kvstore dialed
	// itself (EngineRemote without Config.NewBackend), and nil otherwise.
	// It is the one fact the remote-cluster behaviours key on: breaker
	// state as the liveness hint, an erroring storage probe, geometry
	// pins on the daemons, no fault injection.
	rc *remote.Client
	// down is the failure-injection flag (SetNodeUp), checked in live().
	down atomic.Bool
}

// errNodeDown reports an operation against a node marked down by failure
// injection. It is one cause of unavailability — wire clients produce
// others (connection refused, node process gone) — and the Store routes
// around all of them uniformly via isUnavailable.
var errNodeDown = fmt.Errorf("kvstore: node down (injected): %w", engine.ErrUnavailable)

// isUnavailable classifies an error as transient node unavailability:
// routed around by replication rather than surfaced, in contrast to hard
// engine errors (corruption, I/O failure), which abort the operation.
func isUnavailable(err error) bool { return errors.Is(err, engine.ErrUnavailable) }

// live is the choke point every node operation passes: an injected-down
// node's backend is never touched — with a real dead backend the call
// could block or fault.
func (n *node) live() (engine.Backend, error) {
	if n.down.Load() {
		return nil, errNodeDown
	}
	return n.be, nil
}

func (n *node) put(ctx context.Context, table, key string, value []byte) error {
	be, err := n.live()
	if err != nil {
		return err
	}
	return be.Put(ctx, table, key, value)
}

func (n *node) batchPut(ctx context.Context, table string, entries []engine.Entry) error {
	be, err := n.live()
	if err != nil {
		return err
	}
	return be.BatchPut(ctx, table, entries)
}

func (n *node) get(ctx context.Context, table, key string) ([]byte, bool, error) {
	be, err := n.live()
	if err != nil {
		return nil, false, err
	}
	return be.Get(ctx, table, key)
}

// multiGet reads many keys in one backend call (a single wire round trip
// on remote nodes); values and presence flags come back in request order,
// all-or-nothing.
func (n *node) multiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	be, err := n.live()
	if err != nil {
		return nil, nil, err
	}
	return engine.MultiGet(ctx, be, table, keys)
}

// del physically removes (table, key) from this node's backend. Only the
// repair subsystem calls it (tombstone GC, hint cleanup); the replication
// layer's Delete writes tombstones instead.
func (n *node) del(ctx context.Context, table, key string) error {
	be, err := n.live()
	if err != nil {
		return err
	}
	return be.Delete(ctx, table, key)
}

// scan visits every key/value of a table. Values passed to fn may alias
// backend storage; fn must not retain or mutate them.
func (n *node) scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	be, err := n.live()
	if err != nil {
		return err
	}
	return be.Scan(ctx, table, fn)
}

func (n *node) tables(ctx context.Context) ([]string, error) {
	be, err := n.live()
	if err != nil {
		return nil, err
	}
	return be.Tables(ctx)
}

// stored reports the node's resident bytes; a down or unreachable node
// errors (unavailable) instead of lying about storage it cannot see.
func (n *node) stored(ctx context.Context) (int64, error) {
	be, err := n.live()
	if err != nil {
		return 0, err
	}
	if n.rc != nil {
		return n.rc.Stored(ctx)
	}
	return be.BytesStored(), nil
}

// compactStats reads the reclaim state of the node's backend.
func (n *node) compactStats(ctx context.Context) (engine.CompactionStats, error) {
	be, err := n.live()
	if err != nil {
		return engine.CompactionStats{}, err
	}
	return engine.ReadCompactionStats(ctx, be)
}

// reset wipes the node's backend empty.
func (n *node) reset(ctx context.Context) error {
	be, err := n.live()
	if err != nil {
		return err
	}
	return engine.Reset(ctx, be)
}

// hashTree and hashRange serve the anti-entropy digest exchange.
func (n *node) hashTree(ctx context.Context, table string, fanout int) (engine.TreeDigest, error) {
	be, err := n.live()
	if err != nil {
		return engine.TreeDigest{}, err
	}
	return engine.HashTree(ctx, be, table, fanout)
}

func (n *node) hashRange(ctx context.Context, table string, fanout, bucket int) ([]engine.KeyHash, error) {
	be, err := n.live()
	if err != nil {
		return nil, err
	}
	return engine.HashRange(ctx, be, table, fanout, bucket)
}

// isUp is a cheap best-effort liveness hint used to pick the replica a read
// is charged to and the pairs anti-entropy syncs: the injection flag, and on
// dialed nodes the wire client's failure detector (a node in probation is
// reported down). The authoritative signal is an ErrUnavailable result — a
// read asks every replica whatever the hint says.
func (n *node) isUp() bool {
	return !n.down.Load() && (n.rc == nil || !n.rc.BreakerOpen())
}

// setUp forces the node down/up for failure-injection tests. Dialed nodes
// refuse: their liveness is discovered per operation, so injecting a
// failure means killing the real process.
func (n *node) setUp(up bool) error {
	if n.rc != nil {
		return fmt.Errorf("kvstore: failure injection is not supported for remote node %s (stop the daemon instead)", n.rc.Addr())
	}
	n.down.Store(!up)
	return nil
}
