package kvstore

import (
	"context"
	"errors"
	"slices"
	"sync"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
)

// node is a single storage server of the cluster: a plain engine.Backend —
// an in-process engine, or the wire client of a remote daemon, which is a
// Backend like any other. The Store's replication and routing logic cannot
// tell a simulated node from a real one: a node being "down" is one error
// class (engine.ErrUnavailable), whether a memory backend simulates the
// outage (memory.Backend.SetDown) or a connection is refused. Isolation
// guarantees (callers never alias node state) are the backend's contract;
// see engine.Backend. Optional seams the backend lacks answer per the
// engine package's absent-seam rule (engine.HashTree and friends).
type node struct {
	id int
	be engine.Backend
	// rc is be again, as its concrete type, for the nodes kvstore dialed
	// itself (EngineRemote without Config.NewBackend), and nil otherwise.
	// It is the one fact the remote-cluster behaviours key on: an erroring
	// storage probe and the breaker's recovery listener that kicks the hint
	// drain.
	rc *remote.Client
	// pinMu guards pin and pinning.
	pinMu sync.Mutex
	// pin is the cluster pin Open found missing on this node, to be written
	// before the first write kvstore sends it (pinFirst); nil once written,
	// and for a node that needs none.
	pin []byte
	// pinning is closed when the pin's write in flight returns; nil while
	// none is.
	pinning chan struct{}
}

// pinFirst writes the node's due cluster pin, if it has one: every write
// kvstore sends a node — a batchWrite group, a repair's converging Put —
// calls it first, so a node holds its pin before it holds any data. The pin
// is sent once: a concurrent first write waits for the one in flight (or
// for its ctx), and if that fails, the next write sends the pin again.
func (n *node) pinFirst(ctx context.Context) error {
	for {
		n.pinMu.Lock()
		env, inFlight := n.pin, n.pinning
		if env != nil && inFlight == nil {
			done := make(chan struct{})
			n.pinning = done
			n.pinMu.Unlock()
			err := n.be.Put(ctx, clusterTable, nodeIDKey, env)
			n.pinMu.Lock()
			if err == nil {
				n.pin = nil
			}
			n.pinning = nil
			n.pinMu.Unlock()
			close(done)
			return err
		}
		n.pinMu.Unlock()
		if env == nil {
			return nil
		}
		select {
		case <-inFlight: // written, or failed and up for the taking
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// isUnavailable classifies an error as transient node unavailability:
// routed around by replication rather than surfaced, in contrast to hard
// engine errors (corruption, I/O failure), which abort the operation.
func isUnavailable(err error) bool { return errors.Is(err, engine.ErrUnavailable) }

// stored reports the node's resident bytes. A dialed node asks its daemon
// and errors (unavailable) instead of lying about storage it cannot see;
// an in-process backend reports what it can observe (0 while a memory
// backend is down).
func (n *node) stored(ctx context.Context) (int64, error) {
	if n.rc != nil {
		return n.rc.Stored(ctx)
	}
	return n.be.BytesStored(), nil
}

// inProcess reports whether every node named is an in-process engine
// (memory, lsm): its calls return sooner than a goroutine starts and wakes
// its caller, where any other backend — a daemon's wire client, or a
// wrapper a NewBackend factory returns — may wait on a network.
func (s *Store) inProcess(nodes []int) bool {
	return !slices.ContainsFunc(nodes, func(nid int) bool {
		switch s.nodes[nid].be.(type) {
		case *memory.Backend, *lsm.Backend:
			return false
		}
		return true
	})
}

// fanOut runs op(i, nodes[i]) for every node: at once when overlap is set,
// the first on the calling goroutine, and otherwise one after another.
func fanOut(nodes []int, overlap bool, op func(i, nid int)) {
	if !overlap || len(nodes) < 2 {
		for i, nid := range nodes {
			op(i, nid)
		}
		return
	}
	var wg sync.WaitGroup
	for i, nid := range nodes[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op(i+1, nid)
		}()
	}
	op(0, nodes[0])
	wg.Wait()
}
