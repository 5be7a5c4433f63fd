// Package remote implements engine.Backend as a client of a storage node
// served by internal/engine/remote/engined: every operation is a framed,
// checksummed request over TCP (see internal/engine/remote/wire). This is
// the seam that turns the in-process cluster simulator into a deployable
// system — the layers above see the same Backend contract whether the node
// is a map in this process or an lsm daemon on another machine.
//
// Connections are pooled and re-dialed on demand, so a node that restarts
// is picked up transparently. Transport-level failures (dial errors, a
// connection dying mid-request) are retried with exponential backoff and,
// if they persist, surface wrapped in engine.ErrUnavailable so the cluster
// layer can route around the node; errors the node itself returned are
// passed through as hard errors. Retrying a possibly-applied write is safe
// because every Backend operation is idempotent (puts overwrite, deletes
// tolerate missing keys).
//
// A failure detector watches those unavailability verdicts: after
// Options.BreakerThreshold consecutive verdicts the node enters probation —
// operations fail fast (still wrapped in engine.ErrUnavailable) while a
// single background prober pings with exponential backoff, so a dead node
// costs one dial per probe interval instead of a dial-retry schedule per
// request. A successful probe closes the breaker and notifies the state
// listener (see breaker.go).
//
// Every operation honors its context end to end: a dial (Client.dial)
// gives up when it ends, retry backoff sleeps are interruptible, and a
// context that ends mid-exchange slams the connection deadline so even a
// blocked read (including between streamed Scan frames) returns promptly.
// A context-terminated operation surfaces wrapped in engine.ErrUnavailable
// with the context's error preserved in the chain, so callers can match
// both errors.Is(err, engine.ErrUnavailable) and errors.Is(err,
// context.DeadlineExceeded) / context.Canceled.
package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/remote/wire"
	"rstore/internal/types"
)

// Options tunes a client. The zero value gives defaults.
type Options struct {
	// PoolSize is the number of idle connections kept for reuse; more may
	// be open at once under concurrency. Default 4.
	PoolSize int
	// DialTimeout bounds one connection attempt (a context deadline may
	// shorten it further). Default 2s.
	DialTimeout time.Duration
	// Attempts is how many times an operation is tried before reporting
	// the node unavailable; each attempt uses a fresh connection when the
	// previous one failed. Default 3.
	Attempts int
	// Backoff is the delay before the second attempt; it doubles per
	// further attempt. Default 25ms.
	Backoff time.Duration
	// IOTimeout bounds each request/response exchange (refreshed per
	// streamed Scan frame; a context deadline may shorten it further).
	// Default 30s.
	IOTimeout time.Duration
	// BreakerThreshold is how many consecutive unavailability verdicts trip
	// the circuit breaker (see breaker.go): once tripped, operations fail
	// fast while a background prober watches for recovery. Default 3 — one
	// flaky exchange must not put a healthy node in probation.
	BreakerThreshold int
	// ProbeInterval is the delay before the breaker's first recovery probe;
	// it doubles per failed probe up to ProbeMaxBackoff. Default 100ms.
	ProbeInterval time.Duration
	// ProbeMaxBackoff caps the probe backoff — the longest a recovered node
	// waits before the breaker notices. Default 5s.
	ProbeMaxBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.Attempts <= 0 {
		o.Attempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 25 * time.Millisecond
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 30 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 100 * time.Millisecond
	}
	if o.ProbeMaxBackoff <= 0 {
		o.ProbeMaxBackoff = 5 * time.Second
	}
	return o
}

// Client is an engine.Backend served by a remote storage node.
type Client struct {
	addr string
	opts Options
	br   *breaker // failure detector (see breaker.go)

	mu     sync.Mutex
	idle   []*conn
	closed bool
}

var (
	_ engine.Backend    = (*Client)(nil)
	_ engine.Compactor  = (*Client)(nil)
	_ engine.HashRanger = (*Client)(nil)
)

// conn is one pooled connection with its buffered reader, its request
// writer, and its reusable receive buffer (trimmed after every exchange:
// engine.TrimScratch).
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	rw  wire.RequestWriter
	buf []byte
}

// Dial creates a client for the node at addr (host:port). Connecting is
// lazy — a node that is down at Dial time is simply unavailable until it
// comes up — so only the address syntax is validated here.
func Dial(addr string, opts Options) (*Client, error) {
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return nil, fmt.Errorf("remote: bad node address %q: %w", addr, err)
	}
	c := &Client{addr: addr, opts: opts.withDefaults()}
	c.br = newBreaker(c)
	return c, nil
}

// Addr returns the node address this client speaks to.
func (c *Client) Addr() string { return c.addr }

// unavailable wraps a transport-level failure for route-around handling.
// err stays in the chain (%w) so context errors remain matchable.
func (c *Client) unavailable(err error) error {
	return fmt.Errorf("remote %s: %w: %w", c.addr, engine.ErrUnavailable, err)
}

// checkout returns a pooled connection or dials a new one under ctx.
func (c *Client) checkout(ctx context.Context) (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, types.ErrClosed
	}
	if n := len(c.idle); n > 0 {
		cn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()
	return c.dial(ctx)
}

// dial opens a new connection to the node under ctx, the one way the
// client reaches it: operations through checkout, the breaker's probe
// directly.
func (c *Client) dial(ctx context.Context) (*conn, error) {
	d := net.Dialer{Timeout: c.opts.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		// A failed dial is a transport verdict like any other: classify it
		// so do()'s retry loop and the breaker see ErrUnavailable (a
		// ctx cancellation stays matchable through the chain).
		return nil, transportErr(err)
	}
	return &conn{nc: nc, br: bufio.NewReader(nc)}, nil
}

// release returns a healthy connection to the pool (or closes it when the
// pool is full or the client closed).
func (c *Client) release(cn *conn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.opts.PoolSize {
		c.idle = append(c.idle, cn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cn.nc.Close()
}

// exchange sends r, its values uncopied (wire.RequestWriter), and hands each
// reply to handle until it reports that no more are due (only Scan streams
// more than one).
// A reply that does not decode did not survive the transport; a reply that
// is the node's own error ends the exchange as that hard error. The returned
// abandon reports that the connection must not be pooled even though the
// operation did not fail (early-stopped Scan). Context ends are enforced two
// ways: the per-frame deadline is the earlier of iot and the context
// deadline, and a cancellation mid-read slams the connection deadline so the
// blocked read returns immediately.
func (cn *conn) exchange(ctx context.Context, iot time.Duration, r wire.Request, handle func(wire.Reply) (more, abandon bool)) (abandon bool, err error) {
	// One large response must not pin its size for the life of the pooled
	// connection.
	defer func() { cn.buf = engine.TrimScratch(cn.buf) }()
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { cn.nc.SetDeadline(time.Now()) })
		defer func() {
			if !stop() {
				// The slam callback already started (cancellation raced a
				// successful finish): the deadline may be set to the past
				// at any moment, so this connection must not be pooled —
				// the next operation to reuse it would fail spuriously.
				abandon = true
			}
		}()
	}
	frameDeadline := func() time.Time {
		d := time.Now().Add(iot)
		if cd, ok := ctx.Deadline(); ok && cd.Before(d) {
			d = cd
		}
		return d
	}
	cn.nc.SetDeadline(frameDeadline())
	if err := cn.rw.Write(cn.nc, r); err != nil {
		return false, transportErr(err)
	}
	for {
		payload, err := wire.ReadFrame(cn.br, cn.buf)
		if err != nil {
			return false, transportErr(err)
		}
		if cap(payload) > cap(cn.buf) {
			cn.buf = payload[:0]
		}
		rep, err := wire.ParseReply(r, payload)
		if err != nil {
			return false, transportErr(err)
		}
		if rep.Err != nil {
			return false, rep.Err
		}
		more, abandon := handle(rep)
		if !more {
			return abandon, nil
		}
		// Between streamed frames the context is checked explicitly: frames
		// already sitting in the receive buffer would otherwise keep a
		// cancelled stream flowing (buffered reads never consult the
		// connection deadline).
		if err := ctx.Err(); err != nil {
			return false, transportErr(err)
		}
		cn.nc.SetDeadline(frameDeadline()) // streaming: refresh per frame
	}
}

// transportError marks failures that warrant a retry on a fresh connection.
type transportError struct{ err error }

func (e transportError) Error() string { return e.err.Error() }
func (e transportError) Unwrap() error { return e.err }

func transportErr(err error) error { return transportError{err} }

// do runs one operation with pooling, retry, and backoff: transport-level
// failures are retried on a fresh connection (idempotent operations make
// this safe) until attempts run out, then surface as unavailable; the node's
// own errors are hard and abort immediately. A context that ends — before
// the first dial, during a dial, mid-exchange, or while backing off — stops
// the operation at once and surfaces the context's error wrapped in
// engine.ErrUnavailable. A non-nil canRetry vetoes retries for operations
// whose effects already partially reached the caller (a Scan that delivered
// entries). Each attempt writes r anew on the connection it takes, the same
// bytes, and none copies r's values into a frame.
func (c *Client) do(ctx context.Context, r wire.Request, canRetry func() bool, handle func(wire.Reply) (more, abandon bool)) error {
	if n := wire.RequestLen(r); n > wire.MaxFrame {
		// A request no frame can carry is a hard caller error, not node
		// unavailability — retrying cannot help.
		return fmt.Errorf("remote %s: request of %d bytes exceeds the %d-byte frame limit", c.addr, n, wire.MaxFrame)
	}
	if c.br.fastFail() {
		// Probation: the failure detector already judged the node down, so
		// fail without a dial. The background prober (breaker.go) is the one
		// paying for reachability checks now.
		return c.unavailable(errProbation)
	}
	var lastErr error
	for attempt := 0; attempt < c.opts.Attempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(c.opts.Backoff << (attempt - 1))
			select {
			case <-ctx.Done():
				t.Stop()
				return c.unavailable(ctx.Err())
			case <-t.C:
			}
		}
		if err := ctx.Err(); err != nil {
			return c.unavailable(err)
		}
		cn, err := c.checkout(ctx)
		if err != nil {
			if errors.Is(err, types.ErrClosed) {
				return err
			}
			if cerr := ctx.Err(); cerr != nil {
				return c.unavailable(cerr)
			}
			lastErr = err // dial failure: transient by definition
			continue
		}
		abandon, err := cn.exchange(ctx, c.opts.IOTimeout, r, handle)
		if err == nil {
			c.br.recordSuccess()
			if abandon {
				cn.nc.Close()
			} else {
				c.release(cn)
			}
			return nil
		}
		cn.nc.Close()
		te, transient := err.(transportError)
		if !transient {
			// The node answered (with an error): reachable, so the failure
			// detector's consecutive count resets.
			c.br.recordSuccess()
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			// The transport failure is (or is indistinguishable from) our
			// own deadline slam; the context's end is the real cause.
			return c.unavailable(cerr)
		}
		lastErr = te.err
		// Pooled siblings of a broken connection usually broke with it
		// (node restart): drop them so retries dial fresh.
		c.flushIdle()
		if canRetry != nil && !canRetry() {
			break
		}
	}
	// An exhausted retry schedule with a live context is one unavailability
	// verdict for the failure detector. Context-terminated operations never
	// reach here (they return above) — a caller giving up proves nothing
	// about the node.
	c.br.recordFailure()
	return c.unavailable(lastErr)
}

// call runs an operation that is answered by one reply and returns it (empty
// on failure).
func (c *Client) call(ctx context.Context, r wire.Request) (wire.Reply, error) {
	var rep wire.Reply
	err := c.do(ctx, r, nil, func(got wire.Reply) (more, abandon bool) {
		rep = got
		return false, false
	})
	return rep, err
}

// flushIdle discards all pooled connections.
func (c *Client) flushIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cn := range idle {
		cn.nc.Close()
	}
}

// Put stores value under (table, key) on the node.
func (c *Client) Put(ctx context.Context, table, key string, value []byte) error {
	_, err := c.call(ctx, wire.Request{Op: wire.OpPut, Table: table, Key: key, Value: value})
	return err
}

// Get returns the value under (table, key).
func (c *Client) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	rep, err := c.call(ctx, wire.Request{Op: wire.OpGet, Table: table, Key: key})
	return rep.Value, rep.Found, err
}

// MultiGet reads many keys of one table in a single wire round trip:
// values and presence flags come back in request order. The whole batch
// shares one retry schedule, so a dead node costs one operation's worth of
// attempts regardless of batch size.
func (c *Client) MultiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	rep, err := c.call(ctx, wire.Request{Op: wire.OpMultiGet, Table: table, Keys: keys})
	return rep.Values, rep.Present, err
}

// Delete removes (table, key); deleting a missing key is a no-op.
func (c *Client) Delete(ctx context.Context, table, key string) error {
	_, err := c.call(ctx, wire.Request{Op: wire.OpDelete, Table: table, Key: key})
	return err
}

// BatchPut applies all entries to one table with the node's batch
// durability (one fsync per batch on a durable node).
func (c *Client) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	_, err := c.call(ctx, wire.Request{Op: wire.OpBatchPut, Table: table, Entries: entries})
	return err
}

// Scan streams every key/value of a table from the node. Values passed to
// fn alias the receive buffer (the engine.Backend Scan contract). Once
// entries have been delivered a broken stream is not retried — the caller
// would see duplicates — and surfaces as unavailable. Cancelling ctx
// mid-stream abandons the connection; the node notices the severed peer on
// its next frame write and stops scanning.
func (c *Client) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	delivered := false
	return c.do(ctx, wire.Request{Op: wire.OpScan, Table: table}, func() bool { return !delivered }, func(rep wire.Reply) (more, abandon bool) {
		if !rep.More {
			return false, false
		}
		delivered = true
		// Stopping early abandons the connection: the node is still streaming.
		more = fn(rep.Key, rep.Value)
		return more, !more
	})
}

// Tables lists the node's non-empty tables.
func (c *Client) Tables(ctx context.Context) ([]string, error) {
	rep, err := c.call(ctx, wire.Request{Op: wire.OpTables})
	return rep.Tables, err
}

// Stored reports the node's resident live payload volume, with the error
// BytesStored's signature cannot carry.
func (c *Client) Stored(ctx context.Context) (int64, error) {
	rep, err := c.call(ctx, wire.Request{Op: wire.OpBytesStored})
	return rep.Stored, err
}

// BytesStored implements engine.Backend; an unreachable node reports 0.
func (c *Client) BytesStored() int64 {
	//lint:rstore-vet ctxfirst: engine.Backend's ctx-free stats surface — this shim mints a root for its one wire round-trip
	n, err := c.Stored(context.Background())
	if err != nil {
		return 0
	}
	return n
}

// Compact answers engine.ErrNoCompaction without a round trip: a node
// reclaims its dead bytes on its own write calls, and no client asks it
// to. The method is here only because engine.Compactor pairs it with
// CompactionStats.
func (c *Client) Compact(context.Context) (engine.CompactionStats, error) {
	return engine.CompactionStats{}, engine.ErrNoCompaction
}

// CompactionStats reports the node's storage-reclaim state
// (engine.Compactor). A node whose backend cannot compact surfaces as
// engine.ErrNoCompaction (a hard error, not unavailability).
func (c *Client) CompactionStats(ctx context.Context) (engine.CompactionStats, error) {
	rep, err := c.call(ctx, wire.Request{Op: wire.OpCompactStats})
	return rep.Stats, err
}

// HashTree fetches the node's hash-tree digest of one table
// (engine.HashRanger) — the anti-entropy summary exchange. Retrying is
// safe: digesting is read-only. A node whose backend cannot hash surfaces
// as engine.ErrNoHashRange (a hard error, not unavailability).
func (c *Client) HashTree(ctx context.Context, table string, fanout int) (engine.TreeDigest, error) {
	if err := engine.CheckHashFanout(fanout); err != nil {
		return engine.TreeDigest{}, err
	}
	rep, err := c.call(ctx, wire.Request{Op: wire.OpHashTree, Table: table, Fanout: fanout})
	return rep.Tree, err
}

// HashRange lists one tree bucket's keys with their entry hashes
// (engine.HashRanger), for key-by-key diffing of an unequal leaf.
func (c *Client) HashRange(ctx context.Context, table string, fanout, bucket int) ([]engine.KeyHash, error) {
	if err := engine.CheckHashBucket(fanout, bucket); err != nil {
		return nil, err
	}
	rep, err := c.call(ctx, wire.Request{Op: wire.OpHashRange, Table: table, Fanout: fanout, Bucket: bucket})
	return rep.KeyHashes, err
}

// Close releases the client's connections. The node and its data are
// unaffected — a remote backend's lifecycle belongs to its daemon. Closing
// twice is a no-op.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	idle := c.idle
	c.idle = nil
	// Close the drained connections outside the pool lock: Close on a TCP
	// conn can block (lingering writes), and checkout/release contend on mu.
	// The breaker is stopped outside it too — closed is already set, so no
	// new operation can trip it, and nesting c.mu over the breaker's mutex
	// would put a lock-order edge in the rank table for no benefit.
	c.mu.Unlock()
	c.br.close()
	for _, cn := range idle {
		cn.nc.Close()
	}
	return nil
}
