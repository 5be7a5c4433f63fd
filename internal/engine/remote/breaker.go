package remote

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rstore/internal/engine/remote/wire"
)

// errProbation is the fast-fail cause while the breaker is open. It is
// wrapped in engine.ErrUnavailable like any other transport failure, so the
// cluster layer routes around the node exactly as if the dial had failed —
// just without paying for the dial.
var errProbation = errors.New("circuit breaker open: node in probation until a probe succeeds")

// BreakerStats is a snapshot of a client's failure-detector state.
type BreakerStats struct {
	// Open reports the node is in probation: operations fail fast while a
	// background probe watches for recovery.
	Open bool
	// Trips counts closed→open transitions over the client's lifetime.
	Trips int64
	// Probes counts background probe attempts (including the one that
	// succeeds and closes the breaker).
	Probes int64
	// FastFails counts operations rejected without touching the network
	// because the breaker was open.
	FastFails int64
}

// breaker is the client's failure detector: a consecutive-failure circuit
// breaker with a single background prober.
//
// An operation that exhausts its retry schedule on transport errors (with a
// live context — a caller's cancelled context says nothing about the node)
// is one unavailability verdict. BreakerThreshold consecutive verdicts trip
// the breaker: subsequent operations fail fast with engine.ErrUnavailable
// and one prober goroutine pings the node with exponential backoff, so a
// dead node costs one dial per probe interval instead of a dial-retry
// schedule per request. Any completed exchange — success or a hard error
// the node itself returned — proves reachability and resets the count; a
// successful probe (or a racing in-flight success) closes the breaker and
// notifies the state listener, which the cluster layer uses to kick hint
// drain.
type breaker struct {
	c *Client
	// ctx scopes the prober and its probes; close (the client's Close)
	// cancels it, so a probe stuck on a hung node ends with the client.
	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	consecutive int  // unavailability verdicts since the last completed exchange
	open        bool // in probation: fail fast, prober running
	probing     bool // prober goroutine live
	listener    func(up bool)

	trips     atomic.Int64
	probes    atomic.Int64
	fastFails atomic.Int64
}

func newBreaker(c *Client) *breaker {
	//lint:rstore-vet ctxfirst: the prober is a lifecycle root — its probes derive from it and the client's Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	return &breaker{c: c, ctx: ctx, cancel: cancel}
}

// fastFail reports whether the operation should be rejected without
// touching the network, counting the rejection.
func (b *breaker) fastFail() bool {
	b.mu.Lock()
	open := b.open
	b.mu.Unlock()
	if open {
		b.fastFails.Add(1)
	}
	return open
}

// recordSuccess notes a completed exchange: the node is reachable. A racing
// in-flight operation that completes while the breaker is open closes it
// (the prober notices and exits).
func (b *breaker) recordSuccess() {
	b.mu.Lock()
	b.consecutive = 0
	wasOpen := b.open
	b.open = false
	fn := b.listener
	b.mu.Unlock()
	if wasOpen && fn != nil {
		fn(true)
	}
}

// recordFailure notes one unavailability verdict, tripping the breaker and
// starting the prober at the threshold.
func (b *breaker) recordFailure() {
	b.mu.Lock()
	b.consecutive++
	tripped := false
	if !b.open && b.ctx.Err() == nil && b.consecutive >= b.c.pol.BreakerThreshold {
		b.open = true
		tripped = true
		b.trips.Add(1)
		if !b.probing {
			b.probing = true
			go b.probeLoop()
		}
	}
	fn := b.listener
	b.mu.Unlock()
	if tripped && fn != nil {
		fn(false)
	}
}

// probeLoop is the single background prober: ping with exponential backoff
// until the node answers, the breaker closes some other way, or the client
// closes.
func (b *breaker) probeLoop() {
	backoff := b.c.pol.ProbeInterval
	t := time.NewTimer(backoff)
	defer t.Stop()
	for {
		select {
		case <-b.ctx.Done():
			return
		case <-t.C:
		}
		b.mu.Lock()
		if !b.open || b.ctx.Err() != nil {
			b.probing = false
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		b.probes.Add(1)
		if b.c.probeOnce(b.ctx) {
			b.mu.Lock()
			b.open = false
			b.consecutive = 0
			b.probing = false
			fn := b.listener
			b.mu.Unlock()
			if fn != nil {
				fn(true)
			}
			return
		}
		if backoff *= 2; backoff > b.c.pol.ProbeMaxBackoff {
			backoff = b.c.pol.ProbeMaxBackoff
		}
		t.Reset(backoff)
	}
}

// close stops the prober permanently, a probe in flight included (client
// Close).
func (b *breaker) close() { b.cancel() }

func (b *breaker) stats() BreakerStats {
	b.mu.Lock()
	open := b.open
	b.mu.Unlock()
	return BreakerStats{
		Open:      open,
		Trips:     b.trips.Load(),
		Probes:    b.probes.Load(),
		FastFails: b.fastFails.Load(),
	}
}

// probeOnce is one single-attempt reachability check: one dial, one ping
// exchange on that fresh connection, no retries and no pool — the whole
// point of the breaker is that a dead node costs exactly one dial per probe
// interval.
func (c *Client) probeOnce(ctx context.Context) bool {
	cn, err := c.dial(ctx)
	if err != nil {
		return false
	}
	defer cn.nc.Close()
	ping := wire.Request{Op: wire.OpPing}
	_, err = cn.exchange(ctx, c.pol.IOTimeout, ping, func(wire.Reply) (more, abandon bool) { return false, false })
	return err == nil
}

// BreakerStats snapshots the failure detector's state and counters.
func (c *Client) BreakerStats() BreakerStats { return c.br.stats() }

// SetStateListener installs fn to be called on breaker transitions: fn(false)
// when the node enters probation, fn(true) when it recovers. The cluster
// layer uses recovery to kick hint drain so parked writes replay promptly.
// fn is called from client goroutines (including the prober) and must not
// block. Replaces any previous listener; nil removes it.
func (c *Client) SetStateListener(fn func(up bool)) {
	c.br.mu.Lock()
	c.br.listener = fn
	c.br.mu.Unlock()
}
