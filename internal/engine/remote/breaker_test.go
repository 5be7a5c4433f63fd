// Failure-detector tests: breaker trip/fast-fail behavior, the
// steady-state dial budget against a dead node (one probe per backoff
// interval, not one dial schedule per request), and probe-driven recovery
// with its state-listener notification.
package remote_test

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/engine/remote/wire"
)

// slamListener accepts and immediately closes every connection, counting
// the accepts: a node that is reachable at the TCP layer but dead at the
// protocol layer, with an observable dial count.
type slamListener struct {
	ln     net.Listener
	dials  atomic.Int64
	closed chan struct{}
}

func newSlamListener(t *testing.T) *slamListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &slamListener{ln: ln, closed: make(chan struct{})}
	go func() {
		defer close(s.closed)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.dials.Add(1)
			c.Close()
		}
	}()
	return s
}

func (s *slamListener) addr() string { return s.ln.Addr().String() }

func (s *slamListener) close() {
	s.ln.Close()
	<-s.closed
}

// breakerOpts trips fast and probes on a test-friendly cadence.
func breakerOpts() remote.Options {
	return remote.Options{
		Attempts:         1,
		Backoff:          time.Millisecond,
		DialTimeout:      time.Second,
		IOTimeout:        time.Second,
		BreakerThreshold: 2,
		ProbeInterval:    30 * time.Millisecond,
		ProbeMaxBackoff:  time.Second,
	}
}

// trip drives the client to BreakerThreshold unavailability verdicts.
func trip(t *testing.T, c *remote.Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Put(context.Background(), "t", "k", []byte("v")); !errors.Is(err, engine.ErrUnavailable) {
			t.Fatalf("verdict %d: %v", i, err)
		}
	}
	if !c.BreakerStats().Open {
		t.Fatalf("breaker not open after %d verdicts", n)
	}
}

func TestBreakerTripsAndFastFails(t *testing.T) {
	s := newSlamListener(t)
	defer s.close()
	c, err := remote.Dial(s.addr(), breakerOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	trip(t, c, 2)
	st := c.BreakerStats()
	if !st.Open || st.Trips != 1 {
		t.Fatalf("after trip: %+v", st)
	}

	// Probation ops fail fast — still classified unavailable (the cluster
	// layer must route around them like any down node) but without a dial.
	for i := 0; i < 5; i++ {
		if err := c.Put(context.Background(), "t", "k", []byte("v")); !errors.Is(err, engine.ErrUnavailable) {
			t.Fatalf("probation put %d: %v", i, err)
		}
	}
	if st = c.BreakerStats(); st.FastFails < 5 {
		t.Fatalf("FastFails = %d, want >= 5", st.FastFails)
	}
}

// TestDeadNodeCostsOneProbePerInterval is the dial-budget contract: once
// the breaker is open, requests stop paying for dials entirely — the only
// connections a dead node sees are the background probes, one per backoff
// interval.
func TestDeadNodeCostsOneProbePerInterval(t *testing.T) {
	s := newSlamListener(t)
	defer s.close()
	opts := breakerOpts()
	opts.ProbeInterval = 40 * time.Millisecond
	c, err := remote.Dial(s.addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	trip(t, c, 2)
	base := s.dials.Load()

	// Steady state: hammer the dead node, then let a known number of probe
	// intervals elapse. With backoff 40ms, 80ms, ... at most 3 probes fit
	// in 200ms; 100 requests must not add a single dial beyond them.
	const reqs = 100
	for i := 0; i < reqs; i++ {
		if err := c.Put(context.Background(), "t", "k", []byte("v")); !errors.Is(err, engine.ErrUnavailable) {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	time.Sleep(200 * time.Millisecond)
	dials := s.dials.Load() - base
	st := c.BreakerStats()
	if dials > 4 {
		t.Fatalf("dead node saw %d dials for %d requests; want only the probes (<= 4). stats: %+v", dials, reqs, st)
	}
	if st.Probes < 1 || dials < 1 {
		t.Fatalf("no probe reached the node (probes=%d dials=%d): prober not running", st.Probes, dials)
	}
	if st.FastFails < reqs {
		t.Fatalf("FastFails = %d, want >= %d", st.FastFails, reqs)
	}
}

func TestBreakerRecoversWhenNodeReturns(t *testing.T) {
	s := newSlamListener(t)
	c, err := remote.Dial(s.addr(), breakerOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	transitions := make(chan bool, 16)
	c.SetStateListener(func(up bool) { transitions <- up })

	addr := s.addr()
	trip(t, c, 2)
	select {
	case up := <-transitions:
		if up {
			t.Fatal("first transition was up, want down")
		}
	case <-time.After(time.Second):
		t.Fatal("no down transition after trip")
	}

	// Replace the protocol-dead listener with a real daemon on the same
	// address: the next probe must close the breaker.
	s.close()
	srv, err := engined.Start(addr, memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	select {
	case up := <-transitions:
		if !up {
			t.Fatal("second transition was down, want up (recovery)")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("breaker never recovered after node restart")
	}
	if c.BreakerStats().Open {
		t.Fatal("breaker still open after recovery notification")
	}
	// And the client is fully usable again.
	if err := c.Put(context.Background(), "t", "k", []byte("after")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(context.Background(), "t", "k")
	if err != nil || !ok || string(v) != "after" {
		t.Fatalf("get after recovery: %q %v %v", v, ok, err)
	}
}

// TestProbationOpsNeverDial: with the prober parked, an open breaker
// admits no traffic at all — even after the node has actually returned,
// operations keep fast-failing until a probe (or a racing in-flight
// success) proves reachability. This is the gate the dial budget rests on.
func TestProbationOpsNeverDial(t *testing.T) {
	s := newSlamListener(t)
	opts := breakerOpts()
	opts.ProbeInterval = time.Hour // park the prober
	c, err := remote.Dial(s.addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	addr := s.addr()
	trip(t, c, 2)
	s.close()
	srv, err := engined.Start(addr, memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The node is healthy again, but nothing has probed it: operations
	// must still fail fast, and the breaker must still be open.
	for i := 0; i < 3; i++ {
		if err := c.Put(context.Background(), "t", "k", []byte("v")); !errors.Is(err, engine.ErrUnavailable) {
			t.Fatalf("probation put %d: %v", i, err)
		}
	}
	if !c.BreakerStats().Open {
		t.Fatal("breaker closed without a probe or completed exchange")
	}
	if st := c.BreakerStats(); st.Probes != 0 {
		t.Fatalf("parked prober still probed %d times", st.Probes)
	}
}

// TestCloseEndsAProbeInFlight: a probe that reached a node which accepts
// and then never answers ends with the client's Close, not after
// DialTimeout + IOTimeout: the node sees the probe's connection close.
func TestCloseEndsAProbeInFlight(t *testing.T) {
	s := newSlamListener(t)
	opts := breakerOpts()
	opts.IOTimeout = time.Minute
	c, err := remote.Dial(s.addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.addr()
	trip(t, c, 2)
	s.close()

	// The hung node: it reads what a probe sends and never replies.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	held := make(chan net.Conn, 1)
	go func() {
		if nc, err := ln.Accept(); err == nil {
			held <- nc
		}
	}()
	var nc net.Conn
	select {
	case nc = <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("no probe reached the hung node")
	}
	defer nc.Close()
	// Wait for the ping to arrive whole, so the probe is in its exchange.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(nc, nil); err != nil {
		t.Fatalf("probe sent no ping: %v", err)
	}

	start := time.Now()
	c.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("the probe's connection outlived Close: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the probe's connection closed %v after Close", d)
	}
}
