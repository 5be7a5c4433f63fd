package remote_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
)

// Satellite acceptance: a deadline-exceeded dial surfaces
// context.DeadlineExceeded wrapped in engine.ErrUnavailable, so callers can
// both route around the node and see why the attempt ended.

func TestExpiredContextDialIsUnavailableAndDeadlineExceeded(t *testing.T) {
	c, err := remote.DialPolicy("127.0.0.1:9", tuned(func(p *remote.Policy) { p.Backoff = time.Millisecond }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err = c.Get(ctx, "t", "k")
	if !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("expired-deadline dial not classified unavailable: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("context.DeadlineExceeded lost from the chain: %v", err)
	}
}

func TestDeadlineMidExchangeIsUnavailableAndDeadlineExceeded(t *testing.T) {
	// A listener that accepts and then never responds: the dial succeeds,
	// the exchange stalls, and only the context deadline ends the wait.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // hold the connection open, silent
		}
	}()

	c, err := remote.DialPolicy(ln.Addr().String(), tuned(func(p *remote.Policy) { p.Backoff = 10 * time.Millisecond }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = c.Get(ctx, "t", "k")
	if !errors.Is(err, engine.ErrUnavailable) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled exchange: %v", err)
	}
	// The deadline must end the operation promptly — not after the 30s
	// default IO timeout or the full retry schedule.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to take effect", elapsed)
	}
}

func TestCancelledContextStopsRetries(t *testing.T) {
	// No listener at all: every attempt fails; cancelling between backoffs
	// must stop the retry loop with the context's error in the chain.
	c, err := remote.DialPolicy("127.0.0.1:9", tuned(func(p *remote.Policy) { p.Attempts, p.Backoff = 100, 20*time.Millisecond }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = c.Put(ctx, "t", "k", []byte("v"))
	if !errors.Is(err, engine.ErrUnavailable) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled retries: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v (retry loop not interrupted)", elapsed)
	}
}

func TestContextCancelAbortsScanMidStream(t *testing.T) {
	be := memory.New()
	ctx := context.Background()
	for i := 0; i < 512; i++ {
		if err := be.Put(ctx, "t", string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune('A'+i%26)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.DialPolicy(srv.Addr().String(), tuned(func(p *remote.Policy) { p.Attempts = 1 }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err = c.Scan(sctx, "t", func(string, []byte) bool {
		seen++
		if seen == 3 {
			cancel() // mid-stream: later frames must not be waited for
		}
		return true
	})
	if err == nil {
		t.Fatal("cancelled scan completed cleanly")
	}
	if !errors.Is(err, engine.ErrUnavailable) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan error: %v", err)
	}
	// The client remains usable for later operations on a fresh context.
	if _, err := c.Tables(context.Background()); err != nil {
		t.Fatalf("client unusable after cancelled scan: %v", err)
	}
}
