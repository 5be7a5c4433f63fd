package engined_test

import (
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/engine/remote/wire"
)

// Shutdown must drain promptly even with idle pooled client connections
// parked in between-request reads, and be a no-op the second time.
func TestShutdownDrainsIdleConnections(t *testing.T) {
	be := memory.New()
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	c, err := remote.Dial(srv.Addr().String(), remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	// Leave an idle pooled connection behind.
	if err := c.Put(ctx, "t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain of an idle connection took %v", elapsed)
	}
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close after shutdown: %v", err)
	}

	// The daemon is gone; the backend is untouched and still the caller's.
	if _, err := c.Tables(ctx); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}
	if v, ok, err := be.Get(ctx, "t", "k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("backend state lost across shutdown: %q %v %v", v, ok, err)
	}
}

// touched counts the backend calls a hostile request could have reached.
type touched struct {
	engine.Backend
	calls atomic.Int64
}

func (b *touched) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	b.calls.Add(1)
	return b.Backend.Get(ctx, table, key)
}

// MultiGet reads a batch through Get, so each key counts.
func (b *touched) MultiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	return engine.GetEach(ctx, b, table, keys)
}

func (b *touched) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	b.calls.Add(1)
	return b.Backend.BatchPut(ctx, table, entries)
}

func (b *touched) Compact(context.Context) (engine.CompactionStats, error) {
	b.calls.Add(1)
	return engine.CompactionStats{}, nil
}

func (b *touched) CompactionStats(context.Context) (engine.CompactionStats, error) {
	b.calls.Add(1)
	return engine.CompactionStats{}, nil
}

// TestHostilePeerCannotWedgeTheDaemon: a request that is not one the grammar
// allows — a retired op from an older client among them — closes its
// connection without an answer and without a backend call, and the daemon
// goes on serving the next connection.
func TestHostilePeerCannotWedgeTheDaemon(t *testing.T) {
	be := &touched{Backend: memory.New()}
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// exchange sends one payload on a fresh connection and returns the
	// answering payload, or the error that ended the connection instead.
	exchange := func(payload []byte) ([]byte, error) {
		t.Helper()
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if err := wire.WriteFrame(nc, payload); err != nil {
			t.Fatal(err)
		}
		return wire.ReadFrame(nc, nil)
	}
	get := wire.EncodeRequest(wire.Request{Op: wire.OpGet, Table: "t", Key: "k"})
	for name, payload := range map[string][]byte{
		"unknown op":               {0x7f},
		"retired compact op":       {9},
		"retired wipe op":          {11},
		"empty frame":              {},
		"batchput count > body":    {wire.OpBatchPut, 1, 't', 0xff, 0xff, 0x03, 1, 'k', 1, 'v'},
		"multiget count > body":    {wire.OpMultiGet, 1, 't', 0xff, 0xff, 0x03, 1, 'k'},
		"hash bucket = fanout":     {wire.OpHashRange, 1, 't', 4, 4},
		"hash fanout over limit":   {wire.OpHashTree, 1, 't', 0x81, 0x20},
		"trailing bytes after get": append(slices.Clone(get), 0),
	} {
		if reply, err := exchange(payload); !errors.Is(err, io.EOF) {
			t.Errorf("%s: answered %x, %v; want the connection closed", name, reply, err)
		}
		reply, err := exchange(wire.EncodeRequest(wire.Request{Op: wire.OpPing}))
		if err != nil {
			t.Fatalf("after %s the daemon does not answer a ping: %v", name, err)
		}
		if rep, err := wire.ParseReply(wire.Request{Op: wire.OpPing}, reply); err != nil || rep.Err != nil {
			t.Fatalf("after %s the ping is answered %x (%v, %v)", name, reply, rep.Err, err)
		}
	}
	if n := be.calls.Load(); n != 0 {
		t.Errorf("hostile requests reached the backend %d times", n)
	}
	// The same connection shape, well-formed, does reach it.
	if reply, err := exchange(get); err != nil || len(reply) != 1 || reply[0] != wire.StNotFound || be.calls.Load() != 1 {
		t.Errorf("well-formed get: %x, %v, %d backend calls", reply, err, be.calls.Load())
	}
}

// slowScan is a backend whose Scan yields one entry of a byte and then waits
// until released, as a backend that yields slowly does between entries.
type slowScan struct {
	engine.Backend
	release chan struct{}
}

func (b *slowScan) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	fn("k", []byte{1})
	select {
	case <-b.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestScanStreamsEachEntry: an entry a backend's Scan yields reaches the
// client while the backend is still scanning, however small it is — a
// daemon that buffered it until more came would let the client's per-frame
// IOTimeout run out against a node that is making progress.
func TestScanStreamsEachEntry(t *testing.T) {
	be := &slowScan{Backend: memory.New(), release: make(chan struct{})}
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := make(chan string, 1)
	scanned := make(chan error, 1)
	go func() {
		scanned <- c.Scan(context.Background(), "t", func(key string, value []byte) bool {
			got <- key
			return true
		})
	}()
	select {
	case key := <-got:
		if key != "k" {
			t.Errorf("streamed key %q, want k", key)
		}
	case <-time.After(5 * time.Second):
		close(be.release)
		t.Fatal("the entry did not reach the client while the backend was scanning")
	}
	close(be.release)
	select {
	case err := <-scanned:
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the scan did not end once the backend was released")
	}
}

// stuckScan is a backend whose Scan delivers one entry — larger than the
// daemon's write buffer, so it reaches the client unflushed — and then
// waits for its context, reporting the context's error when it ends.
type stuckScan struct {
	engine.Backend
	ended chan error
}

func (b *stuckScan) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	fn("k", make([]byte, 64<<10))
	<-ctx.Done()
	b.ended <- ctx.Err()
	return ctx.Err()
}

// TestStopSeversAScanInFlight: Close, and Shutdown under a context that has
// already ended, sever a Scan that is streaming and cancel its backend call
// — neither waits for it to finish.
func TestStopSeversAScanInFlight(t *testing.T) {
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	for name, stop := range map[string]func(*engined.Server) error{
		"Close":    (*engined.Server).Close,
		"Shutdown": func(s *engined.Server) error { return s.Shutdown(ended) },
	} {
		t.Run(name, func(t *testing.T) {
			be := &stuckScan{Backend: memory.New(), ended: make(chan error, 1)}
			srv, err := engined.Start("127.0.0.1:0", be)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := remote.Dial(srv.Addr().String(), remote.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			streaming := make(chan struct{})
			scanned := make(chan error, 1)
			go func() {
				scanned <- c.Scan(context.Background(), "t", func(string, []byte) bool {
					close(streaming)
					return true
				})
			}()
			select {
			case <-streaming:
			case <-time.After(5 * time.Second):
				t.Fatal("the scan never streamed")
			}

			stopped := make(chan error, 1)
			go func() { stopped <- stop(srv) }()
			select {
			case err := <-be.ended:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("backend scan ended with %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the backend scan was not cancelled")
			}
			select {
			case err := <-stopped:
				if name == "Shutdown" && !errors.Is(err, context.Canceled) {
					t.Errorf("Shutdown returned %v, want the context's error", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the server did not stop")
			}
			select {
			case err := <-scanned:
				if !errors.Is(err, engine.ErrUnavailable) {
					t.Errorf("severed scan: %v, want ErrUnavailable", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the client's scan was not severed")
			}
		})
	}
}
