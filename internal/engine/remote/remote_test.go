// Tests for the transport behaviors the conformance suite cannot see:
// unavailability classification, retry/recovery across a node restart,
// connection pooling, and the scan stream's failure handling. Backend
// semantics are covered by the conformance suite in internal/engine.
package remote_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/engine/remote/wire"
	"rstore/internal/types"
)

// fastOpts keeps retry latency test-friendly.
func fastOpts() remote.Options {
	return remote.Options{Attempts: 2, Backoff: 5 * time.Millisecond, DialTimeout: time.Second}
}

// freePort reserves an address nothing listens on (and then releases it,
// so a later server can bind it).
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestDialValidatesAddress(t *testing.T) {
	if _, err := remote.Dial("not-an-address", remote.Options{}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestDownNodeIsUnavailableNotHardError(t *testing.T) {
	c, err := remote.Dial(freePort(t), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(context.Background(), "t", "k", []byte("v")); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("put to dead node: %v", err)
	}
	if _, _, err := c.Get(context.Background(), "t", "k"); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("get from dead node: %v", err)
	}
	if err := c.Scan(context.Background(), "t", func(string, []byte) bool { return true }); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("scan of dead node: %v", err)
	}
	if _, err := c.Stored(context.Background()); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("stored of dead node: %v", err)
	}
}

func TestBackendErrorIsHardNotUnavailable(t *testing.T) {
	be := memory.New()
	be.Close() // every operation now fails inside the node
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Put(context.Background(), "t", "k", []byte("v"))
	if err == nil || errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("node-side failure classified wrong: %v", err)
	}
	if !errors.Is(err, types.ErrClosed) {
		t.Fatalf("closed-backend error did not map to ErrClosed: %v", err)
	}
}

func TestClientSurvivesNodeRestart(t *testing.T) {
	be := memory.New()
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	c, err := remote.Dial(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(context.Background(), "t", "k", []byte("before")); err != nil {
		t.Fatal(err)
	}

	// Kill the node: the pooled connection is now dead.
	srv.Close()
	if err := c.Put(context.Background(), "t", "k2", []byte("while down")); !errors.Is(err, engine.ErrUnavailable) {
		t.Fatalf("put while node down: %v", err)
	}

	// Restart on the same address with the same backend: the client must
	// re-dial transparently and see the earlier write.
	srv2, err := engined.Start(addr, be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	v, ok, err := c.Get(context.Background(), "t", "k")
	if err != nil || !ok || string(v) != "before" {
		t.Fatalf("get after restart: %q %v %v", v, ok, err)
	}
}

func TestRetryRedialsWithinOneOperation(t *testing.T) {
	// A server that accepts and immediately drops the first connection:
	// the client's first attempt dies mid-exchange, the retry must succeed
	// against the real server behind it.
	be := memory.New()
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	var drops int
	var mu sync.Mutex
	go func() {
		for {
			nc, err := front.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			first := drops == 0
			drops++
			mu.Unlock()
			if first {
				nc.Close() // simulate a connection reset
				continue
			}
			// Proxy everything else straight through.
			bc, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				nc.Close()
				return
			}
			go func() { defer nc.Close(); defer bc.Close(); buf := make([]byte, 32<<10); copyConn(nc, bc, buf) }()
			go func() { buf := make([]byte, 32<<10); copyConn(bc, nc, buf) }()
		}
	}()

	c, err := remote.Dial(front.Addr().String(), remote.Options{Attempts: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(context.Background(), "t", "k", []byte("v")); err != nil {
		t.Fatalf("put through flaky front: %v", err)
	}
	v, ok, err := c.Get(context.Background(), "t", "k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("get through flaky front: %q %v %v", v, ok, err)
	}
}

func copyConn(dst net.Conn, src net.Conn, buf []byte) {
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func TestOperationsAfterClientClose(t *testing.T) {
	srv, err := engined.Start("127.0.0.1:0", memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := c.Put(context.Background(), "t", "k", nil); !errors.Is(err, types.ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
}

func TestConcurrentClientsShareOnePool(t *testing.T) {
	srv, err := engined.Start("127.0.0.1:0", memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), remote.Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				if err := c.Put(context.Background(), "t", k, []byte(k)); err != nil {
					t.Error(err)
					return
				}
				v, ok, err := c.Get(context.Background(), "t", k)
				if err != nil || !ok || string(v) != k {
					t.Errorf("%s: %q %v %v", k, v, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestScanEarlyStopLeavesClientUsable(t *testing.T) {
	srv, err := engined.Start("127.0.0.1:0", memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 200; i++ {
		if err := c.Put(context.Background(), "t", fmt.Sprintf("k%03d", i), []byte(strings.Repeat("x", 100))); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon the stream after a few entries, repeatedly; the client must
	// keep serving requests on fresh connections.
	for round := 0; round < 3; round++ {
		n := 0
		if err := c.Scan(context.Background(), "t", func(string, []byte) bool { n++; return n < 5 }); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if n != 5 {
			t.Fatalf("round %d visited %d", round, n)
		}
		if _, ok, err := c.Get(context.Background(), "t", "k000"); err != nil || !ok {
			t.Fatalf("get after abandoned scan: %v %v", ok, err)
		}
	}
}

func TestBigValuesCrossTheWire(t *testing.T) {
	srv, err := engined.Start("127.0.0.1:0", memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 8<<20) // bigger than any internal buffer
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := c.BatchPut(context.Background(), "t", []engine.Entry{{Key: "big", Value: big}}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(context.Background(), "t", "big")
	if err != nil || !ok || len(v) != len(big) {
		t.Fatalf("big get: %d bytes, %v %v", len(v), ok, err)
	}
	for i := range v {
		if v[i] != big[i] {
			t.Fatalf("big value corrupted at byte %d", i)
		}
	}
}

// TestCompactOverTheWire: an lsm-backed daemon compacts on client demand,
// the stats round-trip, and every value survives the rewrite.
func TestCompactOverTheWire(t *testing.T) {
	be, err := lsm.Open(t.TempDir(), lsm.Options{MemtableBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	srv, err := engined.Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every key written, the first 40 rewritten and the first 10 of those
	// deleted: the run stays more than half live, so lsm leaves it unmerged.
	val := func(k string, rev int) string { return fmt.Sprintf("%s rev-%d %s", k, rev, strings.Repeat("x", 64)) }
	for _, n := range []int{100, 40} {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%03d", i)
			if err := c.Put(context.Background(), "t", k, []byte(val(k, n))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		if err := c.Delete(context.Background(), "t", fmt.Sprintf("k%03d", i)); err != nil {
			t.Fatal(err)
		}
	}

	before, err := c.CompactionStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if before.LiveRatio() == 1 {
		t.Fatalf("workload left nothing dead: %+v", before)
	}
	after, err := c.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after.DiskBytes >= before.DiskBytes || after.CompactedBytes <= before.CompactedBytes || after.LiveRatio() != 1 {
		t.Fatalf("remote compact left dead bytes: %+v -> %+v", before, after)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		v, ok, err := c.Get(context.Background(), "t", k)
		if err != nil {
			t.Fatal(err)
		}
		if i < 10 {
			if ok {
				t.Fatalf("deleted %s resurrected as %q", k, v)
			}
			continue
		}
		want := val(k, 100)
		if i < 40 {
			want = val(k, 40)
		}
		if !ok || string(v) != want {
			t.Fatalf("%s = %q (ok=%v) after remote compact", k, v, ok)
		}
	}
}

// TestCompactUnsupportedBackend: a daemon whose backend cannot compact must
// report engine.ErrNoCompaction — a hard, matchable error, not
// unavailability (retrying a different replica would not help).
func TestCompactUnsupportedBackend(t *testing.T) {
	srv, err := engined.Start("127.0.0.1:0", memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := remote.Dial(srv.Addr().String(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Compact(context.Background()); !errors.Is(err, engine.ErrNoCompaction) {
		t.Fatalf("Compact on memory-backed node: %v, want ErrNoCompaction", err)
	}
	if _, err := c.CompactionStats(context.Background()); !errors.Is(err, engine.ErrNoCompaction) {
		t.Fatalf("CompactionStats on memory-backed node: %v, want ErrNoCompaction", err)
	}
	if errors.Is(engine.ErrNoCompaction, engine.ErrUnavailable) {
		t.Fatal("ErrNoCompaction must not be unavailability")
	}
}

// TestBatchPutFrameSizedOnce counts the client's copies instead of guessing
// them: a BatchPut of n MiB of values allocates at most 1.1 × n MiB — the
// request frame, sized before it is encoded. Grown by append it was 2.9 × n
// on this batch.
// The node is a sink that discards the frame unread, so the count is the
// client's alone.
func TestBatchPutFrameSizedOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sunk := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			sunk <- err
			return
		}
		defer nc.Close()
		var hdr [8]byte
		if _, err := io.ReadFull(nc, hdr[:]); err != nil {
			sunk <- err
			return
		}
		if _, err := io.CopyN(io.Discard, nc, int64(binary.LittleEndian.Uint32(hdr[:4]))); err != nil {
			sunk <- err
			return
		}
		sunk <- wire.WriteFrame(nc, []byte{wire.StOK})
	}()
	c, err := remote.Dial(ln.Addr().String(), remote.Options{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 4 << 20
	entries := make([]engine.Entry, 4)
	for i := range entries {
		entries[i] = engine.Entry{Key: fmt.Sprintf("chunk-%d", i), Value: make([]byte, n/len(entries))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = c.BatchPut(context.Background(), "chunks", entries)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sunk; err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*11/10); got > limit {
		t.Fatalf("BatchPut of %d bytes allocated %d, want at most %d", n, got, limit)
	}
}

// TestMalformedReplyIsUnavailableNeverPartial: a node that answers a
// MultiGet with a well-framed StOK whose body breaks the grammar — a count
// that is not the request's, a flag that is neither 0 nor 1, bytes after the
// last result — is retried like any broken transport and then reported
// unavailable. No result of the half-read reply reaches the caller.
func TestMalformedReplyIsUnavailableNeverPartial(t *testing.T) {
	for name, body := range map[string][]byte{
		"short count": {wire.StOK, 2, 1, 1, 'x', 0},
		"long count":  {wire.StOK, 4, 1, 1, 'x', 0, 0, 0},
		"bad flag":    {wire.StOK, 3, 1, 1, 'x', 2, 0},
		"tail":        {wire.StOK, 3, 1, 1, 'x', 0, 0, 0xee},
		"no status":   {},
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			asked := make(chan struct{}, 16) // one per request the script answered; the client makes two
			go func() {
				for {
					nc, err := ln.Accept()
					if err != nil {
						return
					}
					go func() {
						defer nc.Close()
						for {
							if _, err := wire.ReadFrame(nc, nil); err != nil {
								return
							}
							asked <- struct{}{}
							if err := wire.WriteFrame(nc, body); err != nil {
								return
							}
						}
					}()
				}
			}()
			c, err := remote.Dial(ln.Addr().String(), fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			values, present, err := c.MultiGet(context.Background(), "t", []string{"a", "b", "c"})
			if !errors.Is(err, engine.ErrUnavailable) || !errors.Is(err, types.ErrCorrupt) {
				t.Fatalf("malformed reply surfaced as %v", err)
			}
			if values != nil || present != nil {
				t.Fatalf("malformed reply leaked results: %q %v", values, present)
			}
			if got, want := len(asked), fastOpts().Attempts; got != want {
				t.Fatalf("the node was asked %d times, want one per attempt (%d)", got, want)
			}
		})
	}
}
