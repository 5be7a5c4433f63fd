package remote

import (
	"context"
	"fmt"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote/engined"
)

// TestReceiveBufferIsTrimmed: a pooled connection keeps its receive buffer
// between exchanges, but not at any size — a 32 MiB MultiGet response must not
// stay pinned behind the small Get that follows it, while a 2 MiB one, the
// size of everyday traffic, is kept for reuse.
func TestReceiveBufferIsTrimmed(t *testing.T) {
	ctx := context.Background()
	srv, err := engined.Start("127.0.0.1:0", memory.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pol := defaultPolicy
	pol.PoolSize = 1
	c, err := newClient(srv.Addr().String(), pol)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	// pooled reads values of size bytes under every key back in one MultiGet,
	// then one small value, and returns what the connection — the only one:
	// the operations are sequential — kept of its receive buffer.
	pooled := func(size int) int {
		t.Helper()
		for _, key := range keys {
			if err := c.Put(ctx, "t", key, make([]byte, size)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Put(ctx, "t", "small", []byte("x")); err != nil {
			t.Fatal(err)
		}
		values, _, err := c.MultiGet(ctx, "t", keys)
		if err != nil || len(values) != len(keys) || len(values[0]) != size {
			t.Fatalf("MultiGet of %d × %d bytes: %d values, %v", len(keys), size, len(values), err)
		}
		if v, ok, err := c.Get(ctx, "t", "small"); err != nil || !ok || string(v) != "x" {
			t.Fatalf("small Get: %q %v %v", v, ok, err)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.idle) != 1 {
			t.Fatalf("%d idle connections, want the one every operation used", len(c.idle))
		}
		return cap(c.idle[0].buf)
	}
	if kept := pooled(256 << 10); kept < len(keys)*(256<<10) || kept > engine.ScratchLimit {
		t.Fatalf("after a 2 MiB response the connection keeps %d bytes, want the response's size at least and at most %d", kept, engine.ScratchLimit)
	}
	if kept := pooled(4 << 20); kept > engine.ScratchLimit {
		t.Fatalf("after a 32 MiB response and a small one the connection keeps %d bytes, want at most %d", kept, engine.ScratchLimit)
	}
}
