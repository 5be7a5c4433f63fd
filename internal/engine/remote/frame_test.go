package remote_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/engine/remote/wire"
)

// batchOf returns n entries under keys of prefix whose values, of size bytes
// each, spell their key and seed.
func batchOf(prefix string, n, size int, seed byte) []engine.Entry {
	entries := make([]engine.Entry, n)
	for i := range entries {
		key := fmt.Sprintf("%s-%03d", prefix, i)
		value := bytes.Repeat([]byte{seed + byte(i)}, size)
		copy(value, key)
		entries[i] = engine.Entry{Key: key, Value: value}
	}
	return entries
}

// readBack fails t unless every entry reads back from c as it was put.
func readBack(t *testing.T, c *remote.Client, entries []engine.Entry) {
	t.Helper()
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	values, present, err := c.MultiGet(context.Background(), "t", keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if !present[i] || !bytes.Equal(values[i], e.Value) {
			t.Fatalf("%s reads back %d bytes (present %v), put %d", e.Key, len(values[i]), present[i], len(e.Value))
		}
	}
}

// TestBatchPutsOnOneClientReadBack: a client frames every request in the
// scratch of the connection it takes (wire.RequestWriter), so batches of
// other sizes and contents, one after the other and many at once, must each
// reach the node as they were given — none carrying bytes of a batch before
// it. Run under -race, the concurrent batches also show that no two requests
// share a scratch.
func TestBatchPutsOnOneClientReadBack(t *testing.T) {
	ctx := context.Background()
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

	// One after the other: larger, smaller, larger again.
	for i, shape := range []struct{ n, size int }{{8, 64 << 10}, {3, 1000}, {1, 7}, {20, 40 << 10}, {2, 100 << 10}} {
		entries := batchOf(fmt.Sprintf("seq%d", i), shape.n, shape.size, byte(i))
		if err := c.BatchPut(ctx, "t", entries); err != nil {
			t.Fatal(err)
		}
		readBack(t, c, entries)
	}
	// Many at once, on the same pool.
	batches := make([][]engine.Entry, 8)
	var wg sync.WaitGroup
	for g := range batches {
		batches[g] = batchOf(fmt.Sprintf("par%d", g), 2+g, (g+1)*9000, byte(100+g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if err := c.BatchPut(ctx, "t", batches[g]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, entries := range batches {
		readBack(t, c, entries)
	}
}

// frameNode is a node that records the payload of every request frame it
// reads and answers StOK — but drops the connection instead of answering the
// frames drop names, by their place among all frames read, from 0.
type frameNode struct {
	ln   net.Listener
	drop map[int]bool

	mu     sync.Mutex
	frames [][]byte
}

func startFrameNode(t *testing.T, drop ...int) *frameNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &frameNode{ln: ln, drop: map[int]bool{}}
	for _, d := range drop {
		n.drop[d] = true
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go n.serve(nc)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return n
}

func (n *frameNode) serve(nc net.Conn) {
	defer nc.Close()
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(nc, hdr[:]); err != nil {
			return
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr[:4]))
		if _, err := io.ReadFull(nc, payload); err != nil {
			return
		}
		n.mu.Lock()
		at := len(n.frames)
		n.frames = append(n.frames, payload)
		n.mu.Unlock()
		if n.drop[at] {
			return
		}
		if err := wire.WriteFrame(nc, []byte{wire.StOK}); err != nil {
			return
		}
	}
}

// TestRetriedBatchPutSendsTheSameBytes: a BatchPut whose connection drops
// before the node answers is sent again on a fresh connection, framed again
// in that connection's scratch, and the node must read the same bytes both
// times — EncodeRequest's — although the connection dropped had just carried
// a larger batch.
func TestRetriedBatchPutSendsTheSameBytes(t *testing.T) {
	ctx := context.Background()
	node := startFrameNode(t, 1) // the second frame: the small batch's first attempt
	c, err := remote.Dial(node.ln.Addr().String(), remote.Options{PoolSize: 1, Attempts: 3, Backoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	large, small := batchOf("large", 6, 30<<10, 1), batchOf("small", 3, 500, 2)
	if err := c.BatchPut(ctx, "t", large); err != nil {
		t.Fatal(err)
	}
	if err := c.BatchPut(ctx, "t", small); err != nil {
		t.Fatal(err)
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	want := [][]byte{
		wire.EncodeRequest(wire.Request{Op: wire.OpBatchPut, Table: "t", Entries: large}),
		wire.EncodeRequest(wire.Request{Op: wire.OpBatchPut, Table: "t", Entries: small}),
	}
	if len(node.frames) != 3 {
		t.Fatalf("the node read %d frames, want the large batch and the small one twice", len(node.frames))
	}
	for i, w := range [][]byte{want[0], want[1], want[1]} {
		if !bytes.Equal(node.frames[i], w) {
			t.Fatalf("frame %d: %d bytes, not the %d EncodeRequest spells", i, len(node.frames[i]), len(w))
		}
	}
}

// TestBatchPutCopiesNoValue: a BatchPut's values go to the socket where the
// caller keeps them (wire.RequestWriter), so neither the first BatchPut on a
// connection nor the next allocates more than a sliver of its n bytes. The
// node discards the frames unread, so the count is the client's alone.
func TestBatchPutCopiesNoValue(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		for {
			var hdr [8]byte
			if _, err := io.ReadFull(nc, hdr[:]); err != nil {
				return
			}
			if _, err := io.CopyN(io.Discard, nc, int64(binary.LittleEndian.Uint32(hdr[:4]))); err != nil {
				return
			}
			if err := wire.WriteFrame(nc, []byte{wire.StOK}); err != nil {
				return
			}
		}
	}()
	c, err := remote.Dial(ln.Addr().String(), remote.Options{PoolSize: 1, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 2 << 20
	ctx := context.Background()
	for i, prefix := range []string{"first", "second"} {
		entries := batchOf(prefix, 4, n/4, byte(i))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = c.BatchPut(ctx, "chunks", entries)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n/64); got > limit {
			t.Fatalf("BatchPut %d of %d bytes allocated %d, want at most %d", i, n, got, limit)
		}
	}
}
