package engined

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"

	"rstore/internal/codec"
	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/remote/wire"
)

// TestConnScratchNotPinned: a connection that served one 32 MiB BatchPut
// (here into an lsm backend, whose WAL has the same rule:
// lsm.TestWALBufferNotPinned) goes on with buffers under
// engine.ScratchLimit, not with the largest frame it ever read; a request of
// ordinary size keeps its buffer for the next one.
func TestConnScratchNotPinned(t *testing.T) {
	be, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	s, err := Start("127.0.0.1:0", be)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nc, peer := net.Pipe() // serveOp only sets deadlines on it
	defer nc.Close()
	defer peer.Close()

	serve := func(buf, resp []byte, values int) ([]byte, []byte) {
		t.Helper()
		req := append([]byte{wire.OpBatchPut}, codec.PutString(nil, "t")...)
		req = codec.PutUvarint(req, uint64(values))
		for i := 0; i < values; i++ {
			req = codec.PutString(req, string(rune('a'+i)))
			req = codec.PutBytes(req, make([]byte, 1<<20))
		}
		var frame bytes.Buffer
		if err := wire.WriteFrame(&frame, req); err != nil {
			t.Fatal(err)
		}
		buf, resp, err := s.serveFrame(nc, bufio.NewReader(&frame), bufio.NewWriter(io.Discard), buf, resp)
		if err != nil {
			t.Fatal(err)
		}
		return buf, resp
	}
	buf, resp := serve(nil, nil, 2)
	if cap(buf) < 2<<20 {
		t.Fatalf("a 2 MiB request left a %d-byte receive buffer: nothing to reuse", cap(buf))
	}
	buf, resp = serve(buf, resp, 32)
	if cap(buf) > engine.ScratchLimit || cap(resp) > engine.ScratchLimit {
		t.Fatalf("after a 32 MiB BatchPut the connection keeps %d + %d bytes of scratch; the bound is %d", cap(buf), cap(resp), engine.ScratchLimit)
	}
}
