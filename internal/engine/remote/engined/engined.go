// Package engined serves any local engine.Backend over the TCP protocol of
// internal/engine/remote/wire, making it a storage node that
// internal/engine/remote clients (and therefore whole kvstore clusters) can
// use in place of an in-process backend. One goroutine per connection;
// requests on a connection are served serially, concurrency comes from
// clients pooling connections.
//
// The server does not own the backend: callers open it, pass it in, and
// close it after the server stops (cmd/rstore-node wires up that lifecycle
// for an lsm backend).
package engined

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/remote/wire"
)

// Server serves one backend on one listener.
type Server struct {
	be engine.Backend
	ln net.Listener

	// baseCtx scopes every backend operation the server issues; stopping
	// cancels it once the drain is over or its grace has run out.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Start listens on addr (host:port; port 0 picks a free one) and serves be
// in the background until Close or Shutdown. The chosen address is
// available via Addr.
func Start(addr string, be engine.Backend) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("engined: %w", err)
	}
	//lint:rstore-vet ctxfirst: the daemon is a lifecycle root — per-connection contexts derive from it and Close/Shutdown cancel it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{be: be, ln: ln, baseCtx: ctx, cancelBase: cancel, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// serve accepts connections until the server stops. Accept errors while the
// server is live (fd exhaustion, transient network failures) are retried
// with capped backoff rather than killing the loop — a storage daemon that
// silently stops accepting while its process stays up (holding the data
// directory lock) is the worst failure mode.
func (s *Server) serve() {
	defer s.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		nc, err := s.ln.Accept()
		if err == nil {
			backoff = 5 * time.Millisecond
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if nc != nil {
				nc.Close()
			}
			return
		}
		if err != nil {
			s.mu.Unlock()
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(nc)
			s.mu.Lock()
			delete(s.conns, nc)
			s.mu.Unlock()
		}()
	}
}

// Close stops the server at once: Shutdown with no grace. Every open
// connection is severed and in-flight backend operations are cancelled.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(s.baseCtx)
	cancel()
	s.Shutdown(ctx)
	return nil
}

// Shutdown stops the server, the one way it stops: it stops accepting,
// lets every in-flight request finish writing its response, and closes
// connections as they go idle (each is nudged with an immediate read
// deadline, so a blocked between-request read returns at once while a
// response in progress completes — the deadline only bites on the NEXT
// request read). If ctx ends before the drain completes, the remaining
// connections are severed, in-flight backend operations are cancelled,
// and ctx's error is returned once their goroutines are gone. The backend
// is left open (the caller owns it); stopping twice is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for nc := range s.conns {
		nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Sever outside the table lock: Close can block on a lingering
		// peer, and handleConn goroutines need mu to deregister.
		s.mu.Lock()
		conns := make([]net.Conn, 0, len(s.conns))
		for nc := range s.conns {
			conns = append(conns, nc)
		}
		s.mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
	}
	s.cancelBase()
	<-done
	return err
}

// handleConn serves framed requests until the peer hangs up or a frame is
// unreadable (corruption poisons the stream; the connection is dropped and
// the client re-dials).
func (s *Server) handleConn(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)
	var buf, resp []byte
	for {
		var err error
		if buf, resp, err = s.serveFrame(nc, br, bw, buf, resp); err != nil {
			return
		}
	}
}

// serveFrame reads one request frame into buf, serves it and flushes the
// response built in resp. It returns the two buffers for the connection's
// next request — trimmed, so one large request does not pin its size for
// the life of the connection — or the error that ends the connection.
func (s *Server) serveFrame(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, buf, resp []byte) ([]byte, []byte, error) {
	payload, err := wire.ReadFrame(br, buf)
	if err != nil {
		return nil, nil, err
	}
	if cap(payload) > cap(buf) {
		buf = payload[:0]
	}
	if resp, err = s.serveOp(nc, bw, payload, resp); err != nil {
		return nil, nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, nil, err
	}
	return engine.TrimScratch(buf), engine.TrimScratch(resp), nil
}

// writeTimeout bounds how long a response write may stall on TCP
// backpressure. It matters most for Scan, which streams from inside the
// backend's Scan callback while the backend lock is held: without a
// deadline, one hung peer would wedge every writer on the node until the
// kernel gives up on retransmission. Reads carry no deadline — pooled
// client connections idle legitimately between requests.
const writeTimeout = 60 * time.Second

// serveOp decodes one request, executes it and writes the response frame(s)
// to bw. The returned buffer is reused across requests; a non-nil error
// means the connection is unusable (a request that does not decode — the
// backend is never touched for one — or a mid-stream write error).
func (s *Server) serveOp(nc net.Conn, bw *bufio.Writer, payload, resp []byte) ([]byte, error) {
	req, err := wire.ParseRequest(payload)
	if err != nil {
		return resp, err
	}
	var rep wire.Reply
	switch req.Op {
	case wire.OpPut:
		rep.Err = s.be.Put(s.baseCtx, req.Table, req.Key, req.Value)

	case wire.OpGet:
		rep.Value, rep.Found, rep.Err = s.be.Get(s.baseCtx, req.Table, req.Key)

	case wire.OpDelete:
		rep.Err = s.be.Delete(s.baseCtx, req.Table, req.Key)

	case wire.OpBatchPut:
		rep.Err = s.be.BatchPut(s.baseCtx, req.Table, req.Entries)

	case wire.OpMultiGet:
		// A batch whose combined values exceed wire.MaxFrame (1 GiB) fails
		// the frame write and drops the connection, and no layer splits it.
		// Callers keep batches far below that: core's largest is one query
		// round, the segments of queryFetchBatch chunks (a few MiB).
		rep.Values, rep.Present = make([][]byte, len(req.Keys)), make([]bool, len(req.Keys))
		for i, k := range req.Keys {
			if rep.Values[i], rep.Present[i], rep.Err = s.be.Get(s.baseCtx, req.Table, k); rep.Err != nil {
				break
			}
		}

	case wire.OpScan:
		// Entries stream from inside the backend's callback; the frame after
		// the switch is the stream's end (or the scan's error).
		var streamErr error
		rep.Err = s.be.Scan(s.baseCtx, req.Table, func(key string, value []byte) bool {
			// Refresh per entry: a progressing stream may legitimately
			// outlast one writeTimeout; a stalled peer must not.
			nc.SetWriteDeadline(time.Now().Add(writeTimeout))
			resp = wire.AppendReply(resp[:0], wire.OpScan, wire.Reply{More: true, Key: key, Value: value})
			if streamErr = wire.WriteFrame(bw, resp); streamErr == nil {
				// Flushed entry by entry: a backend that yields small entries
				// slowly must not keep what it has yielded in the buffer while
				// the client's per-frame IOTimeout runs. An entry of the
				// buffer's size or more is written through unbuffered anyway.
				streamErr = bw.Flush()
			}
			return streamErr == nil
		})
		if streamErr != nil {
			return resp, streamErr // peer gone mid-stream
		}

	case wire.OpTables:
		rep.Tables, rep.Err = s.be.Tables(s.baseCtx)

	case wire.OpBytesStored:
		rep.Stored = s.be.BytesStored()

	// The arms below go through the engine package's seam helpers: a backend
	// without the seam answers with the matching ErrNo* sentinel, which the
	// wire sends as its exact text.
	case wire.OpCompactStats:
		rep.Stats, rep.Err = engine.ReadCompactionStats(s.baseCtx, s.be)

	case wire.OpHashTree:
		rep.Tree, rep.Err = engine.HashTree(s.baseCtx, s.be, req.Table, req.Fanout)

	case wire.OpHashRange:
		rep.KeyHashes, rep.Err = engine.HashRange(s.baseCtx, s.be, req.Table, req.Fanout, req.Bucket)

	case wire.OpPing:

	default:
		return resp, fmt.Errorf("engined: op %d has no dispatch arm", req.Op)
	}
	// The deadline starts after the backend call: a digest of a large table
	// may take longer than any write should stall.
	nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	resp = wire.AppendReply(resp[:0], req.Op, rep)
	return resp, wire.WriteFrame(bw, resp)
}
