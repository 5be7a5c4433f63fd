// Package engined serves any local engine.Backend over the TCP protocol of
// internal/engine/remote/wire, making it a storage node that
// internal/engine/remote clients (and therefore whole kvstore clusters) can
// use in place of an in-process backend. One goroutine per connection;
// requests on a connection are served serially, concurrency comes from
// clients pooling connections.
//
// The server does not own the backend: callers open it, pass it in, and
// close it after the server stops (cmd/rstore-node wires up that lifecycle
// for a disklog backend).
package engined

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rstore/internal/codec"
	"rstore/internal/engine"
	"rstore/internal/engine/remote/wire"
	"rstore/internal/types"
)

// Server serves one backend on one listener.
type Server struct {
	be engine.Backend

	// baseCtx scopes every backend operation the server issues; Close
	// cancels it so in-flight work aborts, Shutdown leaves it live until
	// the drain deadline passes.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New builds a server over a backend; call Serve to start it.
func New(be engine.Backend) *Server {
	//lint:rstore-vet ctxfirst: the daemon is a lifecycle root — per-connection contexts derive from it and Close/Shutdown cancel it
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{be: be, baseCtx: ctx, cancelBase: cancel, conns: make(map[net.Conn]struct{})}
}

// Start listens on addr (host:port; port 0 picks a free one) and serves in
// the background. The chosen address is available via Addr.
func Start(addr string, be engine.Backend) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("engined: %w", err)
	}
	s := New(be)
	s.ln = ln // assigned before Serve so Addr works immediately
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return s, nil
}

// Addr returns the listener's address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Close, returning nil once closed.
// Accept errors while the server is live (fd exhaustion, transient network
// failures) are retried with capped backoff rather than killing the loop —
// a storage daemon that silently stops accepting while its process stays
// up (holding the data directory lock) is the worst failure mode.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("engined: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	backoff := 5 * time.Millisecond
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
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

// Close stops accepting, severs every open connection, cancels in-flight
// backend operations, and waits for the per-connection goroutines. The
// backend is left open (the caller owns it). Closing twice is a no-op.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	// Sever connections outside the table lock: Close can block on a
	// lingering peer, and handleConn goroutines need mu to deregister.
	for _, nc := range conns {
		nc.Close()
	}
	s.cancelBase()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// Shutdown drains the server gracefully: it stops accepting, lets every
// in-flight request finish writing its response, and closes connections as
// they go idle (each pooled client connection is nudged with an immediate
// read deadline, so blocked between-request reads return right away while
// responses in progress complete — the read deadline only bites on the NEXT
// request read). If ctx ends before the drain completes, the remaining
// connections are severed hard and ctx's error is returned. The backend is
// left open either way; Shutdown twice (or after Close) is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for nc := range s.conns {
		nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelBase()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		conns := make([]net.Conn, 0, len(s.conns))
		for nc := range s.conns {
			conns = append(conns, nc)
		}
		s.mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
		s.cancelBase()
		<-done
		return ctx.Err()
	}
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
	if len(payload) == 0 {
		return nil, nil, fmt.Errorf("engined: empty request frame")
	}
	if resp, err = s.serveOp(nc, bw, payload[0], payload[1:], resp[:0]); err != nil {
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

// reply frames a response whose payload is status followed by body.
func reply(bw *bufio.Writer, resp []byte, status byte, body []byte) ([]byte, error) {
	resp = append(resp[:0], status)
	resp = append(resp, body...)
	return resp, wire.WriteFrame(bw, resp)
}

// replyErr reports a backend failure to the client. Sentinels the client
// maps back (remote.decodeErr) travel as their exact text, so errors.Is
// keeps working across the wire however the backend wrapped them.
func replyErr(bw *bufio.Writer, resp []byte, err error) ([]byte, error) {
	msg := err.Error()
	switch {
	case errors.Is(err, types.ErrClosed):
		msg = types.ErrClosed.Error()
	case errors.Is(err, engine.ErrNoCompaction):
		msg = engine.ErrNoCompaction.Error()
	case errors.Is(err, engine.ErrNoReset):
		msg = engine.ErrNoReset.Error()
	case errors.Is(err, engine.ErrNoHashRange):
		msg = engine.ErrNoHashRange.Error()
	}
	return reply(bw, resp, wire.StErr, []byte(msg))
}

// serveOp decodes and executes one request, writing the response frame(s)
// to bw. The returned buffer is reused across requests; a non-nil error
// means the connection is unusable (decode failure or mid-stream write
// error).
func (s *Server) serveOp(nc net.Conn, bw *bufio.Writer, op byte, body, resp []byte) ([]byte, error) {
	nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	switch op {
	case wire.OpPut:
		table, rest, err := codec.String(body)
		if err != nil {
			return resp, err
		}
		key, value, err := codec.String(rest)
		if err != nil {
			return resp, err
		}
		if err := s.be.Put(s.baseCtx, table, key, value); err != nil {
			return replyErr(bw, resp, err)
		}
		return reply(bw, resp, wire.StOK, nil)

	case wire.OpGet:
		table, rest, err := codec.String(body)
		if err != nil {
			return resp, err
		}
		key, _, err := codec.String(rest)
		if err != nil {
			return resp, err
		}
		value, ok, err := s.be.Get(s.baseCtx, table, key)
		if err != nil {
			return replyErr(bw, resp, err)
		}
		if !ok {
			return reply(bw, resp, wire.StNotFound, nil)
		}
		return reply(bw, resp, wire.StOK, value)

	case wire.OpDelete:
		table, rest, err := codec.String(body)
		if err != nil {
			return resp, err
		}
		key, _, err := codec.String(rest)
		if err != nil {
			return resp, err
		}
		if err := s.be.Delete(s.baseCtx, table, key); err != nil {
			return replyErr(bw, resp, err)
		}
		return reply(bw, resp, wire.StOK, nil)

	case wire.OpBatchPut:
		table, rest, err := codec.String(body)
		if err != nil {
			return resp, err
		}
		n, rest, err := codec.Uvarint(rest)
		if err != nil {
			return resp, err
		}
		// Every entry needs at least two length prefixes in the body; a
		// count the body cannot possibly hold is stream corruption (or a
		// hostile client) and must not size an allocation.
		if n > uint64(len(rest)/2)+1 {
			return resp, fmt.Errorf("engined: batch count %d exceeds body", n)
		}
		entries := make([]engine.Entry, 0, n)
		for i := uint64(0); i < n; i++ {
			var key string
			key, rest, err = codec.String(rest)
			if err != nil {
				return resp, err
			}
			var value []byte
			value, rest, err = codec.Bytes(rest)
			if err != nil {
				return resp, err
			}
			entries = append(entries, engine.Entry{Key: key, Value: value})
		}
		if err := s.be.BatchPut(s.baseCtx, table, entries); err != nil {
			return replyErr(bw, resp, err)
		}
		return reply(bw, resp, wire.StOK, nil)

	case wire.OpMultiGet:
		table, rest, err := codec.String(body)
		if err != nil {
			return resp, err
		}
		n, rest, err := codec.Uvarint(rest)
		if err != nil {
			return resp, err
		}
		// Every key needs at least its length prefix in the body; a count
		// the body cannot possibly hold is stream corruption (or a hostile
		// client) and must not size an allocation.
		if n > uint64(len(rest))+1 {
			return resp, fmt.Errorf("engined: multiget count %d exceeds body", n)
		}
		keys := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			var k string
			k, rest, err = codec.String(rest)
			if err != nil {
				return resp, err
			}
			keys = append(keys, k)
		}
		resp = append(resp[:0], wire.StOK)
		resp = codec.PutUvarint(resp, uint64(len(keys)))
		for _, k := range keys {
			value, ok, err := s.be.Get(s.baseCtx, table, k)
			if err != nil {
				return replyErr(bw, resp, err)
			}
			if !ok {
				resp = append(resp, 0)
				continue
			}
			resp = append(resp, 1)
			resp = codec.PutBytes(resp, value)
		}
		// A batch whose combined values exceed MaxFrame fails the frame
		// write and drops the connection; the cluster layer falls back to
		// per-key reads for such batches.
		return resp, wire.WriteFrame(bw, resp)

	case wire.OpScan:
		table, _, err := codec.String(body)
		if err != nil {
			return resp, err
		}
		var streamErr error
		scanErr := s.be.Scan(s.baseCtx, table, func(key string, value []byte) bool {
			// Refresh per entry: a progressing stream may legitimately
			// outlast one writeTimeout; a stalled peer must not.
			nc.SetWriteDeadline(time.Now().Add(writeTimeout))
			resp = append(resp[:0], wire.StEntry)
			resp = codec.PutString(resp, key)
			resp = append(resp, value...)
			if streamErr = wire.WriteFrame(bw, resp); streamErr != nil {
				return false
			}
			return true
		})
		if streamErr != nil {
			return resp, streamErr // peer gone mid-stream
		}
		if scanErr != nil {
			return replyErr(bw, resp, scanErr)
		}
		return reply(bw, resp, wire.StEnd, nil)

	case wire.OpTables:
		tables, err := s.be.Tables(s.baseCtx)
		if err != nil {
			return replyErr(bw, resp, err)
		}
		resp = append(resp[:0], wire.StOK)
		resp = codec.PutUvarint(resp, uint64(len(tables)))
		for _, t := range tables {
			resp = codec.PutString(resp, t)
		}
		return resp, wire.WriteFrame(bw, resp)

	case wire.OpBytesStored:
		resp = append(resp[:0], wire.StOK)
		resp = codec.PutUvarint(resp, uint64(s.be.BytesStored()))
		return resp, wire.WriteFrame(bw, resp)

	// The four arms below go through the engine package's seam helpers: a
	// backend without the seam answers with the matching ErrNo* sentinel,
	// which replyErr sends as its exact text.
	case wire.OpCompact, wire.OpCompactStats:
		run := engine.Compact
		if op == wire.OpCompactStats {
			run = engine.ReadCompactionStats
		}
		st, err := run(s.baseCtx, s.be)
		// A long merge may outlive the deadline set at dispatch; the
		// response write gets a fresh one.
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err != nil {
			return replyErr(bw, resp, err)
		}
		resp = append(resp[:0], wire.StOK)
		resp = wire.PutCompactionStats(resp, st)
		return resp, wire.WriteFrame(bw, resp)

	case wire.OpReset:
		err := engine.Reset(s.baseCtx, s.be)
		// A large wipe may outlive the deadline set at dispatch; the
		// response write gets a fresh one.
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err != nil {
			return replyErr(bw, resp, err)
		}
		return reply(bw, resp, wire.StOK, nil)

	case wire.OpHashTree:
		table, rest, err := codec.String(body)
		if err != nil {
			return resp, err
		}
		fanout, _, err := codec.Uvarint(rest)
		if err != nil {
			return resp, err
		}
		if fanout > engine.MaxHashFanout {
			return resp, fmt.Errorf("engined: hash fanout %d exceeds limit", fanout)
		}
		d, err := engine.HashTree(s.baseCtx, s.be, table, int(fanout))
		// A full-table sweep may outlive the deadline set at dispatch; the
		// response write gets a fresh one.
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err != nil {
			return replyErr(bw, resp, err)
		}
		resp = append(resp[:0], wire.StOK)
		resp = wire.PutHashTree(resp, d)
		return resp, wire.WriteFrame(bw, resp)

	case wire.OpHashRange:
		table, rest, err := codec.String(body)
		if err != nil {
			return resp, err
		}
		fanout, rest, err := codec.Uvarint(rest)
		if err != nil {
			return resp, err
		}
		bucket, _, err := codec.Uvarint(rest)
		if err != nil {
			return resp, err
		}
		if fanout > engine.MaxHashFanout || bucket >= fanout {
			return resp, fmt.Errorf("engined: hash bucket %d/%d out of range", bucket, fanout)
		}
		khs, err := engine.HashRange(s.baseCtx, s.be, table, int(fanout), int(bucket))
		// A bucket sweep may outlive the deadline set at dispatch; the
		// response write gets a fresh one.
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err != nil {
			return replyErr(bw, resp, err)
		}
		resp = append(resp[:0], wire.StOK)
		resp = wire.PutHashRange(resp, khs)
		return resp, wire.WriteFrame(bw, resp)

	case wire.OpPing:
		return reply(bw, resp, wire.StOK, nil)

	default:
		return resp, fmt.Errorf("engined: unknown op %d", op)
	}
}
