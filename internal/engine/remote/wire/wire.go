// Package wire is the binary protocol a remote storage node speaks, whole:
// the frame, the opcodes and statuses, and — in message.go — what bytes
// every request and every response is, each encoder beside its decoder. The
// client (internal/engine/remote) and the server
// (internal/engine/remote/engined) hold a Request and a Reply and never see
// the bytes.
//
// Every message — request or response — travels in one frame:
//
//	frame   := length(uint32 LE, of payload) crc32(uint32 LE, IEEE of payload) payload
//
// The checksum makes a half-written or bit-flipped frame detectable at the
// receiver instead of being decoded into garbage operations. It is the frame
// of an lsm write-ahead log, and reclog's header code writes and checks it.
//
// Request payloads start with an op byte; response payloads start with a
// status byte. Strings and byte strings are uvarint-length-prefixed
// (internal/codec). One request yields exactly one response frame, except
// Scan, which streams StEntry frames and terminates with StEnd (or StErr).
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"rstore/internal/engine"
	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

// Request opcodes (first byte of a request payload). EncodeRequest states
// each one's body, AppendReply its response.
const (
	OpPut byte = iota + 1
	OpGet
	OpDelete
	OpBatchPut
	OpScan
	OpTables
	OpBytesStored
	OpPing
	// Code 9 is retired: it compacted a node's backend on a client's
	// demand, and a node reclaims on its own write calls. A retired code
	// stays blank so the codes after it keep their values, and
	// ParseRequest refuses it as an unknown op.
	_
	// OpCompactStats reads the node's storage-reclaim stats
	// (engine.Compactor). A node whose backend cannot compact replies StErr
	// with the engine.ErrNoCompaction text.
	OpCompactStats
	// Code 11 is retired: it wiped a node's backend.
	_
	// OpMultiGet reads N keys of one table in a single round trip. Results
	// are returned in request order and their count always equals the
	// request's. This is the batched read the cluster's MultiGet path rides
	// on: one frame out, one frame back, instead of one exchange per key per
	// replica.
	OpMultiGet
	// OpHashTree fetches a hash-tree digest of one table — the anti-entropy
	// summary exchange (engine.HashRanger). A node whose backend cannot hash
	// replies StErr with the engine.ErrNoHashRange text.
	OpHashTree
	// OpHashRange drills into one bucket of the tree, listing its keys with
	// their entry hashes so the caller can diff key-by-key.
	OpHashRange
)

// Response statuses (first byte of a response payload).
const (
	// StOK acknowledges the request; op-specific results follow.
	StOK byte = iota + 1
	// StErr reports a backend error; the error text follows. The operation
	// reached the node and failed there — a hard error, not unavailability.
	StErr
	// StNotFound is Get's "key absent" result (not an error; matches the
	// engine.Backend contract).
	StNotFound
	// StEntry carries one streamed Scan key/value.
	StEntry
	// StEnd terminates a Scan stream.
	StEnd
)

// MaxFrame bounds a single payload (1 GiB): larger announced lengths are
// treated as stream corruption rather than allocated.
const MaxFrame = reclog.MaxBody

// WriteFrame frames payload onto w.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [reclog.FrameSize]byte
	reclog.PutHeader(hdr[:], payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// A RequestWriter writes requests, each as one frame, the bytes WriteFrame
// writes of EncodeRequest's payload, without copying a Put's or a BatchPut's
// values: the rest of the payload, its framing, is encoded into the writer's
// scratch, and the frame goes out as the header, the stretches of framing and
// the values between them, in one vectored write where w takes one
// (net.Buffers: writev on a TCP connection). The scratch is kept from one
// request to the next, and holds no value once a write returns. A writer
// writes one request at a time.
type RequestWriter struct {
	hdr     [reclog.FrameSize]byte
	framing []byte
	cuts    []cut
	pieces  net.Buffers
}

// A cut is a value written apart from the framing, and where it goes: after
// framing[:at].
type cut struct {
	at    int
	value []byte
}

// Write writes r to w as one frame.
func (rw *RequestWriter) Write(w io.Writer, r Request) error {
	n := RequestLen(r)
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	rw.framing = appendRequest(rw.framing[:0], r, func(buf, value []byte) []byte {
		rw.cuts = append(rw.cuts, cut{len(buf), value})
		return buf
	})
	pieces, sum, from := append(rw.pieces[:0], rw.hdr[:]), uint32(0), 0
	for _, c := range rw.cuts {
		sum = crc32.Update(crc32.Update(sum, crc32.IEEETable, rw.framing[from:c.at]), crc32.IEEETable, c.value)
		pieces, from = append(pieces, rw.framing[from:c.at], c.value), c.at
	}
	sum = crc32.Update(sum, crc32.IEEETable, rw.framing[from:])
	pieces = append(pieces, rw.framing[from:])
	reclog.PutHeaderOf(rw.hdr[:], n, sum)
	out := pieces // WriteTo consumes its slice
	_, err := out.WriteTo(w)
	// Let go of the values; a large request's framing is not kept either.
	clear(rw.cuts)
	clear(pieces)
	rw.cuts, rw.pieces, rw.framing = rw.cuts[:0], pieces[:0], engine.TrimScratch(rw.framing)
	return err
}

// ReadFrame reads one frame from r, verifying the checksum. The payload is
// read into buf when it fits (the returned slice then aliases buf), so a
// caller looping over frames can reuse one buffer.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [reclog.FrameSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: wire frame announces %d bytes", types.ErrCorrupt, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if !reclog.Intact(hdr[:], payload) {
		return nil, fmt.Errorf("%w: wire frame checksum mismatch", types.ErrCorrupt)
	}
	return payload, nil
}
