package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rstore/internal/codec"
	"rstore/internal/engine"
	"rstore/internal/types"
)

// The message grammar. Each of the four functions below is one direction of
// one table — EncodeRequest / ParseRequest for what follows an op byte,
// AppendReply / ParseReply for what answers it — so what bytes a message is
// is written here and nowhere else:
//
//	request := OpPut       table(string) key(string) value(raw)
//	         | OpGet       table(string) key(string)
//	         | OpDelete    table(string) key(string)
//	         | OpBatchPut  table(string) count(uvarint) count × (key(string) value(bytes))
//	         | OpScan      table(string)
//	         | OpMultiGet  table(string) count(uvarint) count × key(string)
//	         | OpHashTree  table(string) fanout(uvarint)
//	         | OpHashRange table(string) fanout(uvarint) bucket(uvarint)
//	         | OpTables | OpBytesStored | OpPing | OpCompactStats
//
//	reply to any op           := StErr text(raw)   — or, when the op succeeded:
//	reply to OpGet            := StOK value(raw) | StNotFound
//	reply to OpScan           := (StEntry key(string) value(raw))* StEnd, one frame each
//	reply to OpMultiGet       := StOK count(uvarint) count × (0x00 | 0x01 value(bytes))
//	reply to OpTables         := StOK count(uvarint) count × name(string)
//	reply to OpBytesStored    := StOK bytes(uvarint)
//	reply to OpCompactStats   := StOK disk(uvarint) live(uvarint) compacted(uvarint) segments(uvarint)
//	reply to OpHashTree       := StOK root(u64le) bytes(uvarint) count(uvarint) count × (hash(u64le) keys(uvarint))
//	reply to OpHashRange      := StOK count(uvarint) count × (key(string) hash(u64le))
//	reply to the others       := StOK
//
// Two rules hold for every decoder. A body is consumed to its last byte or
// the message is types.ErrCorrupt — a raw field is the rest of the payload
// and so always the grammar's last. And a count read from the body sizes an
// allocation only after reader.count has held it against the bytes that
// follow. On the client a refused reply is a transport failure (retried on
// a fresh connection); on the server a refused request ends the connection
// before the backend is touched.

// Request is one request message. Op says which of the other fields its
// grammar carries; the rest are ignored by the encoder and left zero by the
// decoder.
type Request struct {
	Op      byte
	Table   string         // every op that has a body
	Key     string         // OpPut, OpGet, OpDelete
	Value   []byte         // OpPut
	Entries []engine.Entry // OpBatchPut
	Keys    []string       // OpMultiGet
	Fanout  int            // OpHashTree, OpHashRange: in [1, engine.MaxHashFanout]
	Bucket  int            // OpHashRange: in [0, Fanout)
}

// EncodeRequest returns r's payload, op byte first, in a buffer of its own,
// sized once (RequestLen): grown by append, a frame of megabyte values is
// copied several times over on its way to its size.
func EncodeRequest(r Request) []byte {
	return appendRequest(make([]byte, 0, RequestLen(r)), r, func(buf, value []byte) []byte { return append(buf, value...) })
}

// RequestLen is the length of r's payload: what EncodeRequest returns.
func RequestLen(r Request) int {
	n := 1
	switch r.Op {
	case OpTables, OpBytesStored, OpPing, OpCompactStats:
		return n
	}
	n += codec.BytesLen(len(r.Table))
	switch r.Op {
	case OpPut:
		n += codec.BytesLen(len(r.Key)) + len(r.Value)
	case OpGet, OpDelete:
		n += codec.BytesLen(len(r.Key))
	case OpBatchPut:
		n += codec.UvarintLen(uint64(len(r.Entries)))
		for _, e := range r.Entries {
			n += codec.BytesLen(len(e.Key)) + codec.BytesLen(len(e.Value))
		}
	case OpMultiGet:
		n += codec.UvarintLen(uint64(len(r.Keys)))
		for _, k := range r.Keys {
			n += codec.BytesLen(len(k))
		}
	case OpHashTree:
		n += codec.UvarintLen(uint64(r.Fanout))
	case OpHashRange:
		n += codec.UvarintLen(uint64(r.Fanout)) + codec.UvarintLen(uint64(r.Bucket))
	}
	return n
}

// appendRequest appends r's payload to buf, all but its values — a Put's, a
// BatchPut's entries' — each of which it hands to value with the payload
// before it, to append or to send apart (RequestWriter), and goes on from
// what value returns.
func appendRequest(buf []byte, r Request, value func(buf, v []byte) []byte) []byte {
	buf = append(buf, r.Op)
	switch r.Op {
	case OpTables, OpBytesStored, OpPing, OpCompactStats:
		return buf
	}
	buf = codec.PutString(buf, r.Table)
	switch r.Op {
	case OpPut:
		buf = codec.PutString(buf, r.Key)
		buf = value(buf, r.Value)
	case OpGet, OpDelete:
		buf = codec.PutString(buf, r.Key)
	case OpBatchPut:
		buf = codec.PutUvarint(buf, uint64(len(r.Entries)))
		for _, e := range r.Entries {
			buf = codec.PutString(buf, e.Key)
			buf = value(codec.PutUvarint(buf, uint64(len(e.Value))), e.Value)
		}
	case OpMultiGet:
		buf = codec.PutUvarint(buf, uint64(len(r.Keys)))
		for _, k := range r.Keys {
			buf = codec.PutString(buf, k)
		}
	case OpHashTree:
		buf = codec.PutUvarint(buf, uint64(r.Fanout))
	case OpHashRange:
		buf = codec.PutUvarint(buf, uint64(r.Fanout))
		buf = codec.PutUvarint(buf, uint64(r.Bucket))
	}
	return buf
}

// ParseRequest decodes the payload EncodeRequest produced. Value and the
// entries' values alias payload: the server hands them to a backend call
// that returns before the receive buffer is reused.
func ParseRequest(payload []byte) (Request, error) {
	if len(payload) == 0 {
		return Request{}, corrupt("empty request frame")
	}
	r, d := Request{Op: payload[0]}, reader{rest: payload[1:]}
	switch r.Op {
	case OpTables, OpBytesStored, OpPing, OpCompactStats:
	case OpPut:
		r.Table, r.Key, r.Value = d.str(), d.str(), d.tail()
	case OpGet, OpDelete:
		r.Table, r.Key = d.str(), d.str()
	case OpBatchPut:
		r.Table = d.str()
		// An entry is at least its two length prefixes.
		r.Entries = make([]engine.Entry, d.count(2))
		for i := range r.Entries {
			r.Entries[i] = engine.Entry{Key: d.str(), Value: d.bytes()}
		}
	case OpScan:
		r.Table = d.str()
	case OpMultiGet:
		r.Table = d.str()
		r.Keys = make([]string, d.count(1))
		for i := range r.Keys {
			r.Keys[i] = d.str()
		}
	case OpHashTree, OpHashRange:
		r.Table = d.str()
		fanout, bucket := d.uvarint(), uint64(0)
		if r.Op == OpHashRange {
			bucket = d.uvarint()
		}
		// A digest is sized by its fanout, so one out of range is refused
		// here rather than handed to a backend. Clients check before they
		// send (engine.CheckHashFanout, engine.CheckHashBucket).
		if fanout < 1 || fanout > engine.MaxHashFanout || bucket >= fanout {
			return Request{}, corrupt("hash bucket %d of %d out of range", bucket, fanout)
		}
		r.Fanout, r.Bucket = int(fanout), int(bucket)
	default:
		return Request{}, corrupt("unknown op %d", r.Op)
	}
	if err := d.done(); err != nil {
		return Request{}, err
	}
	return r, nil
}

// Reply is one response message to a given op. A non-nil Err is the node's
// own failure (StErr) and excludes everything else; otherwise the op says
// which fields its grammar carries.
type Reply struct {
	Err       error
	Found     bool                   // OpGet: false is StNotFound
	Value     []byte                 // OpGet when Found; OpScan when More
	More      bool                   // OpScan: an StEntry (Key, Value) with more frames to follow; false is StEnd
	Key       string                 // OpScan when More
	Values    [][]byte               // OpMultiGet, in request order
	Present   []bool                 // OpMultiGet: which Values exist
	Tables    []string               // OpTables
	Stored    int64                  // OpBytesStored
	Stats     engine.CompactionStats // OpCompactStats
	Tree      engine.TreeDigest      // OpHashTree
	KeyHashes []engine.KeyHash       // OpHashRange
}

// AppendReply appends the payload that answers op with rep, status byte
// first.
func AppendReply(buf []byte, op byte, rep Reply) []byte {
	switch {
	case rep.Err != nil:
		return PutErr(append(buf, StErr), rep.Err)
	case op == OpGet && !rep.Found:
		return append(buf, StNotFound)
	case op == OpScan && !rep.More:
		return append(buf, StEnd)
	case op == OpScan:
		buf = codec.PutString(append(buf, StEntry), rep.Key)
		return append(buf, rep.Value...)
	}
	buf = append(buf, StOK)
	switch op {
	case OpGet:
		buf = append(buf, rep.Value...)
	case OpMultiGet:
		buf = codec.PutUvarint(buf, uint64(len(rep.Values)))
		for i, v := range rep.Values {
			if !rep.Present[i] {
				buf = append(buf, 0)
				continue
			}
			buf = codec.PutBytes(append(buf, 1), v)
		}
	case OpTables:
		buf = codec.PutUvarint(buf, uint64(len(rep.Tables)))
		for _, t := range rep.Tables {
			buf = codec.PutString(buf, t)
		}
	case OpBytesStored:
		buf = codec.PutUvarint(buf, uint64(rep.Stored))
	case OpCompactStats:
		buf = codec.PutUvarint(buf, uint64(rep.Stats.DiskBytes))
		buf = codec.PutUvarint(buf, uint64(rep.Stats.LiveBytes))
		buf = codec.PutUvarint(buf, uint64(rep.Stats.CompactedBytes))
		buf = codec.PutUvarint(buf, uint64(rep.Stats.Segments))
	case OpHashTree:
		// Hashes travel fixed-width: a uniformly distributed 64-bit value
		// averages more than 8 bytes as a uvarint.
		buf = binary.LittleEndian.AppendUint64(buf, rep.Tree.Root)
		buf = codec.PutUvarint(buf, uint64(rep.Tree.Bytes))
		buf = codec.PutUvarint(buf, uint64(len(rep.Tree.Leaves)))
		for _, l := range rep.Tree.Leaves {
			buf = binary.LittleEndian.AppendUint64(buf, l.Hash)
			buf = codec.PutUvarint(buf, l.Keys)
		}
	case OpHashRange:
		buf = codec.PutUvarint(buf, uint64(len(rep.KeyHashes)))
		for _, kh := range rep.KeyHashes {
			buf = codec.PutString(buf, kh.Key)
			buf = binary.LittleEndian.AppendUint64(buf, kh.Hash)
		}
	}
	return buf
}

// ParseReply decodes the payload AppendReply produced in answer to r. What
// it returns is copied out of payload — the client's receive buffer — and
// safe to keep, except a Scan entry's Value, which aliases it as the
// engine.Backend Scan contract allows. A refused payload yields no partial
// Reply.
func ParseReply(r Request, payload []byte) (Reply, error) {
	if len(payload) == 0 {
		return Reply{}, corrupt("empty response frame")
	}
	var rep Reply
	status, d := payload[0], reader{rest: payload[1:]}
	switch {
	case status == StErr:
		rep.Err = Err(d.tail())
	case r.Op == OpGet && status == StNotFound, r.Op == OpScan && status == StEnd:
	case r.Op == OpScan && status == StEntry:
		rep.More, rep.Key, rep.Value = true, d.str(), d.tail()
	case r.Op == OpScan || status != StOK:
		return Reply{}, corrupt("unexpected response status %d to op %d", status, r.Op)
	default:
		switch r.Op {
		case OpGet:
			rep.Found, rep.Value = true, append([]byte(nil), d.tail()...)
		case OpMultiGet:
			// Each result is at least its flag byte.
			n := d.count(1)
			if d.err == nil && n != len(r.Keys) {
				return Reply{}, corrupt("multiget answered %d of %d keys", n, len(r.Keys))
			}
			rep.Values, rep.Present = make([][]byte, n), make([]bool, n)
			for i := range rep.Values {
				switch flag := d.u8(); flag {
				case 0:
				case 1:
					rep.Values[i], rep.Present[i] = append([]byte(nil), d.bytes()...), true
				default:
					return Reply{}, corrupt("multiget result flag %d", flag)
				}
			}
		case OpTables:
			// Each name is at least its length prefix.
			rep.Tables = make([]string, d.count(1))
			for i := range rep.Tables {
				rep.Tables[i] = d.str()
			}
		case OpBytesStored:
			rep.Stored = int64(d.uvarint())
		case OpCompactStats:
			rep.Stats = engine.CompactionStats{
				DiskBytes:      int64(d.uvarint()),
				LiveBytes:      int64(d.uvarint()),
				CompactedBytes: int64(d.uvarint()),
				Segments:       int(d.uvarint()),
			}
		case OpHashTree:
			rep.Tree.Root, rep.Tree.Bytes = d.u64(), int64(d.uvarint())
			// Each leaf is at least 9 bytes (8-byte hash + ≥1-byte count).
			n := d.count(9)
			if n > engine.MaxHashFanout {
				return Reply{}, corrupt("hash tree of %d leaves", n)
			}
			rep.Tree.Leaves = make([]engine.LeafDigest, n)
			for i := range rep.Tree.Leaves {
				rep.Tree.Leaves[i] = engine.LeafDigest{Hash: d.u64(), Keys: d.uvarint()}
			}
		case OpHashRange:
			// Each entry is at least 9 bytes (≥1-byte length prefix + 8-byte hash).
			rep.KeyHashes = make([]engine.KeyHash, d.count(9))
			for i := range rep.KeyHashes {
				rep.KeyHashes[i] = engine.KeyHash{Key: d.str(), Hash: d.u64()}
			}
		}
	}
	if err := d.done(); err != nil {
		return Reply{}, err
	}
	return rep, nil
}

// sentinels are the errors whose identity survives the hop: the server sends
// one as its exact text however the backend wrapped it, and the client maps
// that text back, so errors.Is holds across TCP. Every other node-side error
// arrives as a plain hard error carrying the node's text.
var sentinels = []error{types.ErrClosed, engine.ErrNoCompaction, engine.ErrNoHashRange}

// PutErr appends the StErr body that reports err.
func PutErr(buf []byte, err error) []byte {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return append(buf, s.Error()...)
		}
	}
	return append(buf, err.Error()...)
}

// Err decodes the StErr body PutErr produced.
func Err(body []byte) error {
	for _, s := range sentinels {
		if string(body) == s.Error() {
			return s
		}
	}
	return fmt.Errorf("remote node: %s", body)
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{types.ErrCorrupt}, args...)...)
}

// reader consumes a message body field by field. The first failure sticks
// and empties the body, so a decoder reads its grammar straight through and
// asks once, in done, whether all of it was there and nothing more.
type reader struct {
	rest []byte
	err  error
}

func (d *reader) step(rest []byte, err error) {
	d.rest = rest
	if d.err == nil {
		d.err = err
	}
}

func (d *reader) uvarint() uint64 {
	v, rest, err := codec.Uvarint(d.rest)
	d.step(rest, err)
	return v
}

// bytes returns a length-prefixed byte string aliasing the body.
func (d *reader) bytes() []byte {
	b, rest, err := codec.Bytes(d.rest)
	d.step(rest, err)
	return b
}

func (d *reader) str() string { return string(d.bytes()) }

func (d *reader) u8() byte {
	if len(d.rest) == 0 {
		d.step(nil, corrupt("truncated message"))
		return 0
	}
	b := d.rest[0]
	d.rest = d.rest[1:]
	return b
}

func (d *reader) u64() uint64 {
	if len(d.rest) < 8 {
		d.step(nil, corrupt("short u64"))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.rest)
	d.rest = d.rest[8:]
	return v
}

// count reads an element count and refuses one the rest of the body cannot
// hold at minEach bytes an element: the one bound between a number a peer
// chose and a make.
func (d *reader) count(minEach int) int {
	n := d.uvarint()
	if n > uint64(len(d.rest)/minEach) {
		d.step(nil, corrupt("count %d exceeds the %d bytes that follow", n, len(d.rest)))
		return 0
	}
	return int(n)
}

// tail returns what is left of the body: a raw field, the grammar's last.
func (d *reader) tail() []byte {
	t := d.rest
	d.rest = nil
	return t
}

// done reports the first failure, or bytes left over after the grammar's
// last field.
func (d *reader) done() error {
	if d.err == nil && len(d.rest) != 0 {
		return corrupt("%d bytes after the end of the message", len(d.rest))
	}
	return d.err
}
