package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/reclog"
	"rstore/internal/types"
)

// Decoder hardening: arbitrary bytes off the network must never panic the
// frame reader, and anything it accepts must be a frame WriteFrame could
// have produced.

func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrame(&valid, []byte("hello, frame")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var empty bytes.Buffer
	if err := WriteFrame(&empty, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// A header announcing more than MaxFrame with no body: must be
	// rejected as corruption, not allocated.
	huge := make([]byte, reclog.FrameSize)
	binary.LittleEndian.PutUint32(huge[0:4], MaxFrame+1)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return // torn/corrupt input; rejecting is the contract
		}
		// An accepted frame must re-encode to exactly the bytes consumed.
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatalf("re-encoding accepted payload: %v", err)
		}
		if len(data) < out.Len() || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted frame does not round-trip: read %d-byte payload from %d input bytes", len(payload), len(data))
		}
		// Reading into a reused buffer must yield the same payload.
		again, err := ReadFrame(bytes.NewReader(data), make([]byte, 0, 64))
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("buffer-reuse read disagrees: %v", err)
		}
	})
}

// The message decoders read whatever a peer (or a corrupted stream the frame
// checksum happened to miss) put on the wire. kind 0 is a request payload,
// kind k in 1–14 a reply payload to op k. A decoder never panics; what it
// refuses it refuses as corruption; what it accepts holds no more elements
// than the payload has bytes, so no count sized an allocation on its own;
// and the accepted value survives its own encoding — byte identity with the
// input is not required, because uvarints admit non-canonical encodings,
// but decode∘encode∘decode is a fixed point.

func FuzzMessages(f *testing.F) {
	for _, g := range golden {
		f.Add(byte(0), unhex(f, g.reqHex))
		f.Add(g.req.Op, unhex(f, g.repHex))
	}
	f.Add(byte(0), []byte{})
	f.Add(OpPing, []byte{})
	f.Add(OpPut, []byte{StErr, 'd', 'i', 's', 'k'})
	f.Add(OpCompactStats, append([]byte{StErr}, types.ErrClosed.Error()...))
	// The retired op code, bare and with a body, is refused as unknown.
	f.Add(byte(0), []byte{retiredOp})
	f.Add(byte(0), []byte{retiredOp, 1, 't'})
	// Counts the body cannot hold, and a leaf count past MaxHashFanout, must
	// be refused before anything is allocated.
	huge := binary.AppendUvarint(nil, 1<<40)
	f.Add(byte(0), append([]byte{OpBatchPut, 1, 't'}, huge...))
	f.Add(byte(0), append([]byte{OpMultiGet, 1, 't'}, huge...))
	f.Add(OpTables, append([]byte{StOK}, huge...))
	f.Add(OpMultiGet, append([]byte{StOK}, huge...))
	f.Add(OpHashRange, append([]byte{StOK}, huge...))
	f.Add(OpHashTree, binary.AppendUvarint(append([]byte{StOK}, make([]byte, 9)...), engine.MaxHashFanout+1)) // root, bytes = 0, count
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		if kind == 0 {
			fuzzRequest(t, payload)
		} else if kind <= OpHashRange {
			fuzzReply(t, kind, payload)
		}
	})
}

func fuzzRequest(t *testing.T, payload []byte) {
	r, err := ParseRequest(payload)
	if err != nil {
		if !errors.Is(err, types.ErrCorrupt) {
			t.Fatalf("rejection not classified as corruption: %v", err)
		}
		return
	}
	if n := len(r.Entries) + len(r.Keys); n > len(payload) {
		t.Fatalf("%d elements decoded from %d bytes", n, len(payload))
	}
	if r.Fanout > engine.MaxHashFanout || r.Bucket > r.Fanout {
		t.Fatalf("accepted hash bucket %d of %d", r.Bucket, r.Fanout)
	}
	again, err := ParseRequest(EncodeRequest(r))
	if err != nil || !reflect.DeepEqual(again, r) {
		t.Fatalf("request does not round-trip: %+v, then %+v (%v)", r, again, err)
	}
}

func fuzzReply(t *testing.T, op byte, payload []byte) {
	req := Request{Op: op}
	if op == OpMultiGet && len(payload) > 1 {
		// A MultiGet reply is held against its request's key count: ask for
		// as many keys as the payload claims to answer, within its size.
		n, _ := binary.Uvarint(payload[1:])
		req.Keys = make([]string, min(n, uint64(len(payload))))
	}
	rep, err := ParseReply(req, payload)
	if err != nil {
		if !errors.Is(err, types.ErrCorrupt) {
			t.Fatalf("rejection not classified as corruption: %v", err)
		}
		if !reflect.DeepEqual(rep, Reply{}) {
			t.Fatalf("a refused reply still yields %+v", rep)
		}
		return
	}
	if n := len(rep.Values) + len(rep.Tables) + len(rep.Tree.Leaves) + len(rep.KeyHashes); n > len(payload) {
		t.Fatalf("%d elements decoded from %d bytes", n, len(payload))
	}
	if len(rep.Tree.Leaves) > engine.MaxHashFanout {
		t.Fatalf("accepted %d leaves past the fanout limit", len(rep.Tree.Leaves))
	}
	if rep.Err != nil {
		// A sentinel's text names the sentinel; any other text stays a
		// hard error that carries it and matches nothing.
		text := string(payload[1:])
		for _, s := range sentinels {
			if (text == s.Error()) != errors.Is(rep.Err, s) {
				t.Fatalf("text %q decodes as %v", text, rep.Err)
			}
		}
		if !bytes.Equal(AppendReply(nil, op, Reply{Err: errors.New(text)}), payload) {
			t.Fatalf("error text %q does not re-encode to itself", text)
		}
		return
	}
	again, err := ParseReply(req, AppendReply(nil, op, rep))
	if err != nil || !reflect.DeepEqual(again, rep) {
		t.Fatalf("reply to op %d does not round-trip: %+v, then %+v (%v)", op, rep, again, err)
	}
}
