package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/types"
)

// golden pins the grammar: every literal below was captured from the
// encoders of the commit before the grammar moved into this package (its
// remote.Client talking to its engined through a recording proxy), so a
// daemon of that build and a client of this one still understand each other.
// reqRaw / repRaw give the offset at which a message's raw last field begins
// (0: the grammar has none): cutting or extending a message inside it yields
// another valid message, anywhere else it must be refused.
var golden = []struct {
	name   string
	req    Request
	reqHex string
	reqRaw int
	rep    Reply
	repHex string
	repRaw int
}{
	{name: "put", req: Request{Op: OpPut, Table: "t", Key: "k1", Value: []byte("hello")}, reqHex: "010174026b3168656c6c6f", reqRaw: 6,
		repHex: "01"},
	{name: "get", req: Request{Op: OpGet, Table: "t", Key: "k1"}, reqHex: "020174026b31",
		rep: Reply{Found: true, Value: []byte("hello")}, repHex: "0168656c6c6f", repRaw: 1},
	{name: "get absent", req: Request{Op: OpGet, Table: "t", Key: "nope"}, reqHex: "020174046e6f7065",
		repHex: "03"},
	{name: "delete", req: Request{Op: OpDelete, Table: "t", Key: "k1"}, reqHex: "030174026b31",
		repHex: "01"},
	{name: "batchput", req: Request{Op: OpBatchPut, Table: "t", Entries: []engine.Entry{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte{}}}}, reqHex: "0401740201610131016200",
		repHex: "01"},
	{name: "scan entry", req: Request{Op: OpScan, Table: "t"}, reqHex: "050174",
		rep: Reply{More: true, Key: "a", Value: []byte("1")}, repHex: "04016131", repRaw: 3},
	{name: "scan empty entry", req: Request{Op: OpScan, Table: "t"}, reqHex: "050174",
		rep: Reply{More: true, Key: "b", Value: []byte{}}, repHex: "040162", repRaw: 3},
	{name: "scan end", req: Request{Op: OpScan, Table: "t"}, reqHex: "050174",
		repHex: "05"},
	{name: "tables", req: Request{Op: OpTables}, reqHex: "06",
		rep: Reply{Tables: []string{"t", "u"}}, repHex: "010201740175"},
	{name: "bytes stored", req: Request{Op: OpBytesStored}, reqHex: "07",
		rep: Reply{Stored: 3}, repHex: "0103"},
	{name: "ping", req: Request{Op: OpPing}, reqHex: "08",
		repHex: "01"},
	{name: "compact stats", req: Request{Op: OpCompactStats}, reqHex: "0a",
		rep: Reply{Stats: engine.CompactionStats{DiskBytes: 1000, LiveBytes: 300, Segments: 5}}, repHex: "01e807ac020005"},
	{name: "multiget", req: Request{Op: OpMultiGet, Table: "t", Keys: []string{"a", "missing", "b"}}, reqHex: "0c0174030161076d697373696e670162",
		rep: Reply{Values: [][]byte{[]byte("1"), nil, nil}, Present: []bool{true, false, true}}, repHex: "0103010131000100"},
	{name: "hash tree", req: Request{Op: OpHashTree, Table: "t", Fanout: 4}, reqHex: "0d017404",
		rep: Reply{Tree: engine.TreeDigest{Root: 0xd06028ec1983242a, Bytes: 3, Leaves: []engine.LeafDigest{
			{Hash: 0xd113cc18678692d2, Keys: 1}, {Hash: 0x082f4407b4e8c68a, Keys: 1}, {}, {}}}},
		repHex: "012a248319ec2860d00304d292866718cc13d1018ac6e8b407442f0801000000000000000000000000000000000000"},
	{name: "hash range", req: Request{Op: OpHashRange, Table: "t", Fanout: 4, Bucket: 1}, reqHex: "0e01740401",
		rep: Reply{KeyHashes: []engine.KeyHash{{Key: "b", Hash: 0x082f4407b4e8c68a}}}, repHex: "010101628ac6e8b407442f08"},
	{name: "hash range empty", req: Request{Op: OpHashRange, Table: "t", Fanout: 4, Bucket: 2}, reqHex: "0e01740402",
		rep: Reply{KeyHashes: []engine.KeyHash{}}, repHex: "0100"},
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenMessages: for every op a request and a response, both ways —
// what this build encodes is the literal, and what it decodes from the
// literal is the value.
func TestGoldenMessages(t *testing.T) {
	seen := make(map[byte]bool)
	for _, g := range golden {
		seen[g.req.Op] = true
		reqLit, repLit := unhex(t, g.reqHex), unhex(t, g.repHex)
		if got := EncodeRequest(g.req); !bytes.Equal(got, reqLit) {
			t.Errorf("%s: request encodes as %x, want %x", g.name, got, reqLit)
		}
		if got, err := ParseRequest(reqLit); err != nil || !reflect.DeepEqual(got, g.req) {
			t.Errorf("%s: request decodes as %+v, %v; want %+v", g.name, got, err, g.req)
		}
		if got := AppendReply(nil, g.req.Op, g.rep); !bytes.Equal(got, repLit) {
			t.Errorf("%s: reply encodes as %x, want %x", g.name, got, repLit)
		}
		if got, err := ParseReply(g.req, repLit); err != nil || !reflect.DeepEqual(got, g.rep) {
			t.Errorf("%s: reply decodes as %+v, %v; want %+v", g.name, got, err, g.rep)
		}
	}
	for op := OpPut; op <= OpHashRange; op++ {
		if !seen[op] && !slices.Contains(retiredOps, op) {
			t.Errorf("op %d has no golden message", op)
		}
	}
	for _, op := range retiredOps {
		if seen[op] {
			t.Errorf("retired op %d has a golden message", op)
		}
		if _, err := ParseRequest([]byte{op}); !errors.Is(err, types.ErrCorrupt) || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("retired op %d: %v, want an unknown op", op, err)
		}
	}
}

// retiredOps are the codes the on-demand compaction (9) and the node wipe
// (11) held; no op reuses them.
var retiredOps = []byte{9, 11}

// TestRequestWriterWritesTheFrame: RequestLen is the length of every golden
// request, and a RequestWriter, one for all of them in turn, writes each as
// WriteFrame writes its literal — the values it sends apart from the framing
// included.
func TestRequestWriterWritesTheFrame(t *testing.T) {
	var rw RequestWriter
	for _, g := range golden {
		lit := unhex(t, g.reqHex)
		if got := RequestLen(g.req); got != len(lit) {
			t.Errorf("%s: RequestLen %d, the request is %d bytes", g.name, got, len(lit))
		}
		var want, got bytes.Buffer
		if err := WriteFrame(&want, lit); err != nil {
			t.Fatal(err)
		}
		if err := rw.Write(&got, g.req); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: written as %x (%v), want %x", g.name, got.Bytes(), err, want.Bytes())
		}
	}
}

// TestGoldenErrors: the StErr text of each sentinel — however the backend
// wrapped it — and of a plain error, and what the client makes of them.
func TestGoldenErrors(t *testing.T) {
	for _, g := range []struct {
		sentinel error
		repHex   string
	}{
		{types.ErrClosed, "027273746f72653a2073746f726520636c6f736564"},
		{engine.ErrNoCompaction, "02656e67696e653a206261636b656e6420646f6573206e6f7420737570706f727420636f6d70616374696f6e"},
		{engine.ErrNoHashRange, "02656e67696e653a206261636b656e6420646f6573206e6f7420737570706f727420686173682072616e676573"},
	} {
		lit := unhex(t, g.repHex)
		wrapped := fmt.Errorf("lsm: table %q: %w", "t", g.sentinel)
		if got := AppendReply(nil, OpPut, Reply{Err: wrapped}); !bytes.Equal(got, lit) {
			t.Errorf("%v encodes as %x, want %x", g.sentinel, got, lit)
		}
		rep, err := ParseReply(Request{Op: OpPut}, lit)
		if err != nil || !errors.Is(rep.Err, g.sentinel) {
			t.Errorf("%v decodes as %v, %v", g.sentinel, rep.Err, err)
		}
	}
	lit := unhex(t, "026469736b206f6e2066697265")
	if got := AppendReply(nil, OpPut, Reply{Err: errors.New("disk on fire")}); !bytes.Equal(got, lit) {
		t.Errorf("plain error encodes as %x, want %x", got, lit)
	}
	rep, err := ParseReply(Request{Op: OpPut}, lit)
	if err != nil || rep.Err == nil || rep.Err.Error() != "remote node: disk on fire" {
		t.Fatalf("plain error decodes as %v, %v", rep.Err, err)
	}
	for _, s := range sentinels {
		if errors.Is(rep.Err, s) || errors.Is(rep.Err, engine.ErrUnavailable) {
			t.Errorf("plain error matches %v", s)
		}
	}
}

// TestMessagesConsumedOrCorrupt: every message cut short at every length,
// or followed by one extra byte, is refused as types.ErrCorrupt — unless the
// cut or the byte falls in a raw last field, where it is a different valid
// message.
func TestMessagesConsumedOrCorrupt(t *testing.T) {
	refused := func(name string, raw int, lit []byte, parse func([]byte) error) {
		t.Helper()
		variants := [][]byte{append(append([]byte(nil), lit...), 0x01)}
		for cut := 0; cut < len(lit); cut++ {
			variants = append(variants, lit[:cut])
		}
		for _, v := range variants {
			err := parse(v)
			if raw > 0 && len(v) >= raw {
				if err != nil {
					t.Errorf("%s: %x differs from %x only in its raw field and is refused: %v", name, v, lit, err)
				}
				continue
			}
			if !errors.Is(err, types.ErrCorrupt) {
				t.Errorf("%s: %x (from %x) is not refused as corrupt: %v", name, v, lit, err)
			}
		}
	}
	for _, g := range golden {
		refused(g.name+" request", g.reqRaw, unhex(t, g.reqHex), func(b []byte) error {
			_, err := ParseRequest(b)
			return err
		})
		refused(g.name+" reply", g.repRaw, unhex(t, g.repHex), func(b []byte) error {
			rep, err := ParseReply(g.req, b)
			if err != nil && !reflect.DeepEqual(rep, Reply{}) {
				t.Errorf("%s: refused reply %x still yields %+v", g.name, b, rep)
			}
			return err
		})
	}
}

// TestMessagesRefuseWhatTheGrammarExcludes: well-framed bodies that say
// something no encoder would.
func TestMessagesRefuseWhatTheGrammarExcludes(t *testing.T) {
	for name, b := range map[string]string{
		"unknown op":             "0f",
		"op zero":                "00",
		"batchput count > body":  "04017405016100",
		"multiget count > body":  "0c0174ffffffff0f0161",
		"hash fanout zero":       "0d017400",
		"hash fanout over limit": "0d01748120",
		"hash bucket = fanout":   "0e01740404",
	} {
		if _, err := ParseRequest(unhex(t, b)); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("request %s (%s): %v", name, b, err)
		}
	}
	three := Request{Op: OpMultiGet, Table: "t", Keys: []string{"a", "b", "c"}}
	for name, c := range map[string]struct {
		req Request
		hex string
	}{
		"multiget short count":   {three, "01020000"},
		"multiget long count":    {three, "010400000000"},
		"multiget bad flag":      {three, "0103000200"},
		"multiget tail":          {three, "010300000000"},
		"status of another op":   {Request{Op: OpPut}, "03"},
		"scan answered StOK":     {Request{Op: OpScan}, "01"},
		"tables count > body":    {Request{Op: OpTables}, "01ffffffff0f0174"},
		"tree leaves over limit": {Request{Op: OpHashTree}, "01" + "0000000000000000" + "00" + "8120"},
		"unknown status":         {Request{Op: OpPing}, "09"},
	} {
		if rep, err := ParseReply(c.req, unhex(t, c.hex)); !errors.Is(err, types.ErrCorrupt) || !reflect.DeepEqual(rep, Reply{}) {
			t.Errorf("reply %s (%s): %+v, %v", name, c.hex, rep, err)
		}
	}
}
