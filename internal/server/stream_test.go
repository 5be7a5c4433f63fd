package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/core"
	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/kvstore"
	"rstore/internal/types"
)

// gatingBackend wraps the memory backend and, once armed, blocks every
// chunk-table Get after the first fetch round's until the caller's context
// dies. It counts chunk fetches so the tests can prove what the store did and
// did not read.
type gatingBackend struct {
	*memory.Backend
	chunkGets atomic.Int64
	armed     atomic.Bool
	blocked   chan struct{} // signaled when a Get parks on the gate
}

func (g *gatingBackend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	if table == core.TableChunks {
		n := g.chunkGets.Add(1)
		if g.armed.Load() && n > firstRound {
			select {
			case g.blocked <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return nil, false, ctx.Err()
		}
	}
	return g.Backend.Get(ctx, table, key)
}

// firstRound is how many segments a query of buildMultiChunkStore's version
// fetches in its first round: eight chunks (core's fetch batch) of one
// segment each.
const firstRound = 8

// buildMultiChunkStore returns a server over a store whose version 0 spans
// more chunks than one fetch round reads.
func buildMultiChunkStore(t *testing.T) (*httptest.Server, *core.Store, *gatingBackend) {
	t.Helper()
	gate := &gatingBackend{Backend: memory.New(), blocked: make(chan struct{}, 1)}
	kv, err := kvstore.Open(context.Background(), kvstore.Config{NewBackend: func(int) (engine.Backend, error) { return gate, nil }})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Open(context.Background(), core.Config{KV: kv, ChunkCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	puts := map[types.Key][]byte{}
	for i := 0; i < 16; i++ {
		puts[types.Key(fmt.Sprintf("doc-%02d", i))] = []byte(strings.Repeat("x", 200))
	}
	ctx := context.Background()
	if _, err := st.Commit(ctx, types.InvalidVersion, core.Change{Puts: puts}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := st.NumChunks(); n <= firstRound {
		t.Fatalf("need a version of more than one fetch round, got %d chunks", n)
	}
	ts := httptest.NewServer(New(st))
	t.Cleanup(ts.Close)
	return ts, st, gate
}

// TestHTTPVersionStreamsBeforeLastChunk is the end-to-end streaming
// acceptance test: an HTTP /version query on a version larger than one
// fetch batch delivers its first NDJSON record while the store is still
// blocked fetching a later chunk — i.e. before the last chunk was fetched —
// and cancelling the request stops further chunk fetches.
func TestHTTPVersionStreamsBeforeLastChunk(t *testing.T) {
	ts, st, gate := buildMultiChunkStore(t)
	total := int64(st.NumChunks())
	gate.armed.Store(true)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/version/0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The first record line must arrive while the second round's first
	// chunk fetch is parked on the gate — the server cannot have fetched,
	// let alone buffered, the whole version.
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatalf("first stream line: %v", err)
	}
	var sl StreamLine
	if err := json.Unmarshal(line, &sl); err != nil || sl.Record == nil {
		t.Fatalf("first line is not a record: %q (%v)", line, err)
	}
	select {
	case <-gate.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("second fetch round never started")
	}
	if got := gate.chunkGets.Load(); got >= total {
		t.Fatalf("first record only after %d/%d chunk fetches — not streaming", got, total)
	}

	// Cancelling the request must stop the chunk fetches: the count settles
	// strictly below the version's chunk span.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	var settled int64
	for {
		n := gate.chunkGets.Load()
		time.Sleep(50 * time.Millisecond)
		if gate.chunkGets.Load() == n {
			settled = n
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("chunk fetches never settled after cancel")
		}
	}
	if settled >= total {
		t.Fatalf("cancelled request still fetched %d/%d chunks", settled, total)
	}
}

// TestHTTPStreamStatsTrailer: the stats trailer closes a successful stream
// and reflects the full retrieval.
func TestHTTPStreamStatsTrailer(t *testing.T) {
	ts, st, _ := buildMultiChunkStore(t)
	resp, qr, errLine := getStream(t, ts.URL+"/version/0")
	if errLine != "" {
		t.Fatalf("error line: %s", errLine)
	}
	if resp.StatusCode != http.StatusOK || len(qr.Records) != 16 {
		t.Fatalf("status %d, %d records", resp.StatusCode, len(qr.Records))
	}
	if qr.Stats.Records != 16 || qr.Stats.Span != st.NumChunks() {
		t.Fatalf("trailer stats: %+v (chunks %d)", qr.Stats, st.NumChunks())
	}
}

// TestHTTPRangeAboveSentinel: keys sorting above the old 0xff,0xff,0xff,0xff
// sentinel are reachable through an unbounded range — the bug the explicit
// unbounded form replaces.
func TestHTTPRangeAboveSentinel(t *testing.T) {
	st, err := core.Open(context.Background(), core.Config{ChunkCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	high := types.Key("\xff\xff\xff\xff\xff-above-the-old-sentinel")
	if _, err := st.Commit(ctx, types.InvalidVersion, core.Change{Puts: map[types.Key][]byte{
		"a": []byte("1"), high: []byte("2"),
	}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st))
	defer ts.Close()

	_, qr, errLine := getStream(t, ts.URL+"/version/0/range?lo=a")
	if errLine != "" {
		t.Fatalf("error line: %s", errLine)
	}
	if len(qr.Records) != 2 {
		t.Fatalf("unbounded range returned %d records, want 2 (high key excluded?)", len(qr.Records))
	}
	// The library-level unbounded form agrees.
	recs, _, err := st.GetRangeAll(ctx, core.KeyRangeFrom("a"), 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("KeyRangeFrom: %d records, %v", len(recs), err)
	}
	// A bounded range still excludes it.
	recs, _, err = st.GetRangeAll(ctx, core.KeyRange("a", "b"), 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("bounded range: %d records, %v", len(recs), err)
	}
}

// TestBranchesSurfacesTipErrors: a branch whose tip lookup fails appears
// under errors instead of being silently dropped.
func TestBranchesSurfacesTipErrors(t *testing.T) {
	st, err := core.Open(context.Background(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	var logged []string
	srv.SetLogf(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/branches")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BranchesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// A fresh store has main unset (-1) and no errors; the shape must carry
	// both fields.
	if out.Branches["main"] != -1 || len(out.Errors) != 0 {
		t.Fatalf("branches: %+v", out)
	}
}
