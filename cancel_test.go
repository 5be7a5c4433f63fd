package rstore_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rstore"
	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
)

// countingBackend wraps the memory backend and counts chunk-table point
// reads, so a test can observe exactly how much work a storage node did
// for a query.
type countingBackend struct {
	*memory.Backend
	chunkGets *atomic.Int64
}

func (b *countingBackend) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	if table == "chunks" {
		b.chunkGets.Add(1)
	}
	return b.Backend.Get(ctx, table, key)
}

// MultiGet reads a batch through Get, so the batch's keys are counted too.
func (b *countingBackend) MultiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	return engine.GetEach(ctx, b, table, keys)
}

// TestRemoteClusterCancellationStopsNodeScans is the cancellation
// acceptance test over a real TCP cluster: cancelling a streaming query
// mid-flight aborts the node-side chunk scan — the daemons' operation
// counts settle strictly below the version's chunk span instead of the
// store finishing a retrieval nobody is waiting for.
func TestRemoteClusterCancellationStopsNodeScans(t *testing.T) {
	const nNodes = 3
	var chunkGets atomic.Int64
	addrs := make([]string, nNodes)
	for i := 0; i < nNodes; i++ {
		srv, err := engined.Start("127.0.0.1:0", &countingBackend{Backend: memory.New(), chunkGets: &chunkGets})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr().String()
	}
	kv, err := rstore.OpenCluster(context.Background(), rstore.ClusterConfig{
		Engine: rstore.EngineRemote, NodeAddrs: addrs,
		Remote: remote.Options{Attempts: 2, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	// No cache: every chunk consult is a real node read the counter sees.
	st, err := rstore.Open(context.Background(), rstore.Config{KV: kv, ChunkCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ctx := context.Background()
	puts := map[rstore.Key][]byte{}
	for i := 0; i < 16; i++ {
		puts[rstore.Key(fmt.Sprintf("doc-%02d", i))] = []byte(strings.Repeat("x", 200))
	}
	v, err := st.Commit(ctx, rstore.NoParent, rstore.Change{Puts: puts})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// A query fetches eight chunks a round: the version needs a second.
	total := int64(st.NumChunks())
	if total <= 8 {
		t.Fatalf("need a version of more than one fetch round, got %d chunks", total)
	}

	chunkGets.Store(0)
	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var sawErr error
	n := 0
	for _, err := range st.GetVersion(qctx, v).Records() {
		if err != nil {
			sawErr = err
			break
		}
		if n++; n == 1 {
			cancel() // first record in hand: the rest is unwanted
		}
	}
	if sawErr == nil {
		t.Fatal("cancelled cursor drained cleanly")
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("cursor error does not carry context.Canceled: %v", sawErr)
	}

	// The node-side reads must stop: the count settles (no background
	// fetching continues) strictly below the version's chunk span.
	var settled int64
	deadline := time.Now().Add(5 * time.Second)
	for {
		c := chunkGets.Load()
		time.Sleep(50 * time.Millisecond)
		if chunkGets.Load() == c {
			settled = c
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node-side chunk reads never settled")
		}
	}
	if settled == 0 || settled >= total {
		t.Fatalf("node-side chunk reads = %d of %d total chunks (want 0 < reads < total)", settled, total)
	}

	// The store remains fully usable on a fresh context.
	recs, _, err := st.GetVersionAll(ctx, v)
	if err != nil || len(recs) != 16 {
		t.Fatalf("store unusable after cancelled query: %d records, %v", len(recs), err)
	}
}

// engine.Backend conformance of the wrapper (compile-time).
var _ engine.Backend = (*countingBackend)(nil)
