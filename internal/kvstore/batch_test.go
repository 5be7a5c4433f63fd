package kvstore

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
)

func TestBatchPutReadBack(t *testing.T) {
	s := open(t, 4, 2)
	var entries []Entry
	for i := 0; i < 120; i++ {
		entries = append(entries, Entry{
			Key:   fmt.Sprintf("k%03d", i),
			Value: []byte(fmt.Sprintf("value-%03d", i)),
		})
	}
	if err := s.BatchPut(context.Background(), "t", entries); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		got, err := s.Get(context.Background(), "t", fmt.Sprintf("k%03d", i))
		if err != nil || string(got) != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("k%03d = %q, %v", i, got, err)
		}
	}
	st := s.Stats(context.Background())
	if st.Requests < 120+120 { // 120 batched puts + 120 gets
		t.Fatalf("Requests = %d", st.Requests)
	}
	if st.BytesPut == 0 || st.SimElapsed <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Empty batch is a no-op.
	if err := s.BatchPut(context.Background(), "t", nil); err != nil {
		t.Fatal(err)
	}
}

// TestWriteAccounting: every write is one batchWrite, and books what it
// carried whatever it was called: one write call, one request per entry and
// the payload bytes. A write is not priced: the clock stays where it was,
// replicas and all.
func TestWriteAccounting(t *testing.T) {
	ctx := context.Background()
	many := make([]Entry, 50)
	keys := make([]string, len(many))
	for i := range many {
		keys[i] = fmt.Sprintf("k%02d", i)
		many[i] = Entry{Key: keys[i], Value: make([]byte, 100+i)}
	}
	one := many[:1]
	cases := []struct {
		name    string
		write   func(s *Store) error
		entries []Entry
		deletes bool
	}{
		{"Put", func(s *Store) error { return s.Put(ctx, "t", one[0].Key, one[0].Value) }, one, false},
		{"BatchPut of one", func(s *Store) error { return s.BatchPut(ctx, "t", one) }, one, false},
		{"BatchPut of many", func(s *Store) error { return s.BatchPut(ctx, "t", many) }, many, false},
		{"Delete", func(s *Store) error { return s.Delete(ctx, "t", keys[0]) }, one, true},
		{"BatchDelete of one", func(s *Store) error { return s.BatchDelete(ctx, "t", keys[:1]) }, one, true},
		{"BatchDelete of many", func(s *Store) error { return s.BatchDelete(ctx, "t", keys) }, many, true},
	}
	for _, tc := range cases {
		s := open(t, 4, 2)
		if err := tc.write(s); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var bytes int64
		for _, e := range tc.entries {
			if !tc.deletes {
				bytes += int64(len(e.Value))
			}
		}
		st := s.Stats(ctx)
		if st.WriteCalls != 1 || st.Requests != int64(len(tc.entries)) || st.BytesPut != bytes || st.BytesRead != 0 || st.SimElapsed != 0 {
			t.Errorf("%s: booked %+v; want 1 write call, %d requests, %d bytes put, nothing on the clock", tc.name, st, len(tc.entries), bytes)
		}
	}
}

func TestBatchPutSurvivesReplicaFailure(t *testing.T) {
	s, backends := openMem(t, Config{Nodes: 4, ReplicationFactor: 2})
	backends[1].SetDown(true)
	var entries []Entry
	for i := 0; i < 100; i++ {
		entries = append(entries, Entry{Key: fmt.Sprintf("k%03d", i), Value: []byte{byte(i)}})
	}
	// Every key still has one live replica (rf=2, one node down).
	if err := s.BatchPut(context.Background(), "t", entries); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got, err := s.Get(context.Background(), "t", fmt.Sprintf("k%03d", i))
		if err != nil || got[0] != byte(i) {
			t.Fatalf("k%03d = %v, %v", i, got, err)
		}
	}
}

func TestBatchPutAllReplicasDownIsAnError(t *testing.T) {
	s, backends := openMem(t, Config{Nodes: 2, ReplicationFactor: 1})
	owner := s.ring.primary("a")
	backends[owner].SetDown(true)
	err := s.BatchPut(context.Background(), "t", []Entry{{Key: "a", Value: []byte("1")}})
	if err == nil || !strings.Contains(err.Error(), "all replicas down") {
		t.Fatalf("batch to fully-dead replica set: %v", err)
	}
}

func TestDeleteAllReplicasDownIsAnError(t *testing.T) {
	s, backends := openMem(t, Config{Nodes: 2, ReplicationFactor: 1})
	if err := s.Put(context.Background(), "t", "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	owner := s.ring.primary("a")
	backends[owner].SetDown(true)
	if err := s.Delete(context.Background(), "t", "a"); err == nil {
		t.Fatal("delete with every replica down succeeded (tombstone took hold nowhere)")
	}
	// Back up: delete works and is idempotent again.
	backends[owner].SetDown(false)
	if err := s.Delete(context.Background(), "t", "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), "t", "a"); err != nil {
		t.Fatal(err)
	}
}

// TestClusterOnDisk runs a cluster on the disk backend: contents must
// survive Close + reopen of the same data directory, including replicated
// keys and batch writes.
func TestClusterOnDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Nodes: 3, ReplicationFactor: 2, Engine: EngineLSM, Dir: dir, Cost: DefaultCostModel()}
	s, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for i := 0; i < 200; i++ {
		entries = append(entries, Entry{Key: fmt.Sprintf("k%03d", i), Value: []byte(fmt.Sprintf("v%03d", i))})
	}
	if err := s.BatchPut(context.Background(), "t", entries); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), "t", "k007"); err != nil {
		t.Fatal(err)
	}
	// The fully-acknowledged tombstone is collected in the background; sample
	// the resident bytes once it is gone, not while it may be going.
	waitFor(t, "tombstone collected", func() bool { return s.Stats(context.Background()).TombstonesGCed == 1 })
	stored := s.Stats(context.Background()).BytesStored
	if stored <= 0 {
		t.Fatalf("BytesStored = %d", stored)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", i)
		got, err := r.Get(context.Background(), "t", k)
		if i == 7 {
			if err == nil {
				t.Fatalf("deleted key %s resurrected as %q", k, got)
			}
			continue
		}
		if err != nil || string(got) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("%s = %q, %v", k, got, err)
		}
	}
	if got := r.Stats(context.Background()).BytesStored; got != stored {
		t.Fatalf("BytesStored after reopen = %d, want %d", got, stored)
	}
	// The ring hashes identically across opens, so every node finds its own
	// data; scans still visit each key exactly once.
	seen := 0
	if err := r.Scan(context.Background(), "t", func(string, []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != 199 {
		t.Fatalf("scan visited %d keys, want 199", seen)
	}
}

func TestOpenUnknownEngineFails(t *testing.T) {
	if _, err := Open(context.Background(), Config{Engine: "bogus"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := Open(context.Background(), Config{Engine: "disklog", Dir: t.TempDir()}); err == nil {
		t.Fatal("disklog accepted as an engine name")
	}
	if _, err := Open(context.Background(), Config{Engine: EngineLSM}); err == nil {
		t.Fatal("lsm without Dir accepted")
	}
}

// spyBackend counts how a node's backend is written to.
type spyBackend struct {
	engine.Backend
	puts, batchPuts *atomic.Int64
}

func (b spyBackend) Put(ctx context.Context, table, key string, value []byte) error {
	b.puts.Add(1)
	return b.Backend.Put(ctx, table, key, value)
}

func (b spyBackend) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	b.batchPuts.Add(1)
	return b.Backend.BatchPut(ctx, table, entries)
}

// TestPutAndDeleteAreBatchWrites: Store.Put and Store.Delete reach every
// replica through Backend.BatchPut — the call durable engines fsync before
// acknowledging — and never through Backend.Put, which they do not.
func TestPutAndDeleteAreBatchWrites(t *testing.T) {
	const nodes, rf = 3, 2
	var puts atomic.Int64
	batchPuts := make([]atomic.Int64, nodes)
	s, err := Open(context.Background(), Config{
		Nodes: nodes, ReplicationFactor: rf,
		NewBackend: func(id int) (engine.Backend, error) {
			return spyBackend{Backend: memory.New(), puts: &puts, batchPuts: &batchPuts[id]}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	ops := []struct {
		name string
		do   func() error
	}{
		{"Put", func() error { return s.Put(ctx, "t", "k", []byte("v")) }},
		{"Delete", func() error { return s.Delete(ctx, "t", "k") }},
	}
	replicas := s.ring.replicas("k", rf)
	for _, op := range ops {
		before := make([]int64, nodes)
		for n := range before {
			before[n] = batchPuts[n].Load()
		}
		if err := op.do(); err != nil {
			t.Fatal(err)
		}
		for n := range before {
			want := int64(0)
			if slices.Contains(replicas, n) {
				want = 1
			}
			if got := batchPuts[n].Load() - before[n]; got != want {
				t.Errorf("%s: node %d took %d BatchPut calls, want %d", op.name, n, got, want)
			}
		}
		if got := puts.Load(); got != 0 {
			t.Errorf("%s: %d unsynced Backend.Put calls", op.name, got)
		}
	}
}
