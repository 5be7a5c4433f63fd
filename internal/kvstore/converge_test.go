package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/types"
)

// replicaBarrier holds each Get of a key of table "t" until every replica's
// Get of that key has arrived, and fails one left waiting for a second.
type replicaBarrier struct {
	replicas int
	mu       sync.Mutex
	arrived  map[string]int
	open     map[string]chan struct{}
}

func (b *replicaBarrier) arrive(key string) error {
	b.mu.Lock()
	ch := b.open[key]
	if ch == nil {
		ch = make(chan struct{})
		b.open[key] = ch
	}
	if b.arrived[key]++; b.arrived[key] == b.replicas {
		close(ch)
		delete(b.open, key)
		delete(b.arrived, key)
	}
	b.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-time.After(time.Second):
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.open[key] == ch {
			b.arrived[key]--
		}
		return errors.New("a replica read of the key was not joined by the others")
	}
}

type barrierNode struct {
	engine.Backend
	b *replicaBarrier
}

func (n barrierNode) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	if table == "t" {
		if err := n.b.arrive(key); err != nil {
			return nil, false, err
		}
	}
	return n.Backend.Get(ctx, table, key)
}

// MultiGet reads a batch through Get, so each key meets the barrier.
func (n barrierNode) MultiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	return engine.GetEach(ctx, n, table, keys)
}

// TestRepairReadsReplicasAtOnce: a repair reads all of a key's replicas
// together, not a source and then each target in turn. Each replica's Get
// here waits for the other's; the read that observes the missing copy
// passes, and so must the repair's, which then writes the copy.
func TestRepairReadsReplicasAtOnce(t *testing.T) {
	ctx := context.Background()
	mems := newBackends(2)
	if err := mems[0].Put(ctx, "t", "k", envelope(envValue, 100, []byte("v"))); err != nil {
		t.Fatal(err)
	}
	bar := &replicaBarrier{replicas: 2, arrived: map[string]int{}, open: map[string]chan struct{}{}}
	s, err := Open(ctx, Config{Nodes: 2, ReplicationFactor: 2,
		NewBackend: func(id int) (engine.Backend, error) { return barrierNode{mems[id], bar}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, err := s.Get(ctx, "t", "k"); err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	waitFor(t, "the missing copy written back", func() bool { return rawEqual(t, mems[0], mems[1], "t", "k") })
}

// gatedPut is a node whose first Put stops at a gate: a write-back under way.
type gatedPut struct {
	engine.Backend
	*gate
}

func (g gatedPut) Put(ctx context.Context, table, key string, value []byte) error {
	g.pass()
	return g.Backend.Put(ctx, table, key, value)
}

// openWriteBackUnderWay opens an rf-2 cluster whose replica 1 lacks key k,
// reads k, and returns once the read's write-back of k to replica 1 has
// reached that replica and stopped there; release lets it go on.
func openWriteBackUnderWay(t *testing.T) (s *Store, mems []*memory.Backend, release func()) {
	t.Helper()
	ctx := context.Background()
	mems = newBackends(2)
	if err := mems[0].Put(ctx, "t", "k", envelope(envValue, 100, []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	g := gatedPut{mems[1], newGate()}
	s, err := Open(ctx, Config{Nodes: 2, ReplicationFactor: 2,
		NewBackend: func(id int) (engine.Backend, error) {
			if id == 1 {
				return g, nil
			}
			return mems[id], nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(g.release) }) }
	t.Cleanup(func() { release(); s.Close() })
	if _, err := s.Get(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the write-back never reached the replica")
	}
	return s, mems, release
}

// TestDeleteAfterRunningRepairIsCollected: a delete of a key whose repair is
// under way waits for it, and its tombstones are then collected at once,
// with no later observation of the key. Had the repair's delivery landed
// after the delete, replica 1 would hold the old value again.
func TestDeleteAfterRunningRepairIsCollected(t *testing.T) {
	s, mems, release := openWriteBackUnderWay(t)
	ctx := context.Background()
	deleted := make(chan error, 1)
	go func() { deleted <- s.Delete(ctx, "t", "k") }()
	time.Sleep(10 * time.Millisecond) // room for the delete to land inside the repair
	release()
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the write-back to end", func() bool { return s.Stats(ctx).RepairWrites == 1 })
	waitFor(t, "the delete's tombstones collected", func() bool { return rawLeft(t, mems, "t") == 0 })
	if _, err := s.Get(ctx, "t", "k"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("Get after the delete = %v, want not found", err)
	}
}

// TestPutDuringWriteBackSurvives: a Put of a key whose write-back is under
// way waits for it, so the write-back's older value does not land over the
// new one on the replica it repairs.
func TestPutDuringWriteBackSurvives(t *testing.T) {
	s, mems, release := openWriteBackUnderWay(t)
	ctx := context.Background()
	put := make(chan error, 1)
	go func() { put <- s.Put(ctx, "t", "k", []byte("v2")) }()
	time.Sleep(10 * time.Millisecond) // room for the write to land inside the write-back
	release()
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the write-back to end", func() bool { return s.Stats(ctx).RepairWrites == 1 })
	for i, be := range mems {
		raw, ok := rawGet(t, be, "t", "k")
		if p, _, _, err := unenvelope(raw); !ok || err != nil || string(p) != "v2" {
			t.Fatalf("replica %d holds %q after the Put, want v2", i, raw)
		}
	}
}

// TestCollectionSparesForeignWrite: another client writes a key while this
// client collects the key's tombstone, between the collection's read and its
// deletes. Each replica is re-read just before its delete, so the write goes
// with the tombstone from the replica whose delete was under way at most:
// the next replica's re-check finds it, and it stays readable.
func TestCollectionSparesForeignWrite(t *testing.T) {
	ctx := context.Background()
	mems := newBackends(2)
	g := newGate()
	s, err := Open(ctx, Config{Nodes: 2, ReplicationFactor: 2,
		NewBackend: func(id int) (engine.Backend, error) { return gatedDelete{keepOpen{mems[id]}, g}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var once sync.Once
	release := func() { once.Do(func() { close(g.release) }) }
	defer release()
	other := openOver(t, mems, 2)
	if err := s.Put(ctx, "t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the delete's collection never reached a replica")
	}
	if err := other.Put(ctx, "t", "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	release()
	waitFor(t, "the collection to end", func() bool { return s.Stats(ctx).TombstonesGCed == 1 })
	held := 0
	for _, be := range mems {
		raw, _ := rawGet(t, be, "t", "k")
		if p, _, tomb, err := unenvelope(raw); err == nil && !tomb && string(p) == "v2" {
			held++
		}
	}
	if held == 0 {
		t.Fatal("the other client's write was deleted from every replica")
	}
	if got, err := other.Get(ctx, "t", "k"); err != nil || string(got) != "v2" {
		t.Fatalf("Get = %q, %v; want v2", got, err)
	}
}

// firstRead is a node that marks its first read of table "t", batched or a
// sweep: entered closes as the read begins and done once it has read. A
// gated node's first read waits for release before it reads. Every later
// read passes.
type firstRead struct {
	engine.Backend
	gated                  bool
	entered, release, done chan struct{}
	begun                  atomic.Bool
}

func newFirstRead(be engine.Backend, gated bool) *firstRead {
	return &firstRead{Backend: be, gated: gated, entered: make(chan struct{}), release: make(chan struct{}), done: make(chan struct{})}
}

func (f *firstRead) around(table string, read func()) {
	if table != "t" || !f.begun.CompareAndSwap(false, true) {
		read()
		return
	}
	close(f.entered)
	if f.gated {
		<-f.release
	}
	read()
	close(f.done)
}

func (f *firstRead) MultiGet(ctx context.Context, table string, keys []string) (vals [][]byte, present []bool, err error) {
	f.around(table, func() { vals, present, err = f.Backend.MultiGet(ctx, table, keys) })
	return vals, present, err
}

func (f *firstRead) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) (err error) {
	f.around(table, func() { err = f.Backend.Scan(ctx, table, fn) })
	return err
}

// TestConvergeBesideReadServesNoDeletedValue: a read that reads a replica
// holding a deleted value before a repair delivers the tombstone there, and
// the tombstone's replica only once the repair has collected it, sees the
// value and nothing. Node 1's read is held across the repair, once node 0
// has answered; the read must still find the key deleted — Get, MultiGet
// and Scan alike.
func TestConvergeBesideReadServesNoDeletedValue(t *testing.T) {
	reads := map[string]func(s *Store) error{
		"get": func(s *Store) error {
			got, err := s.Get(context.Background(), "t", "k")
			if err == nil {
				return fmt.Errorf("Get served %q", got)
			}
			if !errors.Is(err, types.ErrNotFound) {
				return err
			}
			return nil
		},
		"multiget": func(s *Store) error {
			res, err := s.MultiGet(context.Background(), "t", []string{"k"})
			if err != nil {
				return err
			}
			if len(res.Missing) != 1 {
				return fmt.Errorf("MultiGet served %q", res.Values[0])
			}
			return nil
		},
		"scan": func(s *Store) error {
			var served error
			if err := s.Scan(context.Background(), "t", func(k string, v []byte) bool {
				served = fmt.Errorf("Scan served %s = %q", k, v)
				return false
			}); err != nil {
				return err
			}
			return served
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			mems := newBackends(2)
			// Node 0, swept first, holds the value; node 1 the tombstone.
			if err := mems[0].Put(ctx, "t", "k", envelope(envValue, 100, []byte("deleted"))); err != nil {
				t.Fatal(err)
			}
			if err := mems[1].Put(ctx, "t", "k", envelope(envTombstone, 200, nil)); err != nil {
				t.Fatal(err)
			}
			nodes := []*firstRead{newFirstRead(mems[0], false), newFirstRead(mems[1], true)}
			s, err := Open(ctx, Config{Nodes: 2, ReplicationFactor: 2,
				NewBackend: func(id int) (engine.Backend, error) { return nodes[id], nil }})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var once sync.Once
			release := func() { once.Do(func() { close(nodes[1].release) }) }
			defer release()

			done := make(chan error, 1)
			go func() { done <- read(s) }()
			for _, ch := range []chan struct{}{nodes[0].done, nodes[1].entered} {
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Fatal("the read never read node 0, or never reached node 1")
				}
			}
			if missed, judged := s.repair.converge(ctx, repairTask{table: "t", key: "k"}, true); !judged || len(missed) > 0 {
				t.Fatalf("the repair missed %v (judged %v)", missed, judged)
			}
			if n := rawLeft(t, mems, "t"); n != 0 {
				t.Fatalf("the repair left %d entries, want the tombstone delivered and collected", n)
			}
			release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRepairTraffic pins the engine calls of one repair, each replica read
// once per read and every write a single call.
func TestRepairTraffic(t *testing.T) {
	ctx := context.Background()
	value := envelope(envValue, 100, []byte("v"))
	tomb := envelope(envTombstone, uint64(walltime().UnixNano()), nil)
	for _, tc := range []struct {
		name           string
		held           [][]byte // per node; nil holds nothing
		get, put, dele int64
	}{
		{"rf 2 value write-back", [][]byte{value, nil}, 2, 1, 0},
		{"rf 3 value write-back", [][]byte{value, value, nil}, 3, 1, 0},
		{"rf 3 tombstone delivered and collected", [][]byte{tomb, tomb, value}, 6, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls callCount
			n := len(tc.held)
			s, mems := openCountingMem(t, n, n, &calls, 0)
			for i, raw := range tc.held {
				if raw != nil {
					if err := mems[i].Put(ctx, "t", "k", raw); err != nil {
						t.Fatal(err)
					}
				}
			}
			if missed, judged := s.repair.converge(ctx, repairTask{table: "t", key: "k"}, true); !judged || len(missed) > 0 {
				t.Fatalf("the repair missed %v (judged %v)", missed, judged)
			}
			if g, p, d := calls.get.Load(), calls.put.Load(), calls.del.Load(); g != tc.get || p != tc.put || d != tc.dele {
				t.Fatalf("%d Get, %d Put, %d Delete; want %d, %d, %d", g, p, d, tc.get, tc.put, tc.dele)
			}
		})
	}

	t.Run("rf 2 delete's own collection", func(t *testing.T) {
		var calls callCount
		s, mems := openCountingMem(t, 2, 2, &calls, 0)
		if err := s.Put(ctx, "t", "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(ctx, "t", "k"); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the collection", func() bool { return s.Stats(ctx).TombstonesGCed == 1 && rawLeft(t, mems, "t") == 0 })
		// The repair's read, then each replica re-read just before its delete.
		if g, p, d := calls.get.Load(), calls.put.Load(), calls.del.Load(); g != 4 || p != 0 || d != 2 {
			t.Fatalf("%d Get, %d Put, %d Delete; want 4, 0, 2", g, p, d)
		}
	})
}
