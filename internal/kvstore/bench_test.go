package kvstore

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/memory"
)

func benchStore(b *testing.B, nodes, rf int) (*Store, []string) {
	b.Helper()
	s, err := Open(context.Background(), Config{
		Nodes: nodes, ReplicationFactor: rf,
		Cost: DefaultCostModel(),
	})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 1000)
	val := make([]byte, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
		if err := s.Put(context.Background(), "t", keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys
}

func BenchmarkGet(b *testing.B) {
	s, keys := benchStore(b, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(context.Background(), "t", keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPut(b *testing.B) {
	s, _ := benchStore(b, 4, 2)
	val := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(context.Background(), "t", fmt.Sprintf("w-%d", i%4096), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiGet(b *testing.B) {
	s, keys := benchStore(b, 8, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.MultiGet(context.Background(), "t", keys)
		if err != nil || len(res.Missing) != 0 {
			b.Fatalf("%v %v", res.Missing, err)
		}
	}
}

// callCount tallies the engine calls a cluster makes on table "t".
type callCount struct{ get, put, del atomic.Int64 }

// countingNode is a node that counts its Get, Put and Delete calls on table
// "t", and a get a key of its MultiGets there, and makes each call take delay
// first: the round trip of a remote engine, which a batch pays once.
type countingNode struct {
	engine.Backend
	calls *callCount
	delay time.Duration
}

func (n countingNode) count(table string, c *atomic.Int64) {
	if table == "t" {
		c.Add(1)
	}
	time.Sleep(n.delay)
}

func (n countingNode) Get(ctx context.Context, table, key string) ([]byte, bool, error) {
	n.count(table, &n.calls.get)
	return n.Backend.Get(ctx, table, key)
}

// MultiGet counts a get a key and takes delay once for the batch.
func (n countingNode) MultiGet(ctx context.Context, table string, keys []string) ([][]byte, []bool, error) {
	if table == "t" {
		n.calls.get.Add(int64(len(keys)))
	}
	time.Sleep(n.delay)
	return n.Backend.MultiGet(ctx, table, keys)
}

func (n countingNode) Put(ctx context.Context, table, key string, value []byte) error {
	n.count(table, &n.calls.put)
	return n.Backend.Put(ctx, table, key, value)
}

func (n countingNode) Delete(ctx context.Context, table, key string) error {
	n.count(table, &n.calls.del)
	return n.Backend.Delete(ctx, table, key)
}

func (n countingNode) BatchPut(ctx context.Context, table string, entries []engine.Entry) error {
	time.Sleep(n.delay)
	return n.Backend.BatchPut(ctx, table, entries)
}

// openCounting opens a cluster over backends wrapped as countingNodes
// sharing calls.
func openCounting(tb testing.TB, bes []engine.Backend, rf int, calls *callCount, delay time.Duration) *Store {
	tb.Helper()
	s, err := Open(context.Background(), Config{Nodes: len(bes), ReplicationFactor: rf,
		NewBackend: func(id int) (engine.Backend, error) { return countingNode{bes[id], calls, delay}, nil }})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// openCountingMem is openCounting over new memory nodes, which it returns.
func openCountingMem(tb testing.TB, nodes, rf int, calls *callCount, delay time.Duration) (*Store, []*memory.Backend) {
	tb.Helper()
	mems := newBackends(nodes)
	bes := make([]engine.Backend, nodes)
	for i, m := range mems {
		bes[i] = m
	}
	return openCounting(tb, bes, rf, calls, delay), mems
}

// repairNodes is the kind of node a repair benchmark runs on: in-process
// memory or lsm engines, whose fan-outs run one node after another (fanOut),
// or memory engines behind countingNodes that take delay a call, as a
// remote engine does, whose fan-outs overlap. Only countingNodes count.
type repairNodes struct {
	name  string
	lsm   bool
	delay time.Duration
}

var (
	inprocMem = repairNodes{name: "mem"}
	inprocLSM = repairNodes{name: "lsm", lsm: true}
	remoteMem = repairNodes{name: "rtt300us", delay: 300 * time.Microsecond}
)

// backends returns n new engines of this kind, and the memory ones.
func (k repairNodes) backends(b *testing.B, n int) ([]engine.Backend, []*memory.Backend) {
	bes, mems := make([]engine.Backend, n), newBackends(n)
	for i := range bes {
		bes[i] = mems[i]
		if k.lsm {
			be, err := lsm.Open(b.TempDir(), lsm.Options{})
			if err != nil {
				b.Fatal(err)
			}
			bes[i] = be
		}
	}
	if k.lsm {
		mems = nil
	}
	return bes, mems
}

// open opens a cluster over bes, behind countingNodes when k has a delay.
func (k repairNodes) open(b *testing.B, bes []engine.Backend, rf int, calls *callCount) *Store {
	if k.delay > 0 {
		return openCounting(b, bes, rf, calls, k.delay)
	}
	s, err := Open(context.Background(), Config{Nodes: len(bes), ReplicationFactor: rf,
		NewBackend: func(id int) (engine.Backend, error) { return bes[id], nil }})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// until polls cond, yielding between polls, for at most 30 s: a sleep
// between polls would round each to the timer granularity. The benchmarks
// poll the repairer's counters, not Stats, whose storage probes take the
// nodes' locks.
func until(b *testing.B, what string, cond func() bool) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			b.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// reportCalls reports the engine calls per key, where k counts them.
func reportCalls(b *testing.B, k repairNodes, calls *callCount, keys int) {
	if k.delay == 0 {
		return
	}
	n := float64(b.N * keys)
	b.ReportMetric(float64(calls.get.Load())/n, "get/key")
	b.ReportMetric(float64(calls.put.Load())/n, "put/key")
	b.ReportMetric(float64(calls.del.Load())/n, "delete/key")
}

// repairKeys are a repair benchmark's 200 keys, each with value "v".
func repairKeys() ([]string, []Entry) {
	keys, entries := make([]string, 200), make([]Entry, 200)
	for j := range entries {
		keys[j] = fmt.Sprintf("k%05d", j)
		entries[j] = Entry{Key: keys[j], Value: []byte("v")}
	}
	return keys, entries
}

// BenchmarkRepairSweep: read repair at rf 2 of 200 keys a wiped replica
// lacks, observed by one Scan (a burst of repairs) or by a Get per key (a
// trickle; get/key counts the Gets' own reads too), on each kind of node;
// an op ends at the last write-back.
func BenchmarkRepairSweep(b *testing.B) {
	for _, k := range []repairNodes{inprocMem, inprocLSM, remoteMem} {
		for _, byGet := range []bool{false, true} {
			read := "scan"
			if byGet {
				read = "get"
			}
			b.Run(k.name+"/"+read, func(b *testing.B) {
				ctx := context.Background()
				var calls callCount // the set-up's batch writes are not counted
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					bes, _ := k.backends(b, 2)
					s := k.open(b, bes, 2, &calls)
					_, entries := repairKeys()
					if err := s.BatchPut(ctx, "t", entries); err != nil {
						b.Fatal(err)
					}
					for _, e := range entries { // wipe the replica
						if err := bes[1].Delete(ctx, "t", e.Key); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					if byGet {
						for _, e := range entries {
							if _, err := s.Get(ctx, "t", e.Key); err != nil {
								b.Fatal(err)
							}
						}
					} else if err := s.Scan(ctx, "t", func(string, []byte) bool { return true }); err != nil {
						b.Fatal(err)
					}
					until(b, "every key written back", func() bool { return s.repair.repairWrites.Load() == 200 })
					b.StopTimer()
					s.Close()
				}
				reportCalls(b, k, &calls, 200)
			})
		}
	}
}

// BenchmarkTombstoneCollection: 200 tombstones a replica missed at rf 3,
// delivered by read repair and collected, on in-process memory nodes and
// on nodes with a round trip; an op is the MultiGet that observes them and
// ends at the last collection. The tombstones are planted on the other two
// replicas behind the store's back, so no hint is parked for the third.
func BenchmarkTombstoneCollection(b *testing.B) {
	for _, k := range []repairNodes{inprocMem, remoteMem} {
		b.Run(k.name, func(b *testing.B) {
			ctx := context.Background()
			var calls callCount // the set-up's batch writes are not counted
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bes, mems := k.backends(b, 3)
				s := k.open(b, bes, 3, &calls)
				keys, entries := repairKeys()
				if err := s.BatchPut(ctx, "t", entries); err != nil {
					b.Fatal(err)
				}
				tombs := make([]engine.Entry, len(keys))
				for j, key := range keys {
					tombs[j] = engine.Entry{Key: key, Value: envelope(envTombstone, s.nextTS(), nil)}
				}
				for _, m := range mems[:2] {
					if err := m.BatchPut(ctx, "t", tombs); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := s.MultiGet(ctx, "t", keys); err != nil {
					b.Fatal(err)
				}
				until(b, "every tombstone collected", func() bool { return s.repair.tombstonesGC.Load() == 200 })
				b.StopTimer()
				s.Close()
			}
			reportCalls(b, k, &calls, 200)
		})
	}
}

// BenchmarkHintDrain: 200 writes — values, or tombstones over values — that
// a down replica missed at rf 2, parked as hints, then drained by a client
// that recovers them at Open, on in-process memory nodes and on nodes with
// a round trip. An op starts with that Open, which recovers the hints and
// kicks the drain, and ends when the last hint is spent; for tombstones
// collected-ms is the time to the last collection.
func BenchmarkHintDrain(b *testing.B) {
	for _, k := range []repairNodes{inprocMem, remoteMem} {
		for _, tombs := range []bool{false, true} {
			name := "values"
			if tombs {
				name = "tombstones"
			}
			b.Run(k.name+"/"+name, func(b *testing.B) {
				ctx := context.Background()
				var calls callCount // only the draining client's calls are counted
				var collected time.Duration
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					bes, mems := k.backends(b, 2)
					w := openOver(b, mems, 2) // parks only: node 1 is down until w closes
					keys, entries := repairKeys()
					if tombs {
						if err := w.BatchPut(ctx, "t", entries); err != nil {
							b.Fatal(err)
						}
					}
					mems[1].SetDown(true)
					write := func() error { return w.BatchPut(ctx, "t", entries) }
					if tombs {
						write = func() error { return w.BatchDelete(ctx, "t", keys) }
					}
					if err := write(); err != nil {
						b.Fatal(err)
					}
					w.Close()
					mems[1].SetDown(false)
					start := time.Now()
					b.StartTimer()
					s := k.open(b, bes, 2, &calls)
					until(b, "every hint spent", func() bool { return s.repair.hintsPending.Load() == 0 })
					b.StopTimer()
					if n := s.repair.hintsQueued.Load(); n != 200 {
						b.Fatalf("%d hints recovered, want 200", n)
					}
					if tombs {
						until(b, "every tombstone collected", func() bool { return s.repair.tombstonesGC.Load() == 200 })
						collected += time.Since(start)
					}
					s.Close()
				}
				reportCalls(b, k, &calls, 200)
				if tombs {
					b.ReportMetric(float64(collected.Microseconds())/1e3/float64(b.N), "collected-ms")
				}
			})
		}
	}
}
