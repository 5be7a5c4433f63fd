package kvstore

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"rstore/internal/engine"
	"rstore/internal/engine/memory"
	"rstore/internal/types"
)

func open(t testing.TB, nodes, rf int) *Store {
	t.Helper()
	s, _ := openMem(t, Config{Nodes: nodes, ReplicationFactor: rf, Cost: DefaultCostModel()})
	return s
}

// openMem opens a cluster of cfg's shape over memory backends it returns,
// so that a test can read a replica directly or take it down
// (memory.Backend.SetDown).
func openMem(t testing.TB, cfg Config) (*Store, []*memory.Backend) {
	t.Helper()
	backends := make([]*memory.Backend, cfg.Nodes)
	cfg.NewBackend = func(id int) (engine.Backend, error) {
		backends[id] = memory.New()
		return backends[id], nil
	}
	s, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, backends
}

func TestPutGetDelete(t *testing.T) {
	s := open(t, 4, 2)
	if err := s.Put(context.Background(), "t", "k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(context.Background(), "t", "k1")
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Overwrite.
	if err := s.Put(context.Background(), "t", "k1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get(context.Background(), "t", "k1")
	if string(got) != "v2" {
		t.Fatalf("after overwrite: %q", got)
	}
	// Missing key.
	if _, err := s.Get(context.Background(), "t", "nope"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	// Delete (idempotent).
	if err := s.Delete(context.Background(), "t", "k1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), "t", "k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), "t", "k1"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestValueIsolation(t *testing.T) {
	s := open(t, 1, 1)
	v := []byte("mutable")
	s.Put(context.Background(), "t", "k", v)
	v[0] = 'X' // caller mutates after put
	got, _ := s.Get(context.Background(), "t", "k")
	if string(got) != "mutable" {
		t.Fatal("put did not copy the value")
	}
	got[0] = 'Y' // caller mutates the response
	again, _ := s.Get(context.Background(), "t", "k")
	if string(again) != "mutable" {
		t.Fatal("get returned aliased storage")
	}
}

func TestMultiGet(t *testing.T) {
	s := open(t, 4, 1)
	var keys []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i)
		keys = append(keys, k)
		if err := s.Put(context.Background(), "t", k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys = append(keys, "missing-1", "missing-2")
	res, err := s.MultiGet(context.Background(), "t", keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 102 {
		t.Fatalf("%d values", len(res.Values))
	}
	for i := 0; i < 100; i++ {
		if string(res.Values[i]) != keys[i] {
			t.Fatalf("value %d = %q", i, res.Values[i])
		}
	}
	if len(res.Missing) != 2 || res.Missing[0] != 100 || res.Missing[1] != 101 {
		t.Fatalf("Missing = %v", res.Missing)
	}
	if res.Requests != 102 || res.BytesRead == 0 {
		t.Fatalf("stats: %+v", res)
	}
}

func TestReplicationSurvivesNodeFailure(t *testing.T) {
	s, backends := openMem(t, Config{Nodes: 4, ReplicationFactor: 2})
	for i := 0; i < 200; i++ {
		if err := s.Put(context.Background(), "t", fmt.Sprintf("k%03d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one node: every key must still be readable from its replica.
	backends[2].SetDown(true)
	for i := 0; i < 200; i++ {
		got, err := s.Get(context.Background(), "t", fmt.Sprintf("k%03d", i))
		if err != nil || got[0] != byte(i) {
			t.Fatalf("k%03d after failure: %v %v", i, got, err)
		}
	}
	// MultiGet routes around the dead node too.
	res, err := s.MultiGet(context.Background(), "t", []string{"k000", "k001", "k002"})
	if err != nil || len(res.Missing) != 0 {
		t.Fatalf("MultiGet after failure: %v %v", res.Missing, err)
	}
	// Recovery.
	backends[2].SetDown(false)
	if _, err := s.Get(context.Background(), "t", "k000"); err != nil {
		t.Fatal(err)
	}
}

func TestUnreplicatedFailureIsAnError(t *testing.T) {
	s, backends := openMem(t, Config{Nodes: 2, ReplicationFactor: 1})
	s.Put(context.Background(), "t", "a", []byte("1"))
	// Find which node holds "a" and kill it.
	owner := s.ring.primary("a")
	backends[owner].SetDown(true)
	if _, err := s.Get(context.Background(), "t", "a"); err == nil {
		t.Fatal("read from fully-dead replica set succeeded")
	}
}

// TestMultiGetChargesFirstAnsweringReplica: with a replica down, the
// modeled time of a MultiGet key goes to the first of its replicas, in ring
// order, that answered — never to the down node — and the clock moves by
// that batch time plus the scan of the values returned.
func TestMultiGetChargesFirstAnsweringReplica(t *testing.T) {
	cost := DefaultCostModel()
	cost.Parallelism = 1 << 10 // the busiest node, not the client lanes, bounds the batch
	s, backends := openMem(t, Config{Nodes: 3, ReplicationFactor: 2, Cost: cost})
	ctx := context.Background()
	var keys []string
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%03d", i)
		keys = append(keys, k)
		if err := s.Put(ctx, "t", k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	const down = 1
	backends[down].SetDown(true)
	before := s.Stats(ctx).SimElapsed
	res, err := s.MultiGet(ctx, "t", keys)
	if err != nil {
		t.Fatal(err)
	}
	answered, primary := map[int][]int{}, map[int][]int{}
	for i, k := range keys {
		if string(res.Values[i]) != k {
			t.Fatalf("%s = %q with node %d down", k, res.Values[i], down)
		}
		replicas := s.ring.replicas(k, 2)
		first := replicas[0]
		if first == down {
			first = replicas[1]
		}
		answered[first] = append(answered[first], len(k))
		primary[replicas[0]] = append(primary[replicas[0]], len(k))
	}
	if cost.batchElapsed(answered) == cost.batchElapsed(primary) {
		t.Fatal("precondition: charging the primaries costs the same as charging the replicas that answered")
	}
	want := cost.batchElapsed(answered) + cost.scanCost(int(res.BytesRead))
	if got := s.Stats(ctx).SimElapsed - before; got != want {
		t.Fatalf("the clock moved %v, want %v (each key charged to its first replica that answered, plus the scan)", got, want)
	}
}

// TestMultiGetPricesMissingKeysAtZeroBytes: a key no replica holds, never
// written or deleted, is one request that returned nothing.
func TestMultiGetPricesMissingKeysAtZeroBytes(t *testing.T) {
	s := open(t, 3, 2)
	ctx := context.Background()
	if err := s.Put(ctx, "t", "gone", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "t", "gone"); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"never", "gone"} {
		before := s.Stats(ctx).SimElapsed
		if _, err := s.Get(ctx, "t", k); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("Get %s: %v, want ErrNotFound", k, err)
		}
		want := s.cfg.Cost.batchElapsed(map[int][]int{0: {0}})
		if got := s.Stats(ctx).SimElapsed - before; got != want {
			t.Fatalf("Get %s moved the clock %v, want %v", k, got, want)
		}
	}
}

// TestScanVisitsEachKeyOnce: every live key is handed over once, with its
// newest value, at every replication factor, and an early stop returns nil
// and hands over nothing more. The rows make the same writes — an
// overwrite, a delete, and bytes the store never wrote on a key's second
// replica in ring order, which its first replica outvotes at rf 2 and 3 and
// which is no replica of the key at rf 1 — so each hands over the same set.
func TestScanVisitsEachKeyOnce(t *testing.T) {
	for _, tc := range []struct{ nodes, rf int }{
		{4, 3}, // replication would triple naive scans
		{3, 2},
		{3, 1},
	} {
		t.Run(fmt.Sprintf("rf=%d", tc.rf), func(t *testing.T) {
			s, backends := openMem(t, Config{Nodes: tc.nodes, ReplicationFactor: tc.rf})
			ctx := context.Background()
			want := map[string]string{}
			for i := 0; i < 150; i++ {
				k := fmt.Sprintf("k%03d", i)
				want[k] = k
				if err := s.Put(ctx, "t", k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Put(ctx, "t", "k000", []byte("overwritten")); err != nil {
				t.Fatal(err)
			}
			want["k000"] = "overwritten"
			if err := s.Delete(ctx, "t", "k001"); err != nil {
				t.Fatal(err)
			}
			delete(want, "k001")
			if err := backends[s.ring.replicas("k002", 2)[1]].Put(ctx, "t", "k002", []byte("garbage")); err != nil {
				t.Fatal(err)
			}

			got := map[string]string{}
			if err := s.Scan(ctx, "t", func(k string, v []byte) bool {
				if _, dup := got[k]; dup {
					t.Fatalf("key %s visited twice", k)
				}
				got[k] = string(v)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, want) {
				t.Fatalf("scanned %d keys, want %d: %v", len(got), len(want), got)
			}

			count := 0
			if err := s.Scan(ctx, "t", func(string, []byte) bool { count++; return count < 5 }); err != nil || count != 5 {
				t.Fatalf("early stop visited %d, %v", count, err)
			}
		})
	}
}

// scanHook calls before when its backend's sweep of a table begins.
type scanHook struct {
	engine.Backend
	before func(table string)
}

func (b scanHook) Scan(ctx context.Context, table string, fn func(key string, value []byte) bool) error {
	b.before(table)
	return b.Backend.Scan(ctx, table, fn)
}

// TestScanHandsKeyOverOnceItsReplicasAnswer: Scan hands a key over as soon
// as the last of its replicas has answered, not once every node has. At rf
// 2 on 3 nodes, every key replicated on nodes 0 and 1 has been handed over
// before node 2's sweep begins; at rf 1 on 2 nodes, node 0's keys before
// node 1's sweep.
func TestScanHandsKeyOverOnceItsReplicasAnswer(t *testing.T) {
	for _, tc := range []struct{ nodes, rf int }{{3, 2}, {2, 1}} {
		t.Run(fmt.Sprintf("rf=%d", tc.rf), func(t *testing.T) {
			ctx := context.Background()
			last := tc.nodes - 1
			seen := map[string]bool{}
			var early, missed []string // keys with no replica on the last node; those not yet seen
			swept := false
			s, err := Open(ctx, Config{Nodes: tc.nodes, ReplicationFactor: tc.rf,
				NewBackend: func(id int) (engine.Backend, error) {
					if id != last {
						return memory.New(), nil
					}
					return scanHook{memory.New(), func(table string) {
						if table != "t" {
							return
						}
						swept = true
						for _, k := range early {
							if !seen[k] {
								missed = append(missed, k)
							}
						}
					}}, nil
				}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 60; i++ {
				k := fmt.Sprintf("k%02d", i)
				if err := s.Put(ctx, "t", k, []byte(k)); err != nil {
					t.Fatal(err)
				}
				if !slices.Contains(s.ring.replicas(k, tc.rf), last) {
					early = append(early, k)
				}
			}
			if len(early) == 0 {
				t.Fatal("every key has a replica on the last node: the test checks nothing")
			}
			if err := s.Scan(ctx, "t", func(k string, _ []byte) bool { seen[k] = true; return true }); err != nil {
				t.Fatal(err)
			}
			if !swept || len(seen) != 60 {
				t.Fatalf("node %d swept: %v; %d keys handed over, want 60", last, swept, len(seen))
			}
			if len(missed) > 0 {
				t.Fatalf("%d of %d keys without a replica on node %d were not handed over before its sweep began: %v",
					len(missed), len(early), last, missed)
			}
		})
	}
}

func TestRingBalance(t *testing.T) {
	s, backends := openMem(t, Config{Nodes: 8, ReplicationFactor: 1, Cost: DefaultCostModel()})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8000; i++ {
		s.Put(context.Background(), "t", fmt.Sprintf("key-%d-%d", i, rng.Int63()), make([]byte, 64))
	}
	var total int64
	for _, be := range backends {
		total += be.BytesStored()
	}
	mean := total / int64(len(backends))
	for n, be := range backends {
		if b := be.BytesStored(); b < mean/3 || b > mean*3 {
			t.Errorf("node %d holds %d bytes (mean %d): badly balanced", n, b, mean)
		}
	}
}

// TestRingBalanceSequentialKeys pins the splitmix64 finalizer in
// hashString: the store's real key families are a fixed prefix plus a
// counter ("c%08x" chunk ids, "d%08x" delta ids), which raw FNV clusters
// onto a single node.
func TestRingBalanceSequentialKeys(t *testing.T) {
	r := newRing(4)
	counts := map[int]int{}
	for i := 0; i < 256; i++ {
		counts[r.primary(fmt.Sprintf("c%08x", i))]++
	}
	for n := 0; n < 4; n++ {
		if counts[n] == 0 {
			t.Fatalf("node %d owns no sequential keys: %v", n, counts)
		}
		if counts[n] > 256/2 {
			t.Fatalf("node %d owns %d/256 sequential keys: badly clustered", n, counts[n])
		}
	}
}

func TestReplicasDistinctAndStable(t *testing.T) {
	r := newRing(5)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key%d", i)
		reps := r.replicas(k, 3)
		if len(reps) != 3 {
			t.Fatalf("%s: %d replicas", k, len(reps))
		}
		seen := map[int]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Fatalf("%s: duplicate replica %d", k, n)
			}
			seen[n] = true
		}
		again := r.replicas(k, 3)
		for j := range reps {
			if reps[j] != again[j] {
				t.Fatalf("%s: unstable replicas", k)
			}
		}
	}
	// rf capped at node count.
	if got := r.replicas("x", 99); len(got) != 5 {
		t.Fatalf("rf cap: %d", len(got))
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := open(t, 4, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				if err := s.Put(context.Background(), "t", k, []byte(k)); err != nil {
					t.Error(err)
					return
				}
				got, err := s.Get(context.Background(), "t", k)
				if err != nil || string(got) != k {
					t.Errorf("%s: %q %v", k, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Stats(context.Background()).Requests == 0 {
		t.Fatal("no requests accounted")
	}
}

func TestCostModelMath(t *testing.T) {
	c := CostModel{PerRequest: time.Millisecond, Bandwidth: 1 << 20, Parallelism: 4}
	// One request of 1 MiB: 1ms + 1s.
	if got := c.requestCost(1 << 20); got != time.Millisecond+time.Second {
		t.Fatalf("requestCost = %v", got)
	}
	// Batch: 8 unit requests on one node → serial: 8ms; lanes: 8ms/4 = 2ms;
	// node is the bottleneck.
	perNode := map[int][]int{0: {0, 0, 0, 0, 0, 0, 0, 0}}
	if got := c.batchElapsed(perNode); got != 8*time.Millisecond {
		t.Fatalf("single-node batch = %v", got)
	}
	// Spread over 4 nodes, 2 each → slowest node 2ms, lanes 2ms → 2ms.
	perNode = map[int][]int{0: {0, 0}, 1: {0, 0}, 2: {0, 0}, 3: {0, 0}}
	if got := c.batchElapsed(perNode); got != 2*time.Millisecond {
		t.Fatalf("spread batch = %v", got)
	}
	if c.batchElapsed(nil) != 0 {
		t.Fatal("empty batch cost")
	}
	// Zero-value model costs nothing.
	var zero CostModel
	if zero.requestCost(100) != 0 || zero.scanCost(100) != 0 {
		t.Fatal("zero model accrues cost")
	}
}

func TestStatsAndClock(t *testing.T) {
	s := open(t, 2, 1)
	s.Put(context.Background(), "t", "a", make([]byte, 1000))
	s.Get(context.Background(), "t", "a")
	st := s.Stats(context.Background())
	if st.Requests < 2 || st.BytesRead < 1000 || st.BytesPut < 1000 || st.SimElapsed <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Resident bytes include the per-key LWW envelope; payload counters
	// (BytesPut/BytesRead) do not.
	if st.BytesStored != 1000+EnvelopeOverhead {
		t.Fatalf("BytesStored = %d, want %d", st.BytesStored, 1000+EnvelopeOverhead)
	}
}
