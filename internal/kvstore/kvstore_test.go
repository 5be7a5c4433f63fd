package kvstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rstore/internal/types"
)

func open(t testing.TB, nodes, rf int) *Store {
	t.Helper()
	s, err := Open(context.Background(), Config{Nodes: nodes, ReplicationFactor: rf, Cost: DefaultCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	return s
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
	if res.Requests != 102 || res.BytesRead == 0 || res.Elapsed <= 0 {
		t.Fatalf("stats: %+v", res)
	}
}

func TestReplicationSurvivesNodeFailure(t *testing.T) {
	s := open(t, 4, 2)
	for i := 0; i < 200; i++ {
		if err := s.Put(context.Background(), "t", fmt.Sprintf("k%03d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one node: every key must still be readable from its replica.
	if err := s.SetNodeUp(2, false); err != nil {
		t.Fatal(err)
	}
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
	if err := s.SetNodeUp(2, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), "t", "k000"); err != nil {
		t.Fatal(err)
	}
}

func TestUnreplicatedFailureIsAnError(t *testing.T) {
	s := open(t, 2, 1)
	s.Put(context.Background(), "t", "a", []byte("1"))
	// Find which node holds "a" and kill it.
	owner := s.ring.primary("a")
	s.SetNodeUp(owner, false)
	if _, err := s.Get(context.Background(), "t", "a"); err == nil {
		t.Fatal("read from fully-dead replica set succeeded")
	}
}

func TestScanVisitsEachKeyOnce(t *testing.T) {
	s := open(t, 4, 3) // replication would triple naive scans
	want := map[string]string{}
	for i := 0; i < 150; i++ {
		k := fmt.Sprintf("k%03d", i)
		want[k] = k
		s.Put(context.Background(), "t", k, []byte(k))
	}
	got := map[string]int{}
	s.Scan(context.Background(), "t", func(k string, v []byte) bool {
		got[k]++
		if string(v) != want[k] {
			t.Fatalf("scan %s = %q", k, v)
		}
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scanned %d keys, want %d", len(got), len(want))
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("key %s visited %d times", k, n)
		}
	}
	// Early stop.
	count := 0
	s.Scan(context.Background(), "t", func(string, []byte) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestRingBalance(t *testing.T) {
	s := open(t, 8, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8000; i++ {
		s.Put(context.Background(), "t", fmt.Sprintf("key-%d-%d", i, rng.Int63()), make([]byte, 64))
	}
	per := s.NodeBytes(context.Background())
	var total int64
	for _, b := range per {
		total += b
	}
	mean := total / int64(len(per))
	for n, b := range per {
		if b < mean/3 || b > mean*3 {
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
	s.ChargeScan(1000)
	st := s.Stats(context.Background())
	if st.Requests < 2 || st.BytesRead < 1000 || st.BytesPut < 1000 || st.SimElapsed <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Resident bytes include the per-key LWW envelope; payload counters
	// (BytesPut/BytesRead) do not.
	if st.BytesStored != 1000+EnvelopeOverhead {
		t.Fatalf("BytesStored = %d, want %d", st.BytesStored, 1000+EnvelopeOverhead)
	}
	s.ResetClock()
	st = s.Stats(context.Background())
	if st.Requests != 0 || st.SimElapsed != 0 {
		t.Fatalf("after reset: %+v", st)
	}
}
