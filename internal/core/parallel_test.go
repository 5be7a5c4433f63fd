package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rstore/internal/corpus"
	"rstore/internal/partition"
	"rstore/internal/types"
	"rstore/internal/vgraph"
)

// settleGoroutines fails the test unless the goroutine count comes back to
// baseline: a goroutine that has signalled its WaitGroup may take a moment to
// exit, one that outlives its caller never does.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the call", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOrderedPool: results reach consume in index order, the first failure in
// index order — of work or of consume — is what the pool returns, nothing is
// consumed after it, and no work is still running when the call returns.
func TestOrderedPool(t *testing.T) {
	errWork, errConsume := errors.New("work failed"), errors.New("consume failed")
	baseline := runtime.NumGoroutine()
	var running atomic.Int32
	for _, tc := range []struct {
		name               string
		failWork, failCons int // the index that fails; -1: none
		want               error
	}{
		{"clean", -1, -1, nil},
		{"work", 37, -1, errWork},
		{"consume", -1, 37, errConsume},
		{"consume-first", 40, 37, errConsume},
		{"work-first", 37, 40, errWork},
	} {
		consumed := 0
		err := ordered(100, func(i int) (int, error) {
			running.Add(1)
			defer running.Add(-1)
			time.Sleep(100 * time.Microsecond) // still at work when an earlier item fails
			if i == tc.failWork {
				return 0, errWork
			}
			return i * i, nil
		}, func(i, v int) error {
			if i != consumed || v != i*i {
				t.Fatalf("%s: consumed item %d (%d) after %d items", tc.name, i, v, consumed)
			}
			consumed++
			if i == tc.failCons {
				return errConsume
			}
			return nil
		})
		if n := running.Load(); n != 0 {
			t.Errorf("%s: %d items still being worked on after the pool returned", tc.name, n)
		}
		if !errors.Is(err, tc.want) || (tc.want == nil) != (consumed == 100) {
			t.Errorf("%s: %v after %d items, want %v", tc.name, err, consumed, tc.want)
		}
		settleGoroutines(t, baseline)
	}
}

// doublePlacer is a partitioner whose assignment places one item twice: the
// first item of chunk 0 again in chunk k.
type doublePlacer struct {
	partition.BottomUp
	k int
}

func (d doublePlacer) Partition(in *partition.Input) (*partition.Assignment, error) {
	a, err := d.BottomUp.Partition(in)
	if err == nil && len(a.Chunks) > 2*d.k {
		a.Chunks[d.k] = append(a.Chunks[d.k], a.Chunks[0][0])
	}
	return a, err
}

// TestBulkLoadDoublePlacedRecordJoinsCoders: an assignment that places a
// record twice fails where the record's second chunk is bound — chunk 3 — with
// the error a one-by-one layout gave, poisons the store, and leaves no coding
// goroutine behind.
func TestBulkLoadDoublePlacedRecordJoinsCoders(t *testing.T) {
	ctx := context.Background()
	const k = 3
	st, _ := openGolden(t, Config{Partitioner: doublePlacer{k: k}})
	c := goldenCorpus(t)
	in, err := partition.NewInputFromCorpus(c, 2048)
	if err != nil {
		t.Fatal(err)
	}
	a, err := doublePlacer{k: k}.Partition(in)
	if err != nil || len(a.Chunks) <= 2*k {
		t.Fatalf("precondition: %v, %d chunks", err, len(a.Chunks))
	}
	want := fmt.Sprintf("rstore: materialize: chunk: record %d assigned to chunks 0 and %d", a.Chunks[0][0], k)

	baseline := runtime.NumGoroutine()
	err = st.BulkLoad(ctx, c)
	if !errors.Is(err, types.ErrPoisoned) || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("bulk load of a double placement: %v, want ErrPoisoned wrapping %q", err, want)
	}
	settleGoroutines(t, baseline)
	if _, err := st.Commit(ctx, 0, Change{Puts: map[types.Key][]byte{"x": []byte("y")}}); !errors.Is(err, types.ErrPoisoned) {
		t.Fatalf("commit after the failed bulk load: %v, want ErrPoisoned", err)
	}
}

// TestBulkLoadCancelledJoinsCoders cancels a bulk load's context while its
// second chunk group is in flight: BulkLoad returns the cancellation, no
// group is started after the one in flight beside it, no chunk write is still
// running, the store is poisoned, and no coding goroutine is left behind.
func TestBulkLoadCancelledJoinsCoders(t *testing.T) {
	// seedGroups' shape, as a corpus: three versions each rewriting four
	// documents of a quarter of chunkGroupBytes, each a chunk of its own.
	g := vgraph.New()
	c := corpus.New(g)
	for rev := types.VersionID(0); rev < 3; rev++ {
		var err error
		if rev == 0 {
			_, err = g.AddRoot()
		} else {
			_, err = g.AddVersion(rev - 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		delta := &types.Delta{}
		for d := 0; d < 4; d++ {
			key := types.Key(fmt.Sprintf("doc-%d", d))
			delta.Adds = append(delta.Adds, types.Record{CK: types.CompositeKey{Key: key, Version: rev}, Value: []byte(strings.Repeat(fmt.Sprintf("%d.%d ", d, rev), chunkGroupBytes/4/4))})
			if rev > 0 {
				delta.Dels = append(delta.Dels, types.CompositeKey{Key: key, Version: rev - 1})
			}
		}
		if err := c.AddVersionDelta(rev, delta); err != nil {
			t.Fatal(err)
		}
	}

	st, _, backends := openFaulty(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	writes := 0
	backends[0].arm(func(table string) bool {
		if table == TableChunks {
			if writes++; writes == 2 {
				cancel() // the group is in flight: the backend sees a dead context
			}
		}
		return false
	})
	baseline := runtime.NumGoroutine()
	err := st.BulkLoad(ctx, c)
	if n := backends[0].inFlight.Load(); n != 0 {
		t.Fatalf("%d chunk writes still in flight after BulkLoad returned", n)
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, types.ErrPoisoned) {
		t.Fatalf("bulk load under a cancelled context: %v, want ErrPoisoned wrapping the cancellation", err)
	}
	backends[0].arm(nil)
	if writes < 2 || writes > 3 {
		t.Fatalf("%d chunk groups were written, want the pipeline to stop at the cancelled group 2 or the one in flight beside it", writes)
	}
	settleGoroutines(t, baseline)
	if err := st.Flush(context.Background()); !errors.Is(err, types.ErrPoisoned) {
		t.Fatalf("flush after the cancelled bulk load: %v, want ErrPoisoned", err)
	}
}
